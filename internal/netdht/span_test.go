package netdht

import (
	"encoding/json"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
	"dhsketch/internal/store"
	"dhsketch/internal/wire"
)

// spanProbe dispatches a one-metric probe request for metric 7 at m=64.
func spanProbe(t *testing.T, s *Server, req wire.ProbeReq) []byte {
	t.Helper()
	req.NumVecs, req.Metrics = 64, []uint64{7}
	enc, err := wire.EncodeProbeReq(req)
	if err != nil {
		t.Fatal(err)
	}
	return s.dispatch(enc)
}

// TestSpanProbeServer: a span probe inside the responder's arc is
// answered with one mask per bit, Bit's first and then each bit
// stepping toward Through, each equal to that bit's single-bit answer,
// plus the responder's arc in Pred; a keyed span outside the arc is
// refused with errnoNotOwner.
func TestSpanProbeServer(t *testing.T) {
	env := sim.NewEnv(5)
	cl := newTestCluster(t, env, 4)
	servers := cl.Servers()
	s, pred := servers[1], servers[0]
	st := s.ensureStore()
	for bit := uint8(0); bit <= 10; bit++ {
		for v := int32(0); v < 64; v += 1 + int32(bit) {
			st.Set(store.Key{Metric: 7, Vector: v, Bit: bit}, 1<<62)
		}
	}

	for _, span := range []struct{ bit, through uint8 }{{10, 4}, {2, 9}, {6, 6}} {
		raw := spanProbe(t, s, wire.ProbeReq{Bit: span.bit, Key: s.id, HasKey: true, Through: span.through, HasThrough: true})
		resp, err := wire.DecodeProbeResp(raw)
		if err != nil {
			t.Fatalf("span %d..%d: %v (%v)", span.bit, span.through, err, raw)
		}
		want := 1 + int(span.through) - int(span.bit)
		if span.through < span.bit {
			want = 1 + int(span.bit) - int(span.through)
		}
		if len(resp.VecMasks) != want || !resp.HasPred || resp.Pred != pred.id {
			t.Fatalf("span %d..%d: %d masks, pred %016x (%v); want %d masks, pred %016x",
				span.bit, span.through, len(resp.VecMasks), resp.Pred, resp.HasPred, want, pred.id)
		}
		req := wire.ProbeReq{Bit: span.bit, Through: span.through, HasThrough: true}
		for i, mask := range resp.VecMasks {
			single, err := wire.DecodeProbeResp(spanProbe(t, s, wire.ProbeReq{Bit: req.SpanBit(i)}))
			if err != nil {
				t.Fatal(err)
			}
			if single.HasPred || string(single.VecMasks[0]) != string(mask) {
				t.Errorf("span %d..%d: mask %d differs from bit %d's single-bit answer",
					span.bit, span.through, i, req.SpanBit(i))
			}
		}
	}

	raw := spanProbe(t, s, wire.ProbeReq{Bit: 10, Key: s.id + 1, HasKey: true, Through: 0, HasThrough: true})
	if code, _, _, err := decodeErr(raw); err != nil || code != errnoNotOwner {
		t.Errorf("keyed span outside the arc: got %v, want errnoNotOwner", raw)
	}
}

// TestSpanProbeOversizeRejected: span probes whose reply could not be
// sent are refused with errnoBad before the server allocates for the
// masks — a 10-byte request spanning 256 bits of 65535 vectors (a 2 MiB
// reply), and one spanning 256 bits of 300 metrics at zero vectors
// (76,800 masks, beyond the reply's uint16 count) — while the same
// requests for one bit are answered.
func TestSpanProbeOversizeRejected(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	for _, req := range []wire.ProbeReq{
		{Bit: 0, NumVecs: 65535, Metrics: []uint64{7}, Through: 255, HasThrough: true},
		{Bit: 0, NumVecs: 0, Metrics: make([]uint64, 300), Through: 255, HasThrough: true},
	} {
		masks := req.Span() * len(req.Metrics)
		if reply := 8 + masks*wire.MaskBytes(int(req.NumVecs)); reply <= maxFrame && masks <= 65535 {
			t.Fatalf("test premise broken: %d masks in a %d-byte reply can be sent", masks, reply)
		}
		enc, err := wire.EncodeProbeReq(req)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		raw := s.dispatch(enc)
		runtime.ReadMemStats(&after)
		if code, _, _, err := decodeErr(raw); err != nil || code != errnoBad {
			t.Fatalf("oversize span (m=%d): got a %d-byte reply, want errnoBad", req.NumVecs, len(raw))
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
			t.Errorf("refusing the oversize span (m=%d) allocated %d bytes", req.NumVecs, alloc)
		}

		req.HasThrough = false
		enc, err = wire.EncodeProbeReq(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := wire.DecodeProbeResp(s.dispatch(enc)); err != nil || len(resp.VecMasks) != len(req.Metrics) {
			t.Errorf("single-bit form (m=%d): %v, %d masks", req.NumVecs, err, len(resp.VecMasks))
		}
	}
}

// probeProxy fronts a ring-of-one Server for a client: it relays every
// frame to the server's dispatch, names itself as the owner in
// find-successor replies so the client sends everything through it,
// and hands probe requests to rewrite, when set, instead. It counts
// the probe requests it sees, and the keyed ones among them.
type probeProxy struct {
	srv     *Server
	ln      net.Listener
	rewrite func(req []byte) []byte

	probes, keyed atomic.Int64

	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func newProbeProxy(t *testing.T, rewrite func(srv *Server, req []byte) []byte) *probeProxy {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", Options{Name: "span-proxy-owner"})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	p := &probeProxy{srv: srv, ln: ln}
	if rewrite != nil {
		p.rewrite = func(req []byte) []byte { return rewrite(srv, req) }
	}
	p.wg.Add(1)
	go p.accept()
	t.Cleanup(func() {
		ln.Close()
		p.mu.Lock()
		for _, c := range p.conns {
			c.Close()
		}
		p.mu.Unlock()
		p.wg.Wait()
		srv.Close()
	})
	return p
}

func (p *probeProxy) addr() string { return p.ln.Addr().String() }

func (p *probeProxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		p.conns = append(p.conns, c)
		p.mu.Unlock()
		p.wg.Add(1)
		go p.serve(c)
	}
}

func (p *probeProxy) serve(c net.Conn) {
	defer p.wg.Done()
	defer c.Close()
	for {
		if err := c.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			return
		}
		req, err := readFrame(c)
		if err != nil {
			return
		}
		if err := writeFrame(c, p.handle(req)); err != nil {
			return
		}
	}
}

func (p *probeProxy) handle(req []byte) []byte {
	switch req[1] {
	case tagFindSucc:
		raw := p.srv.dispatch(req)
		resp, err := decodeFindSuccResp(raw)
		if err != nil {
			return raw
		}
		resp.owner.addr = p.addr()
		return encodeFindSuccResp(resp)
	case wire.TagProbeReq:
		p.probes.Add(1)
		if m, err := wire.DecodeProbeReq(req); err == nil && m.HasKey {
			p.keyed.Add(1)
		}
		if p.rewrite != nil {
			return p.rewrite(req)
		}
	}
	return p.srv.dispatch(req)
}

// spanPass inserts a fixed item set through proxy and runs one seeded
// sequential counting pass through it, returning the marshaled result
// and the probe requests the pass sent, keyed ones separately.
func spanPass(t *testing.T, p *probeProxy, kind sketch.Kind) (result string, probes, keyed int64) {
	t.Helper()
	cfg := ClientConfig{Entry: p.addr(), K: 16, M: 64, Kind: kind, Lim: 3, ProbeParallel: 1, Seed: 21, DialTimeout: time.Second}
	w, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := w.Insert(7, uint64(i)*0x9e3779b97f4a7c15+5); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	w.Close()
	cfg.Seed = 22
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	probes0, keyed0 := p.probes.Load(), p.keyed.Load()
	res, err := c.Count(7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("degraded pass: %+v", res)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(got), p.probes.Load() - probes0, p.keyed.Load() - keyed0
}

// TestSpanProbeReplies drives a cold client through a ring of one in
// both scan directions, against three responders: the current server,
// whose whole-ring arc answers the pass in one span probe; a server
// that predates spans, whose single-mask replies without Pred leave
// nothing to keep, so the pass probes every interval as before spans;
// and a server reporting an arc that holds none of the later targets,
// with garbage in its extra masks, so no kept mask may be used and
// every later interval sends a keyed probe. All three passes give the
// same bytes.
func TestSpanProbeReplies(t *testing.T) {
	predatesSpans := func(srv *Server, req []byte) []byte {
		m, err := wire.DecodeProbeReq(req)
		if err != nil {
			return srv.dispatch(req)
		}
		m.HasThrough = false
		enc, err := wire.EncodeProbeReq(m)
		if err != nil {
			return srv.dispatch(req)
		}
		return srv.dispatch(enc)
	}
	narrowArc := func(srv *Server, req []byte) []byte {
		raw := srv.dispatch(req)
		resp, err := wire.DecodeProbeResp(raw)
		if err != nil || !resp.HasPred {
			return raw
		}
		resp.Pred = srv.id - 1 // the arc (id-1, id] holds no drawn target
		for _, mask := range resp.VecMasks[1:] {
			for i := range mask {
				mask[i] = 0xFF
			}
		}
		enc, err := wire.EncodeProbeResp(resp)
		if err != nil {
			return raw
		}
		return enc
	}
	for _, kind := range []sketch.Kind{sketch.KindSuperLogLog, sketch.KindPCSA} {
		t.Run(kind.String(), func(t *testing.T) {
			want, probes, keyed := spanPass(t, newProbeProxy(t, nil), kind)
			if probes != 1 || keyed != 0 {
				t.Errorf("ring of one: %d probes (%d keyed), want one unkeyed span probe", probes, keyed)
			}
			var res CountResult
			if err := json.Unmarshal([]byte(want), &res); err != nil {
				t.Fatal(err)
			}
			intervals := int64(res.ProbesAttempted / 3)

			got, probes, keyed := spanPass(t, newProbeProxy(t, predatesSpans), kind)
			if got != want {
				t.Errorf("server without spans: %s, want %s", got, want)
			}
			if probes != intervals || keyed != intervals-1 {
				t.Errorf("server without spans: %d probes (%d keyed), want %d (%d keyed)",
					probes, keyed, intervals, intervals-1)
			}

			got, probes, keyed = spanPass(t, newProbeProxy(t, narrowArc), kind)
			if got != want {
				t.Errorf("narrow reported arc: %s, want %s", got, want)
			}
			if probes != intervals || keyed != intervals-1 {
				t.Errorf("narrow reported arc: %d probes (%d keyed), want %d (%d keyed)",
					probes, keyed, intervals, intervals-1)
			}
		})
	}
}
