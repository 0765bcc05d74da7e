package netdht

import (
	"fmt"
	"math"
	"math/bits"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dhsketch/internal/chord"
	"dhsketch/internal/dht"
	"dhsketch/internal/md4"
	"dhsketch/internal/metrics"
	"dhsketch/internal/store"
	"dhsketch/internal/wire"
)

// Options configures one Server.
type Options struct {
	// Name is the label hashed (md4, like every ring flavor) into the
	// node's 64-bit identifier. Empty means the bound listen address —
	// unique per process, which is what a deployment wants.
	Name string

	// Protocol shapes the stabilization rounds; zero fields take the
	// chord package defaults. The tick unit here is maintenance-ticker
	// fires, not sim.Clock ticks.
	Protocol chord.ProtocolConfig

	// DialTimeout and RPCTimeout bound outbound connection setup and one
	// request/reply exchange. Zero means the package defaults.
	DialTimeout time.Duration
	RPCTimeout  time.Duration

	// PeerConns is the outbound connection-pool width per peer address.
	// Zero means DefaultPeerConns.
	PeerConns int

	// Now supplies the coarse tick clock TTL expiry is evaluated
	// against. Nil means the server's own maintenance tick counter —
	// suitable for a daemon; a Cluster passes its sim clock so stores
	// attached by core expire on the same timeline core reads them on.
	Now func() int64

	// Logf receives operational messages (join, crash discovery,
	// shutdown). Nil means silent. Messages arrive as single structured
	// key=value lines ("event=joined successor=... "), one Logf call per
	// line, with a stable field order — grep-able and machine-parseable.
	Logf func(format string, args ...any)

	// Metrics, when non-nil, instruments the server: per-tag RPC
	// latency/error histograms on both sides of the wire, dial/retry and
	// errno-class counters, maintenance-round durations, and store
	// gauges (DESIGN.md §15). Nil means metrics off — the hot paths then
	// pay one nil check per event and zero allocations.
	Metrics *metrics.Registry
}

// Server is one networked ring member: a TCP listener speaking the
// framed wire + control protocol, the node's Chord state (predecessor,
// successor list, fingers), and the DHS data plane (tuple store, probe
// answering). It implements dht.Node; the overlay surface over a set
// of Servers is provided by Cluster (in-process) or by a remote peer's
// routing RPCs (cmd/dhsnode).
type Server struct {
	nodeCore
	cfg   chord.ProtocolConfig
	addr  string
	ln    net.Listener
	peers *peerPool
	nowFn func() int64
	logf  func(string, ...any)
	m     *srvMetrics // nil when metrics are off

	// linked flips once the node has ever been part of a ring larger
	// than itself (Join succeeded, a notify adopted a first successor,
	// or a Cluster seeded peers). /healthz uses it to distinguish a
	// fresh bootstrap ring-of-one (healthy) from a node that lost every
	// successor (partitioned).
	linked atomic.Bool

	// tick is the wall-clock maintenance tick counter — the DueAt
	// domain when StartMaintenance drives the protocol.
	tick atomic.Int64

	mu         sync.Mutex // guards the Chord state below
	pred       nodeRef
	succ       []nodeRef
	fingers    [64]nodeRef
	nextFinger int

	storeMu sync.Mutex // serializes lazy store creation

	inMu     sync.Mutex
	inConns  map[net.Conn]struct{}
	inClosed bool

	wg       sync.WaitGroup
	quit     chan struct{}
	quitOnce sync.Once
}

// NewServer binds listen and starts serving RPCs. The returned server
// is a ring of one until Join (or a Cluster seeding its state) links
// it to peers.
func NewServer(listen string, opt Options) (*Server, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("netdht: listen %s: %w", listen, err)
	}
	addr := ln.Addr().String()
	name := opt.Name
	if name == "" {
		name = addr
	}
	s := &Server{
		cfg:     opt.Protocol.WithDefaults(),
		addr:    addr,
		ln:      ln,
		peers:   newPeerPool(opt.DialTimeout, opt.RPCTimeout, opt.PeerConns),
		logf:    opt.Logf,
		inConns: make(map[net.Conn]struct{}),
		quit:    make(chan struct{}),
	}
	s.id = md4.Sum64([]byte(name))
	s.name = name
	s.alive.Store(true)
	if opt.Now != nil {
		s.nowFn = opt.Now
	} else {
		s.nowFn = s.tick.Load
	}
	s.registerMetrics(opt.Metrics)
	s.wg.Add(1)
	go s.serve()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.addr }

func (s *Server) ref() nodeRef { return nodeRef{id: s.id, addr: s.addr} }

// logKV emits one structured operational log line: "event=<name>"
// followed by the key=value pairs in the order given (stable per call
// site, so a line's fields always appear in the same order). Values
// containing spaces, quotes, or '=' are quoted. Nil logf is silent.
func (s *Server) logKV(event string, kv ...any) {
	if s.logf == nil {
		return
	}
	var b strings.Builder
	b.WriteString("event=")
	b.WriteString(event)
	for i := 0; i+1 < len(kv); i += 2 {
		b.WriteByte(' ')
		fmt.Fprint(&b, kv[i])
		b.WriteByte('=')
		b.WriteString(kvValue(kv[i+1]))
	}
	s.logf("%s", b.String())
}

// kvValue renders one logKV value, quoting it when the bare rendering
// would break key=value tokenization.
func kvValue(v any) string {
	str := fmt.Sprint(v)
	if str == "" || strings.ContainsAny(str, " \t\n\"=") {
		return strconv.Quote(str)
	}
	return str
}

// seed installs protocol state directly — the Cluster constructor's
// pre-converged bootstrap, mirroring chord.NewStabilizing.
func (s *Server) seed(pred nodeRef, succ []nodeRef, fingers [64]nodeRef) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pred = pred
	s.succ = append([]nodeRef(nil), succ...)
	s.fingers = fingers
	if len(succ) > 0 {
		s.linked.Store(true)
	}
}

// snapshotState returns a copy of the Chord state for local decisions;
// never held across an RPC.
func (s *Server) snapshotState() (pred nodeRef, succ []nodeRef, fingers [64]nodeRef) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pred, append([]nodeRef(nil), s.succ...), s.fingers
}

// successorRefs returns the believed successor list (local state, zero
// network cost — the dht.SuccessorLister contract).
func (s *Server) successorRefs() []nodeRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]nodeRef(nil), s.succ...)
}

// ensureStore returns the node's tuple store, creating one on first
// use. Concurrent insert RPCs may race here, hence the dedicated lock.
func (s *Server) ensureStore() *store.Store {
	s.storeMu.Lock()
	defer s.storeMu.Unlock()
	if st, ok := s.App().(*store.Store); ok {
		return st
	}
	st := store.New()
	s.m.instrumentStore(st)
	s.SetApp(st)
	return st
}

// ---------------------------------------------------------------------
// Accept loop and dispatch

func (s *Server) serve() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.inMu.Lock()
		if s.inClosed {
			s.inMu.Unlock()
			c.Close()
			return
		}
		s.inConns[c] = struct{}{}
		s.inMu.Unlock()
		s.wg.Add(1)
		go s.handleConn(c)
	}
}

// Server-side socket deadlines (conndeadline invariant, DESIGN.md §10):
// an inbound connection that sends nothing for serverIdleTimeout is
// reaped — clients tolerate this transparently, because the peer pool
// redials on a failed exchange — and a reply write that cannot drain
// within serverWriteTimeout abandons the connection rather than parking
// the handler goroutine behind a stalled peer forever. Variables, not
// constants, so tests can shrink them.
var (
	serverIdleTimeout  = 5 * time.Minute
	serverWriteTimeout = 30 * time.Second
)

func (s *Server) handleConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.inMu.Lock()
		delete(s.inConns, c)
		s.inMu.Unlock()
		c.Close()
	}()
	for {
		if err := c.SetReadDeadline(time.Now().Add(serverIdleTimeout)); err != nil {
			return
		}
		req, err := readFrame(c)
		if err != nil {
			return
		}
		if err := c.SetWriteDeadline(time.Now().Add(serverWriteTimeout)); err != nil {
			return
		}
		if err := writeFrame(c, s.dispatch(req)); err != nil {
			return
		}
	}
}

// dispatch answers one framed request. Every request gets a reply —
// the exchange discipline keeps one request/reply in flight per
// connection, so framing never desynchronizes. The metrics hooks meter
// the request per tag (count, bytes, frame size, handling latency, and
// typed-error replies); with metrics off they are nil-receiver no-ops.
func (s *Server) dispatch(req []byte) []byte {
	slot, tm := s.m.startRequest(req)
	resp := s.handleRequest(req)
	s.m.finishRequest(slot, resp, tm)
	return resp
}

func (s *Server) handleRequest(req []byte) []byte {
	if len(req) < 2 || req[0] != wire.Version {
		return encodeErr(errnoBad, 0, 0)
	}
	switch req[1] {
	case tagFindSucc:
		return s.handleFindSucc(req)
	case tagNeighbors:
		return s.handleNeighbors()
	case tagNotify:
		return s.handleNotify(req)
	case tagPing:
		if !s.alive.Load() {
			return encodeErr(errnoNodeDown, 0, 0)
		}
		return encodePong()
	case wire.TagInsert:
		return s.handleInsert(req)
	case wire.TagBulkInsert:
		return s.handleBulkInsert(req)
	case wire.TagProbeReq:
		return s.handleProbeReq(req)
	default:
		return encodeErr(errnoBad, 0, 0)
	}
}

// ---------------------------------------------------------------------
// Routing

// handleFindSucc is the recursive routing step: meter the hop that
// reached us, answer directly when this node is the delivery target,
// otherwise keep routing from here.
func (s *Server) handleFindSucc(req []byte) []byte {
	m, err := decodeFindSucc(req)
	if err != nil {
		return encodeErr(errnoBad, 0, 0)
	}
	if !s.alive.Load() {
		return encodeErr(errnoNodeDown, m.hops, m.stale)
	}
	if m.flags&flagForwarded != 0 {
		s.counters.AddRouted()
	}
	if m.flags&flagDeliver != 0 {
		return encodeFindSuccResp(s.selfResp(int(m.hops), int(m.stale)))
	}
	resp, errno := s.routeLocal(m.key, int(m.hops), int(m.stale))
	if errno != 0 {
		return encodeErr(errno, resp.hops, resp.stale)
	}
	return encodeFindSuccResp(resp)
}

// arc returns the lower bound lo of the ring arc (lo, self] this node
// answers for, read from its protocol state: its predecessor's id, or
// its own id — the whole ring — while its successor list is empty (a
// ring of one). ok is false while the predecessor is unknown.
func (s *Server) arc() (lo uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case len(s.succ) == 0:
		return s.id, true
	case s.pred.valid() && s.pred.id != s.id:
		return s.pred.id, true
	}
	return 0, false
}

// owns reports whether this node owns key by its local state: the key
// is its own identifier or lies in its known arc. It is the node's one
// ownership rule — routing answers such a key here instead of
// forwarding it, and a keyed probe for any other key is refused — so
// routing and probe validation cannot disagree about where the node's
// range ends.
func (s *Server) owns(key uint64) bool {
	lo, ok := s.arc()
	return key == s.id || ok && arcContains(lo, s.id, key)
}

// selfResp is the find-successor reply naming this node as the owner,
// carrying its arc when the node knows it.
func (s *Server) selfResp(hops, stale int) findSuccRespMsg {
	lo, ok := s.arc()
	return findSuccRespMsg{hops: uint16(hops), stale: uint16(stale), owner: s.ref(), pred: lo, hasPred: ok}
}

// routeLocal makes one node's routing decision for key, with hops and
// stale accumulated so far, and drives the rest of the route over the
// network. The decision procedure mirrors chord's routeLocked with
// liveness discovered by contact instead of shared memory:
//
//   - if this node owns the key (see owns), answer self;
//   - if the key lies within the successor list, deliver to the first
//     reachable entry that covers it; every unreachable entry ahead of
//     it costs the discovery timeout — one hop, one stale;
//   - otherwise forward to the closest preceding reachable finger,
//     falling back through the successor list, unreachable candidates
//     costing one hop + one stale each.
//
// The forwarded peer meters its own Routed increment (flagForwarded),
// so a lookup's hop count equals the Routed increments it caused —
// the dhttest metering invariant — without any shared counter.
func (s *Server) routeLocal(key uint64, hops, stale int) (findSuccRespMsg, byte) {
	if s.owns(key) {
		return s.selfResp(hops, stale), 0
	}
	_, succ, fingers := s.snapshotState()
	if len(succ) == 0 {
		// Stabilization dropped every successor after the ownership
		// check: the node is a ring of one again and owns every key.
		return s.selfResp(hops, stale), 0
	}
	dKey := dist(s.id, key)

	// Successor distances increase along the list, so the entries that
	// cover the key form a suffix; the first of them is the believed
	// owner, the rest are its backups.
	for _, sc := range succ {
		if sc.id == s.id || dKey > dist(s.id, sc.id) {
			continue
		}
		resp, errno, err := s.forwardTo(sc.addr, key, hops+1, stale, true)
		if err == nil {
			return resp, errno
		}
		hops++
		stale++
		if hops >= maxHops {
			return findSuccRespMsg{hops: uint16(hops), stale: uint16(stale)}, errnoNoRoute
		}
	}
	if dKey <= dist(s.id, succ[len(succ)-1].id) {
		// The key was within the list but every covering entry was
		// unreachable: the walk cannot proceed from here.
		return findSuccRespMsg{hops: uint16(hops), stale: uint16(stale)}, errnoNoRoute
	}

	// Closest preceding finger, highest first; then the successor list.
	for i := bits.Len64(dKey-1) - 1; i >= 0; i-- {
		f := fingers[i]
		if !f.valid() || f.id == s.id {
			continue
		}
		d := dist(s.id, f.id)
		if d == 0 || d >= dKey {
			continue
		}
		resp, errno, err := s.forwardTo(f.addr, key, hops+1, stale, false)
		if err == nil {
			return resp, errno
		}
		hops++
		stale++
		if hops >= maxHops {
			return findSuccRespMsg{hops: uint16(hops), stale: uint16(stale)}, errnoNoRoute
		}
	}
	for _, sc := range succ {
		if sc.id == s.id {
			continue
		}
		resp, errno, err := s.forwardTo(sc.addr, key, hops+1, stale, false)
		if err == nil {
			return resp, errno
		}
		hops++
		stale++
		if hops >= maxHops {
			break
		}
	}
	return findSuccRespMsg{hops: uint16(hops), stale: uint16(stale)}, errnoNoRoute
}

// forwardTo sends one routing step to addr. A transport failure (err
// != nil) means the candidate could not be reached — the caller pays
// the discovery timeout and tries the next one. A decoded reply is
// terminal: either the owner or a typed downstream routing failure.
func (s *Server) forwardTo(addr string, key uint64, hops, stale int, deliver bool) (findSuccRespMsg, byte, error) {
	flags := byte(flagForwarded)
	if deliver {
		flags |= flagDeliver
	}
	raw, err := s.peers.exchange(addr, encodeFindSucc(findSuccMsg{
		flags: flags, key: key, hops: uint16(hops), stale: uint16(stale),
	}))
	if err != nil {
		return findSuccRespMsg{}, 0, err
	}
	if len(raw) >= 2 && raw[1] == tagErr {
		code, h, st, derr := decodeErr(raw)
		if derr != nil {
			return findSuccRespMsg{}, 0, derr
		}
		if code == errnoNodeDown {
			// The peer answered while shutting down: same as unreachable.
			return findSuccRespMsg{}, 0, dht.ErrNodeDown
		}
		return findSuccRespMsg{hops: h, stale: st}, code, nil
	}
	resp, err := decodeFindSuccResp(raw)
	if err != nil {
		return findSuccRespMsg{}, 0, err
	}
	return resp, 0, nil
}

// ---------------------------------------------------------------------
// Data plane: insert and probe RPCs (the cmd/dhsnode path; in-process
// clusters let core access the store directly, like the simulator)

func (s *Server) expiryFor(ttl uint16) int64 {
	if ttl == 0 {
		return math.MaxInt64
	}
	return s.nowFn() + int64(ttl)
}

func (s *Server) handleInsert(req []byte) []byte {
	m, err := wire.DecodeInsert(req)
	if err != nil {
		return encodeErr(errnoBad, 0, 0)
	}
	if !s.alive.Load() {
		return encodeErr(errnoNodeDown, 0, 0)
	}
	s.ensureStore().Set(store.Key{Metric: m.Metric, Vector: int32(m.Vector), Bit: m.Bit}, s.expiryFor(m.TTL))
	s.counters.AddStoreOps()
	return encodeAck(false)
}

func (s *Server) handleBulkInsert(req []byte) []byte {
	m, err := wire.DecodeBulkInsert(req)
	if err != nil {
		return encodeErr(errnoBad, 0, 0)
	}
	if !s.alive.Load() {
		return encodeErr(errnoNodeDown, 0, 0)
	}
	st := s.ensureStore()
	expiry := s.expiryFor(m.TTL)
	for _, v := range m.Vectors {
		st.Set(store.Key{Metric: m.Metric, Vector: int32(v), Bit: m.Bit}, expiry)
	}
	s.counters.AddStoreOps()
	return encodeAck(false)
}

func (s *Server) handleProbeReq(req []byte) []byte {
	m, err := wire.DecodeProbeReq(req)
	if err != nil {
		return encodeErr(errnoBad, 0, 0)
	}
	if !s.alive.Load() {
		return encodeErr(errnoNodeDown, 0, 0)
	}
	if m.HasKey && !s.owns(m.Key) {
		return encodeErr(errnoNotOwner, 0, 0)
	}
	s.counters.AddProbed()
	st, _ := s.App().(*store.Store)
	now := s.nowFn()
	maskLen := wire.MaskBytes(int(m.NumVecs))
	span := m.Span()
	// NumVecs, the metric list and the span are peer-controlled: a
	// 12-byte request claiming 65535 vectors across 65535 metrics would
	// demand ~512 MiB of mask allocations, and a span multiplies that.
	// Refuse any request whose reply could not fit one frame, or whose
	// mask count overflows the reply's uint16 count field (zero-width
	// masks would otherwise still cost a slice header each), before
	// allocating for it (wirebounds invariant).
	if span*len(m.Metrics) > math.MaxUint16 || 16+span*len(m.Metrics)*maskLen > maxFrame {
		return encodeErr(errnoBad, 0, 0)
	}
	masks := make([][]byte, 0, span*len(m.Metrics))
	backing := make([]byte, span*len(m.Metrics)*maskLen)
	var words []uint64
	for i := 0; i < span; i++ {
		bit := m.SpanBit(i)
		for _, metric := range m.Metrics {
			mask := backing[len(masks)*maskLen : (len(masks)+1)*maskLen]
			words = st.AppendBitsWithBit(words, metric, bit, now) // a nil store reads as empty
			for wi, w := range words {
				for ; w != 0; w &= w - 1 {
					if v := wi<<6 + bits.TrailingZeros64(w); v < int(m.NumVecs) {
						wire.SetVec(mask, v)
					}
				}
			}
			masks = append(masks, mask)
		}
	}
	out := wire.ProbeResp{Bit: m.Bit, NumVecs: m.NumVecs, VecMasks: masks}
	if m.HasThrough {
		out.Pred, out.HasPred = s.arc()
	}
	resp, err := wire.EncodeProbeResp(out)
	if err != nil {
		return encodeErr(errnoBad, 0, 0)
	}
	return resp
}

// ---------------------------------------------------------------------
// Stabilization protocol (the PR-6 rounds, over RPC)

func (s *Server) handleNeighbors() []byte {
	if !s.alive.Load() {
		return encodeErr(errnoNodeDown, 0, 0)
	}
	pred, succ, _ := s.snapshotState()
	return encodeNeighborsResp(neighborsRespMsg{self: s.ref(), pred: pred, succ: succ})
}

func (s *Server) handleNotify(req []byte) []byte {
	n, err := decodeNotify(req)
	if err != nil {
		return encodeErr(errnoBad, 0, 0)
	}
	if !s.alive.Load() {
		return encodeErr(errnoNodeDown, 0, 0)
	}
	changed := false
	s.mu.Lock()
	if n.id != s.id {
		if !s.pred.valid() ||
			(s.pred.id != n.id && dist(s.pred.id, n.id) < dist(s.pred.id, s.id)) {
			s.pred = n
			changed = true
		}
		if len(s.succ) == 0 {
			// A ring of one learns its first peer: the notifier is both
			// predecessor and successor.
			s.succ = []nodeRef{n}
			s.fingers[0] = n
			s.linked.Store(true)
			changed = true
		}
	}
	s.mu.Unlock()
	return encodeAck(changed)
}

func (s *Server) neighborsRPC(addr string) (neighborsRespMsg, error) {
	raw, err := s.peers.exchange(addr, encodeNeighborsReq())
	if err != nil {
		return neighborsRespMsg{}, err
	}
	if len(raw) >= 2 && raw[1] == tagErr {
		code, _, _, derr := decodeErr(raw)
		if derr != nil {
			return neighborsRespMsg{}, derr
		}
		return neighborsRespMsg{}, errnoErr(code)
	}
	return decodeNeighborsResp(raw)
}

func (s *Server) notifyRPC(addr string, self nodeRef) (bool, error) {
	raw, err := s.peers.exchange(addr, encodeNotify(self))
	if err != nil {
		return false, err
	}
	return decodeAck(raw)
}

func (s *Server) pingRPC(addr string) error {
	raw, err := s.peers.exchange(addr, encodePing())
	if err != nil {
		return err
	}
	if len(raw) < 2 || raw[1] != tagPong {
		return fmt.Errorf("%w: unexpected ping reply", dht.ErrLost)
	}
	return nil
}

// stabilizeRound runs one stabilize/notify exchange: prune unreachable
// successor-list heads (each discovery a timeout), adopt the
// successor's predecessor when it slots in between, refresh the list
// from the successor's, and notify. Returns the number of state
// changes — zero means the round observed a quiescent neighborhood.
// The wrapper meters the round's wall-clock duration and changes; both
// the daemon ticker (maintenanceTick) and Cluster.Step come through it.
func (s *Server) stabilizeRound() int {
	tm := s.m.startRound(roundStabilize)
	n := s.doStabilizeRound()
	s.m.finishRound(roundStabilize, tm, n)
	return n
}

func (s *Server) doStabilizeRound() int {
	if !s.alive.Load() {
		return 0
	}
	_, succ, _ := s.snapshotState()
	if len(succ) == 0 {
		return 0 // a ring of one has nothing to stabilize
	}
	changes := 0
	var head nodeRef
	var nb neighborsRespMsg
	for _, sc := range succ {
		resp, err := s.neighborsRPC(sc.addr)
		if err != nil {
			changes++ // dead head discovered by timeout
			s.logKV("successor-unreachable", "successor", sc.addr, "err", err)
			continue
		}
		head, nb = sc, resp
		break
	}
	if !head.valid() {
		// Every known successor is unreachable. Fall back to the
		// predecessor as a successor seed — on a small ring that is the
		// node that will re-close it; with no predecessor either, the
		// node is partitioned and retries next round.
		s.mu.Lock()
		if s.pred.valid() && s.pred.id != s.id {
			s.succ = []nodeRef{s.pred}
		} else {
			s.succ = nil
		}
		s.mu.Unlock()
		return changes + 1
	}
	sref := head
	if nb.pred.valid() && nb.pred.id != s.id && nb.pred.id != sref.id &&
		dist(s.id, nb.pred.id) < dist(s.id, sref.id) {
		// A node joined between us and our successor: adopt it.
		if presp, err := s.neighborsRPC(nb.pred.addr); err == nil {
			sref, nb = nb.pred, presp
			changes++
		}
	}
	rcap := s.cfg.SuccListLen
	newList := make([]nodeRef, 0, rcap)
	newList = append(newList, sref)
	for _, e := range nb.succ {
		if len(newList) >= rcap {
			break
		}
		if e.id == s.id || containsRef(newList, e) {
			continue
		}
		newList = append(newList, e)
	}
	s.mu.Lock()
	if !sameRefs(s.succ, newList) {
		changes++
	}
	s.succ = newList
	s.fingers[0] = sref
	s.mu.Unlock()
	if adopted, err := s.notifyRPC(sref.addr, s.ref()); err == nil && adopted {
		changes++
	}
	return changes
}

// fixFingersRound refreshes FingersPerRound finger entries by routing
// to each entry's target through the live network.
func (s *Server) fixFingersRound() int {
	tm := s.m.startRound(roundFixFingers)
	n := s.doFixFingersRound()
	s.m.finishRound(roundFixFingers, tm, n)
	return n
}

func (s *Server) doFixFingersRound() int {
	if !s.alive.Load() {
		return 0
	}
	changes := 0
	for j := 0; j < s.cfg.FingersPerRound; j++ {
		s.mu.Lock()
		i := s.nextFinger
		s.nextFinger = (s.nextFinger + 1) % len(s.fingers)
		s.mu.Unlock()
		resp, errno := s.routeLocal(s.id+uint64(1)<<uint(i), 0, 0)
		if errno != 0 {
			continue // entry stays; retried next cycle
		}
		s.mu.Lock()
		if s.fingers[i] != resp.owner {
			s.fingers[i] = resp.owner
			changes++
		}
		s.mu.Unlock()
	}
	return changes
}

// checkPredRound clears a predecessor that no longer answers pings, so
// the next notify can repair it.
func (s *Server) checkPredRound() int {
	tm := s.m.startRound(roundCheckPred)
	n := s.doCheckPredRound()
	s.m.finishRound(roundCheckPred, tm, n)
	return n
}

func (s *Server) doCheckPredRound() int {
	if !s.alive.Load() {
		return 0
	}
	s.mu.Lock()
	pred := s.pred
	s.mu.Unlock()
	if !pred.valid() {
		return 0
	}
	if err := s.pingRPC(pred.addr); err == nil {
		return 0
	}
	s.mu.Lock()
	if s.pred == pred {
		s.pred = nodeRef{}
	}
	s.mu.Unlock()
	s.logKV("predecessor-cleared", "predecessor", pred.addr)
	return 1
}

// maintenanceTick advances the virtual protocol tick and runs whatever
// rounds chord.ProtocolConfig.DueAt schedules there — the same cadence
// function the simulated StabilizingRing.Step uses, driven here by a
// wall-clock ticker.
func (s *Server) maintenanceTick() {
	t := s.tick.Add(1)
	due := s.cfg.DueAt(t)
	if due.Has(chord.RoundStabilize) {
		s.stabilizeRound()
	}
	if due.Has(chord.RoundFixFingers) {
		s.fixFingersRound()
	}
	if due.Has(chord.RoundCheckPred) {
		s.checkPredRound()
	}
}

// StartMaintenance launches the wall-clock protocol driver: one
// DueAt tick per period. Stops when the server closes.
func (s *Server) StartMaintenance(period time.Duration) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tk := time.NewTicker(period)
		defer tk.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tk.C:
				s.maintenanceTick()
			}
		}
	}()
}

// Join links this server into the ring reachable at bootstrap: route
// to our own identifier to find our successor, adopt its successor
// list, and notify it. The rest of the ring learns about us through
// its stabilize rounds.
func (s *Server) Join(bootstrap string) error {
	raw, err := s.peers.exchangeRetry(bootstrap, encodeFindSucc(findSuccMsg{key: s.id}), 3, 0)
	if err != nil {
		return fmt.Errorf("netdht: join via %s: %w", bootstrap, err)
	}
	if len(raw) >= 2 && raw[1] == tagErr {
		code, _, _, derr := decodeErr(raw)
		if derr == nil {
			derr = errnoErr(code)
		}
		return fmt.Errorf("netdht: join via %s: %w", bootstrap, derr)
	}
	resp, err := decodeFindSuccResp(raw)
	if err != nil {
		return fmt.Errorf("netdht: join via %s: %w", bootstrap, err)
	}
	succ0 := resp.owner
	if succ0.id == s.id {
		return fmt.Errorf("netdht: join via %s: identifier collision with %s", bootstrap, succ0.addr)
	}
	nb, err := s.neighborsRPC(succ0.addr)
	if err != nil {
		return fmt.Errorf("netdht: join: successor %s: %w", succ0.addr, err)
	}
	s.mu.Lock()
	list := []nodeRef{succ0}
	for _, e := range nb.succ {
		if len(list) >= s.cfg.SuccListLen {
			break
		}
		if e.id == s.id || containsRef(list, e) {
			continue
		}
		list = append(list, e)
	}
	s.succ = list
	for i := range s.fingers {
		s.fingers[i] = succ0
	}
	s.mu.Unlock()
	if _, err := s.notifyRPC(succ0.addr, s.ref()); err != nil {
		return fmt.Errorf("netdht: join: notify %s: %w", succ0.addr, err)
	}
	s.linked.Store(true)
	s.logKV("joined", "bootstrap", bootstrap, "successor", succ0.addr)
	return nil
}

// Close shuts the server down: stop maintenance, stop accepting,
// sever every connection, and wait for the handlers to drain. After
// Close the node reports dead and its address refuses connections —
// the crash-stop signature peers discover by timeout.
func (s *Server) Close() {
	s.quitOnce.Do(func() { close(s.quit) })
	s.alive.Store(false)
	s.ln.Close()
	s.peers.close()
	s.inMu.Lock()
	s.inClosed = true
	for c := range s.inConns {
		c.Close()
	}
	s.inMu.Unlock()
	s.wg.Wait()
	s.logKV("server-closed", "addr", s.addr)
}

func containsRef(list []nodeRef, r nodeRef) bool {
	for _, e := range list {
		if e.id == r.id {
			return true
		}
	}
	return false
}

func sameRefs(a, b []nodeRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var _ dht.Node = (*Server)(nil)
