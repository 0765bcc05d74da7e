package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dhsketch"
	"dhsketch/internal/chord"
	"dhsketch/internal/metrics"
	"dhsketch/internal/netdht"
	"dhsketch/internal/serve"
	"dhsketch/internal/sketch"
)

// The ring is built the way the daemons build it with their default
// flags: dhsnode serve -admin (50 ms maintenance tick, stabilize every
// tick, fix fingers every tick, check predecessor every second tick, a
// registry per node) and dhsd (k=16, m=64, super-LogLog, Lim=5, four
// pooled connections per peer, four parallel probes, one registry for
// the client and the frontend).
const (
	ringNodes   = 16
	maintPeriod = 50 * time.Millisecond
	geomK       = 16
	geomM       = 64
	geomLim     = 5
)

// The accuracy checks' envelopes derive from the super-LogLog standard
// error for m vectors, sigma = 1.05/sqrt(m): a mean relative error must
// stay within 3 sigma and a single estimate within 4 sigma. A broken
// estimator or scan is off by far more; a sound one stays inside even
// on the seeds whose items happen to sketch badly.
var (
	sigma          = 1.05 / math.Sqrt(geomM)
	meanErrLimit   = 3 * sigma
	singleErrLimit = 4 * sigma
)

func chordProtocol() chord.ProtocolConfig {
	return chord.ProtocolConfig{StabilizeEvery: 1, FixFingersEvery: 1, CheckPredEvery: 2}
}

func clientConfig(entry string, seed uint64, reg *metrics.Registry) netdht.ClientConfig {
	return netdht.ClientConfig{
		Entry: entry,
		K:     geomK, M: geomM, Kind: sketch.KindSuperLogLog, Lim: geomLim, Seed: seed,
		PeerConns:     netdht.DefaultPeerConns,
		ProbeParallel: netdht.DefaultProbeParallel,
		Metrics:       reg,
	}
}

func metricIDOf(name string) uint64 { return dhsketch.MetricID(name) }

// metricState is one counted metric: its name, how many distinct items
// the set-up loads, and how many distinct items it holds now.
type metricState struct {
	name    string
	id      uint64
	preload int64
	truth   atomic.Int64
}

func (m *metricState) item(seed uint64, j int64) uint64 {
	return dhsketch.ItemID(fmt.Sprintf("perfbench-%d-%s-%d", seed, m.name, j))
}

// ringSpec is one ring workload.
type ringSpec struct {
	seed     uint64
	metrics  []*metricState
	cacheTTL time.Duration
	readers  int
	// picker returns a worker's metric chooser; each worker has its own
	// seeded generator.
	picker func(rng *rand.Rand) func() int
	writer bool
	// minHit and maxHit bound serve.cache_hit_ratio: what makes the
	// workload exercise the layers it was chosen for.
	minHit, maxHit float64
}

// logSpaced returns n cardinalities spaced evenly in log from lo to hi,
// in an order shuffled by rng.
func logSpaced(rng *rand.Rand, n int, lo, hi float64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(math.Round(lo * math.Pow(hi/lo, float64(i)/float64(n-1))))
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func newMetrics(seed uint64, prefix string, n int) []*metricState {
	rng := rand.New(rand.NewPCG(seed, 0x6d6574726963))
	cards := logSpaced(rng, n, 100, 10000)
	ms := make([]*metricState, n)
	for i := range ms {
		name := fmt.Sprintf("%s-%d", prefix, i)
		ms[i] = &metricState{name: name, id: metricIDOf(name), preload: cards[i]}
	}
	return ms
}

func uniformPicker(n int) func(*rand.Rand) func() int {
	return func(rng *rand.Rand) func() int { return func() int { return rng.IntN(n) } }
}

func coldSpec(seed uint64, clients int) ringSpec {
	ms := newMetrics(seed, "cold", 32)
	return ringSpec{seed: seed, metrics: ms, readers: clients, picker: uniformPicker(len(ms))}
}

func hotSpec(seed uint64, clients int) ringSpec {
	ms := newMetrics(seed, "hot", 8)
	return ringSpec{
		seed: seed, metrics: ms, cacheTTL: time.Second, readers: clients,
		picker: func(rng *rand.Rand) func() int {
			z := rand.NewZipf(rng, 1.2, 1, uint64(len(ms)-1))
			return func() int { return int(z.Uint64()) }
		},
		minHit: 0.99, maxHit: 1,
	}
}

func ingestSpec(seed uint64) ringSpec {
	ms := newMetrics(seed, "ingest", 8)
	return ringSpec{seed: seed, metrics: ms, readers: 1, picker: uniformPicker(len(ms)), writer: true}
}

// ringSystem is one built system under test.
type ringSystem struct {
	spec    ringSpec
	servers []*netdht.Server
	regs    []*metrics.Registry

	reg     *metrics.Registry // dhsd's: client and frontend
	client  *netdht.Client
	counter *countingCounter
	hs      *http.Server
	hsDone  sync.WaitGroup
	url     string
	hc      *http.Client

	writer    *netdht.Client
	writerReg *metrics.Registry
}

// startRing joins the ring, waits for it to converge, preloads the
// metrics, starts the frontend and warms every pool and cache.
func startRing(spec ringSpec) (rs *ringSystem, err error) {
	rs = &ringSystem{spec: spec}
	defer func() {
		if err != nil {
			rs.close()
		}
	}()
	for i := 0; i < ringNodes; i++ {
		reg := metrics.New()
		s, err := netdht.NewServer("127.0.0.1:0", netdht.Options{
			Name:     fmt.Sprintf("perfbench-node-%d", i),
			Protocol: chordProtocol(),
			Metrics:  reg,
		})
		if err != nil {
			return rs, err
		}
		rs.servers = append(rs.servers, s)
		rs.regs = append(rs.regs, reg)
		if i > 0 {
			if err := join(s, rs.servers[0].Addr()); err != nil {
				return rs, err
			}
		}
		s.StartMaintenance(maintPeriod)
	}
	if err := rs.awaitConverged(30 * time.Second); err != nil {
		return rs, err
	}
	if err := rs.preload(); err != nil {
		return rs, err
	}
	if err := rs.startFrontend(); err != nil {
		return rs, err
	}
	return rs, rs.warm()
}

// join retries like dhsnode serve -join: the ring may still be settling.
func join(s *netdht.Server, bootstrap string) error {
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		if err = s.Join(bootstrap); err == nil {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return err
}

// converged reports whether every node's successor and predecessor are
// its neighbours in sorted identifier order.
func (rs *ringSystem) converged() bool {
	sts := make([]netdht.Status, len(rs.servers))
	for i, s := range rs.servers {
		sts[i] = s.Status()
	}
	sort.Slice(sts, func(i, j int) bool { return sts[i].ID < sts[j].ID }) // fixed-width hex
	n := len(sts)
	for i, st := range sts {
		next, prev := sts[(i+1)%n], sts[(i+n-1)%n]
		if len(st.Successors) == 0 || st.Successors[0] != next.Addr || st.Predecessor != prev.Addr {
			return false
		}
	}
	return true
}

func (rs *ringSystem) awaitConverged(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for !rs.converged() {
		if time.Now().After(deadline) {
			return fmt.Errorf("ring of %d did not converge within %v", len(rs.servers), limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// preload inserts every metric's distinct items through a client built
// like dhsnode insert's, from one goroutine per CPU.
func (rs *ringSystem) preload() error {
	c, err := netdht.NewClient(clientConfig(rs.servers[0].Addr(), rs.spec.seed, nil))
	if err != nil {
		return err
	}
	defer c.Close()
	type job struct {
		m *metricState
		j int64
	}
	var jobs []job
	for _, m := range rs.spec.metrics {
		m.truth.Store(m.preload)
		for j := int64(0); j < m.preload; j++ {
			jobs = append(jobs, job{m, j})
		}
	}
	var next atomic.Int64
	errs := make([]error, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(jobs)); i = next.Add(1) - 1 {
				jb := jobs[i]
				if err := c.Insert(jb.m.id, jb.m.item(rs.spec.seed, jb.j)); err != nil {
					errs[w] = fmt.Errorf("preload %s item %d: %w", jb.m.name, jb.j, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// startFrontend serves the dhsd surface on a loopback listener, with the
// benchmark's span wrappers around the handler and the counter.
func (rs *ringSystem) startFrontend() error {
	rs.reg = metrics.New()
	c, err := netdht.NewClient(clientConfig(rs.servers[0].Addr(), rs.spec.seed, rs.reg))
	if err != nil {
		return err
	}
	rs.client = c
	rs.counter = &countingCounter{client: c}
	fe := serve.New(rs.counter, serve.Config{CacheTTL: rs.spec.cacheTTL, Coalesce: true, Metrics: rs.reg})
	h := serve.NewHandler(fe, serve.HandlerOptions{Metrics: rs.reg, Ping: c.Ping})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	rs.hs = &http.Server{Handler: tracedHandler{h}, ReadHeaderTimeout: 5 * time.Second}
	rs.hsDone.Add(1)
	go func() {
		defer rs.hsDone.Done()
		rs.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	rs.url = "http://" + ln.Addr().String()
	rs.hc = &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        4 * rs.spec.readers,
			MaxIdleConnsPerHost: 4 * rs.spec.readers,
		},
	}
	if rs.spec.writer {
		rs.writerReg = metrics.New()
		rs.writer, err = netdht.NewClient(clientConfig(rs.servers[0].Addr(), rs.spec.seed+1, rs.writerReg))
		if err != nil {
			return err
		}
	}
	return nil
}

// warmUp is how long the real load runs, untimed, before the measured
// window: long enough for every pool to dial its connections and for the
// cache to hold every metric the readers ask for.
const warmUp = 500 * time.Millisecond

// warm runs the workload's own load for warmUp; any failed op fails the
// set-up.
func (rs *ringSystem) warm() error {
	w := rs.measure(warmUp, 0)
	if n := w.answers.failed() + w.writeFailures; n > 0 || w.answers.ok == 0 {
		return fmt.Errorf("warm-up: %d failed ops, %d answers", n, w.answers.ok)
	}
	return nil
}

// close tears everything down and waits for it; safe on a partly built
// system.
func (rs *ringSystem) close() {
	if rs.hs != nil {
		rs.hs.Close()
		rs.hsDone.Wait()
	}
	if rs.hc != nil {
		rs.hc.CloseIdleConnections()
	}
	if rs.client != nil {
		rs.client.Close()
	}
	if rs.writer != nil {
		rs.writer.Close()
	}
	for _, s := range rs.servers {
		s.Close()
	}
}
