package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"dhsketch"
	"dhsketch/internal/store"
)

// The simulated world is the one the Hot* benchmarks in
// perf_bench_test.go count against: 1024 nodes, m=64, k=20, and 8
// metrics of 40,000 items each, bulk-inserted from 32 source nodes. The
// items are the same for every seed; the seed drives the network's
// randomness, so the probe targets of every pass.
const (
	simNodes   = 1024
	simMetrics = 8
	simItems   = 40000
	simSources = 32
	// simProbePasses passes are compared across the set-up builds: a
	// given seed must give the same per-pass costs every time.
	simProbePasses = 3
)

type simWorld struct {
	net     *dhsketch.Network
	d       *dhsketch.DHS
	metrics []uint64
	src     dhsketch.Node
}

func buildSim(seed uint64) (*simWorld, error) {
	net := dhsketch.NewNetwork(seed, simNodes)
	d, err := dhsketch.New(net, dhsketch.Config{M: 64, K: 20})
	if err != nil {
		return nil, err
	}
	nodes := net.Nodes()
	w := &simWorld{net: net, d: d, src: nodes[0]}
	ids := make([]uint64, simItems/simSources)
	for mi := 0; mi < simMetrics; mi++ {
		metric := dhsketch.MetricID(fmt.Sprintf("hot-metric-%d", mi))
		w.metrics = append(w.metrics, metric)
		for s := 0; s < simSources; s++ {
			for i := range ids {
				ids[i] = dhsketch.ItemID(fmt.Sprintf("hot-%d-%d-%d", mi, s, i))
			}
			if _, err := d.BulkInsertFrom(nodes[(s*len(nodes))/simSources], metric, ids); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

// pass runs one multi-metric counting pass from the world's fixed source.
func (w *simWorld) pass() ([]dhsketch.Estimate, error) {
	return w.d.CountAllFrom(w.src, w.metrics)
}

type nodeLoad struct{ routed, probed []float64 }

func (w *simWorld) loads() nodeLoad {
	var l nodeLoad
	for _, n := range w.net.Nodes() {
		c := n.Counters().Snapshot()
		l.routed = append(l.routed, float64(c.Routed))
		l.probed = append(l.probed, float64(c.Probed))
	}
	return l
}

func deltaMaxMean(before, after []float64) float64 {
	d := make([]float64, len(after))
	for i := range after {
		d[i] = after[i] - before[i]
	}
	return maxOverMean(d)
}

func (w *simWorld) tuples() int {
	n := 0
	now := w.net.Env.Clock.Now()
	for _, node := range w.net.Nodes() {
		if st, ok := node.App().(*store.Store); ok {
			n += st.Len(now)
		}
	}
	return n
}

// simWindow is one measured window of back-to-back passes.
type simWindow struct {
	window  time.Duration
	elapsed time.Duration
	passes  []opSample
	cpu     []time.Duration
	failed  int64
	cost    dhsketch.CountCost // summed over passes
	relErr  float64            // summed over passes × metrics
	before  nodeLoad
	after   nodeLoad
	procA   procSample
	procB   procSample
	sockets int
}

func (w *simWorld) measure(window time.Duration) *simWindow {
	runtime.GC() // every window starts from the same heap state: set-up garbage collected
	sw := &simWindow{window: window, before: w.loads(), procA: sampleProc()}
	t := activeTracer.Load()
	start := time.Now()
	deadline := start.Add(window)
	cpu := cpuAtSlices(start, window)
	for time.Now().Before(deadline) {
		var spanStart time.Duration
		if t != nil {
			spanStart = t.now()
		}
		t0 := time.Now()
		ests, err := w.pass()
		lat := time.Since(t0)
		if t != nil {
			t.add(span{kind: spanOp, start: spanStart, end: t.now()})
		}
		if err != nil {
			sw.failed++
			continue
		}
		sw.passes = append(sw.passes, opSample{time.Since(start), lat})
		c := ests[0].Cost // the pass's cost, reported on every estimate
		sw.cost.Lookups += c.Lookups
		sw.cost.NodesVisited += c.NodesVisited
		sw.cost.Hops += c.Hops
		sw.cost.Bytes += c.Bytes
		for _, e := range ests {
			sw.relErr += math.Abs(e.Value-simItems) / simItems
		}
	}
	sw.elapsed = time.Since(start)
	sw.cpu = cpu()
	sw.sockets = openSockets()
	sw.procB = sampleProc()
	sw.after = w.loads()
	return sw
}

func (sw *simWindow) slices() sliced { return sliceMedians(sw.window, sw.cpu, sw.passes) }

// passCosts runs simProbePasses passes and returns each one's cost.
func (w *simWorld) passCosts() ([]dhsketch.CountCost, error) {
	var costs []dhsketch.CountCost
	for i := 0; i < simProbePasses; i++ {
		ests, err := w.pass()
		if err != nil {
			return nil, err
		}
		costs = append(costs, ests[0].Cost)
	}
	return costs, nil
}

// runSim is the sim-count workload.
func runSim(cfg runConfig) *outcome {
	o := newOutcome()
	base := runtime.NumGoroutine()
	sockets := openSockets()
	var w *simWorld
	var first []dhsketch.CountCost
	repeat := true
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if w, err = buildSim(cfg.seed); err != nil {
			o.setupErr = err
			return o
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
		costs, err := w.passCosts()
		if err != nil {
			o.setupErr = err
			return o
		}
		if i == 0 {
			first = costs
		}
		for j := range costs {
			repeat = repeat && costs[j] == first[j]
		}
	}
	o.e2e["setup_s"] = median(o.setupS)
	o.check("sim_costs_repeat", repeat,
		"first %d passes' costs on %d builds of seed %d: %+v", simProbePasses, setupReps, cfg.seed, first)

	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	w1 := w.measure(cfg.window)
	o.simEndToEnd(w1)
	o.simLayers(w, w1)
	o.check("sim_no_sockets", w1.sockets == sockets,
		"sockets open before set-up %d, during the window %d", sockets, w1.sockets)
	o.check("est_rel_err_envelope", o.e2e["est_rel_err"] <= meanErrLimit,
		"est_rel_err=%.4f over %d passes, limit 3x1.05/sqrt(m)=%.4f", o.e2e["est_rel_err"], len(w1.passes), meanErrLimit)
	o.check("error_ratio_zero", w1.failed == 0, "failed passes: %d", w1.failed)
	if cfg.trace {
		t.start()
		w2 := w.measure(cfg.window)
		t.stop()
		o.attempted += int64(len(w2.passes)) + w2.failed
		o.failed += w2.failed
		o.check("error_ratio_zero_traced", w2.failed == 0, "failed passes: %d", w2.failed)
		untraced, traced := w1.slices().opsPerSec, w2.slices().opsPerSec
		o.layer["trace.overhead_pct"] = 100 * ratio(untraced-traced, untraced)
		o.writeSpans(t, cfg)
	}
	w = nil
	runtime.GC()
	o.layer["runtime.goroutines_leaked"] = float64(goroutinesAfter(base))
	o.e2e["peak_rss_mb"] = peakRSSMB()
	return o
}

func (o *outcome) simEndToEnd(sw *simWindow) {
	passes := float64(len(sw.passes))
	o.attempted += int64(passes) + sw.failed
	o.failed += sw.failed
	sl := sw.slices()
	o.e2e["ops_s"] = sl.opsPerSec
	o.e2e["cpu_ms_per_op"] = sl.cpuPerOp
	o.e2e["count_p50_ms"], o.e2e["count_p99_ms"] = latencyMedians(sw.window, sw.passes)
	o.e2e["sim_passes_s"] = passes / sw.elapsed.Seconds()
	o.e2e["error_ratio"] = ratio(float64(sw.failed), passes+float64(sw.failed))
	o.e2e["est_rel_err"] = ratio(sw.relErr, passes*simMetrics)
	o.note("samples: pass n=%d over %.3f s", len(sw.passes), sw.elapsed.Seconds())
	o.costMetrics(sw.procA, sw.procB, passes)
}

func (o *outcome) simLayers(w *simWorld, sw *simWindow) {
	passes := float64(len(sw.passes))
	o.layer["core.lookups_per_pass"] = ratio(float64(sw.cost.Lookups), passes)
	o.layer["core.nodes_visited_per_pass"] = ratio(float64(sw.cost.NodesVisited), passes)
	o.layer["core.hops_per_pass"] = ratio(float64(sw.cost.Hops), passes)
	o.layer["core.model_bytes_per_pass"] = ratio(float64(sw.cost.Bytes), passes)
	o.layer["chord.routed_max_mean"] = deltaMaxMean(sw.before.routed, sw.after.routed)
	o.layer["store.probed_max_mean"] = deltaMaxMean(sw.before.probed, sw.after.probed)
	o.layer["store.tuples"] = float64(w.tuples())
}
