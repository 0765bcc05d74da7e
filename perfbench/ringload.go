package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dhsketch/internal/netdht"
	"dhsketch/internal/serve"
)

// answerTally counts /count outcomes; each worker keeps its own.
type answerTally struct {
	requests, ok            int64
	cache, coalesced        int64
	degraded                int64
	shed, non200, transport int64
	undecodable             int64
	relErrSum               float64
	relErrN                 int64
}

func (a *answerTally) add(b answerTally) {
	a.requests += b.requests
	a.ok += b.ok
	a.cache += b.cache
	a.coalesced += b.coalesced
	a.degraded += b.degraded
	a.shed += b.shed
	a.non200 += b.non200
	a.transport += b.transport
	a.undecodable += b.undecodable
	a.relErrSum += b.relErrSum
	a.relErrN += b.relErrN
}

func (a answerTally) failed() int64 { return a.shed + a.non200 + a.transport + a.undecodable }

var errAnswer = errors.New("/count answer failed")

// nextReq numbers requests so op and handler spans can be joined.
var nextReq atomic.Uint64

// get sends one GET /count, checks the answer and tallies it. The body
// must decode as exactly a netdht.CountResult.
func (rs *ringSystem) get(m *metricState, req uint64, tally *answerTally) (time.Duration, error) {
	tally.requests++
	truth := m.truth.Load()
	hreq, err := http.NewRequest(http.MethodGet, rs.url+"/count?metric="+m.name, nil)
	if err != nil {
		tally.transport++
		return 0, err
	}
	hreq.Header.Set(reqHeader, strconv.FormatUint(req, 10))
	t := activeTracer.Load()
	var spanStart time.Duration
	if t != nil {
		spanStart = t.now()
	}
	start := time.Now()
	resp, err := rs.hc.Do(hreq)
	if err != nil {
		tally.transport++
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if t != nil {
		t.add(span{kind: spanOp, req: req, metric: m.id, start: spanStart, end: t.now()})
	}
	switch {
	case err != nil:
		tally.transport++
		return 0, err
	case resp.StatusCode == http.StatusTooManyRequests:
		tally.shed++
		return 0, fmt.Errorf("%w: shed", errAnswer)
	case resp.StatusCode != http.StatusOK:
		tally.non200++
		return 0, fmt.Errorf("%w: status %d", errAnswer, resp.StatusCode)
	}
	var res netdht.CountResult
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil || dec.More() {
		tally.undecodable++
		return 0, fmt.Errorf("%w: body %q is not a CountResult", errAnswer, body)
	}
	tally.ok++
	if res.Degraded {
		tally.degraded++
	}
	switch resp.Header.Get("X-Dhs-Source") {
	case serve.SourceCache:
		tally.cache++
	case serve.SourceCoalesced:
		tally.coalesced++
	case serve.SourceDirect:
		tally.relErrSum += math.Abs(res.Estimate-float64(truth)) / float64(truth)
		tally.relErrN++
	}
	return lat, nil
}

// insert is the writer's op: a new item or, half the time, one written
// before, which refreshes its tuple (§3.3). Only the writer goroutine
// moves a metric's truth.
func (rs *ringSystem) insert(rng *rand.Rand) error {
	m := rs.spec.metrics[rng.IntN(len(rs.spec.metrics))]
	n := m.truth.Load()
	j, fresh := n, true
	if rng.IntN(2) == 0 {
		j, fresh = rng.Int64N(n), false
	}
	t := activeTracer.Load()
	var start time.Duration
	if t != nil {
		start = t.now()
	}
	err := rs.writer.Insert(m.id, m.item(rs.spec.seed, j))
	if t != nil {
		t.add(span{kind: spanOp, metric: m.id, start: start, end: t.now()})
	}
	if err == nil && fresh {
		m.truth.Store(n + 1)
	}
	return err
}

// ringSnap is every counter the benchmark reads at a window boundary.
type ringSnap struct {
	client, writer, servers scrape
	status                  []netdht.Status
	passes, attempted       int64
	proc                    procSample
}

func (rs *ringSystem) snap() ringSnap {
	s := ringSnap{
		client:    scrapeOf(rs.reg),
		writer:    scrapeOf(rs.writerReg),
		servers:   scrapeAll(rs.regs),
		passes:    rs.counter.tally.passes.Load(),
		attempted: rs.counter.tally.attempted.Load(),
	}
	for _, sv := range rs.servers {
		s.status = append(s.status, sv.Status())
	}
	s.proc = sampleProc()
	return s
}

// ringWindow is one measured window.
type ringWindow struct {
	window        time.Duration // nominal length
	elapsed       time.Duration // until the last op returned
	reads, writes []opSample    // successful ops
	answers       answerTally
	writeAttempts int64
	writeFailures int64
	cpu           []time.Duration // process CPU at the slice boundaries
	before, after ringSnap
}

func (w *ringWindow) ops() float64 { return float64(len(w.reads) + len(w.writes)) }

func (w *ringWindow) slices() sliced {
	return sliceMedians(w.window, w.cpu, append(append([]opSample(nil), w.reads...), w.writes...))
}

// measure runs the closed-loop clients for the window: readers send
// GET /count, the writer (if any) calls Client.Insert back to back. An
// op is issued only before the deadline; the window ends when the last
// one returns.
func (rs *ringSystem) measure(window time.Duration, salt uint64) *ringWindow {
	w := &ringWindow{window: window}
	runtime.GC() // every window starts from the same heap state: set-up garbage collected
	w.before = rs.snap()
	start := time.Now()
	deadline := start.Add(window)
	cpu := cpuAtSlices(start, window)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for r := 0; r < rs.spec.readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(rs.spec.seed, salt<<8|uint64(r)))
			pick := rs.spec.picker(rng)
			var tally answerTally
			var done []opSample
			for time.Now().Before(deadline) {
				lat, err := rs.get(rs.spec.metrics[pick()], nextReq.Add(1), &tally)
				if err == nil {
					done = append(done, opSample{time.Since(start), lat})
				}
			}
			mu.Lock()
			w.answers.add(tally)
			w.reads = append(w.reads, done...)
			mu.Unlock()
		}()
	}
	if rs.writer != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(rs.spec.seed, salt<<8|0xff))
			var done []opSample
			var attempts, failures int64
			for time.Now().Before(deadline) {
				t0 := time.Now()
				attempts++
				if err := rs.insert(rng); err != nil {
					failures++
					continue
				}
				done = append(done, opSample{time.Since(start), time.Since(t0)})
			}
			mu.Lock()
			w.writes, w.writeAttempts, w.writeFailures = done, attempts, failures
			mu.Unlock()
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.cpu = cpu()
	w.after = rs.snap()
	return w
}

// runRing builds the ring workload setupReps times, measures the last
// build and tears it down.
func runRing(spec ringSpec, cfg runConfig) *outcome {
	o := newOutcome()
	base := runtime.NumGoroutine()
	var rs *ringSystem
	for i := 0; i < setupReps; i++ {
		if rs != nil {
			rs.close()
		}
		t0 := time.Now()
		var err error
		if rs, err = startRing(spec); err != nil {
			o.setupErr = err
			return o
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
	}
	o.e2e["setup_s"] = median(o.setupS)

	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	w1 := rs.measure(cfg.window, 1)
	o.ringEndToEnd(w1)
	o.ringChecks(rs, w1)
	if cfg.trace {
		t.start()
		w2 := rs.measure(cfg.window, 2)
		t.stop()
		o.addAttempts(w2)
		o.windowChecks("_traced", w2)
		idle := rs.idleFindSuccRate(time.Second)
		o.ringLayers(w1, idle)
		o.traceLayers(t, w1.slices().opsPerSec, w2.slices().opsPerSec)
		o.budget()
		o.writeSpans(t, cfg)
	}
	if rs.writer != nil {
		o.finalCounts(rs)
	}
	rs.close()
	o.layer["runtime.goroutines_leaked"] = float64(goroutinesAfter(base))
	o.e2e["peak_rss_mb"] = peakRSSMB()
	return o
}

func (o *outcome) addAttempts(w *ringWindow) {
	o.attempted += w.answers.requests + w.writeAttempts
	o.failed += w.answers.failed() + w.writeFailures
}

// ringEndToEnd fills the end-to-end metrics from the untraced window:
// the op rate, CPU per op and /count latency as medians over its slices,
// the workload-specific figures over the whole window.
func (o *outcome) ringEndToEnd(w *ringWindow) {
	o.addAttempts(w)
	sl := w.slices()
	o.e2e["ops_s"] = sl.opsPerSec
	o.e2e["cpu_ms_per_op"] = sl.cpuPerOp
	o.e2e["count_p50_ms"], o.e2e["count_p99_ms"] = latencyMedians(w.window, w.reads)
	secs := w.elapsed.Seconds()
	o.e2e["count_qps"] = float64(len(w.reads)) / secs
	o.note("samples: count n=%d over %.3f s", len(w.reads), secs)
	if w.writeAttempts > 0 {
		writes := latencies(w.writes)
		o.e2e["insert_ops_s"] = float64(len(writes)) / secs
		o.e2e["insert_p50_ms"] = ms(percentile(writes, 0.50))
		o.e2e["insert_p99_ms"] = ms(percentile(writes, 0.99))
		o.note("samples: insert n=%d", len(writes))
	}
	attempts := float64(w.answers.requests + w.writeAttempts)
	o.e2e["error_ratio"] = ratio(float64(w.answers.failed()+w.writeFailures), attempts)
	o.e2e["degraded_ratio"] = ratio(float64(w.answers.degraded), float64(w.answers.ok))
	o.e2e["est_rel_err"] = ratio(w.answers.relErrSum, float64(w.answers.relErrN))
	o.costMetrics(w.before.proc, w.after.proc, w.ops())
}

// windowChecks gates one window's answers: every body decodes and no
// op fails on the clean loopback ring.
func (o *outcome) windowChecks(label string, w *ringWindow) {
	a := w.answers
	o.check("bodies_decode"+label, a.undecodable == 0 && a.ok > 0,
		"%d of %d answers with status 200 decode as a CountResult", a.ok, a.ok+a.undecodable)
	o.check("error_ratio_zero"+label, a.failed()+w.writeFailures == 0,
		"transport %d, non-200 %d, shed %d, undecodable %d, insert errors %d",
		a.transport, a.non200, a.shed, a.undecodable, w.writeFailures)
}

// ringChecks gates the untraced window: the checks every window gets,
// the accuracy envelope, and the layer separation the workload was
// chosen for.
func (o *outcome) ringChecks(rs *ringSystem, w *ringWindow) {
	a := w.answers
	o.windowChecks("", w)
	o.check("est_rel_err_envelope", a.relErrN > 0 && o.e2e["est_rel_err"] <= meanErrLimit,
		"est_rel_err=%.4f over %d fan-out answers, limit 3x1.05/sqrt(m)=%.4f", o.e2e["est_rel_err"], a.relErrN, meanErrLimit)
	hit := ratio(float64(a.cache), float64(a.ok))
	o.check("cache_hit_ratio", hit >= rs.spec.minHit && hit <= rs.spec.maxHit,
		"serve.cache_hit_ratio=%.4f, workload needs [%g, %g]", hit, rs.spec.minHit, rs.spec.maxHit)
	if rs.spec.cacheTTL == 0 {
		fpr := ratio(float64(w.after.passes-w.before.passes), float64(a.requests))
		o.check("fanouts_per_req", fpr >= 0.9,
			"serve.fanouts_per_req=%.4f with the cache off, needs >= 0.9", fpr)
	}
}

// finalCountRepeats is how many direct counts of each written metric
// the final check averages, so one unlucky probe sequence cannot fail it.
const finalCountRepeats = 4

// finalCounts checks, after the writer stopped, that direct counts of
// every written metric land within the envelope of its distinct items.
func (o *outcome) finalCounts(rs *ringSystem) {
	worst, bad := 0.0, 0
	for _, m := range rs.spec.metrics {
		truth := float64(m.truth.Load())
		sum, rel := 0.0, math.Inf(1)
		for i := 0; i < finalCountRepeats; i++ {
			res, err := rs.client.Count(m.id)
			if err != nil {
				sum = math.Inf(1)
				break
			}
			sum += res.Estimate
		}
		if !math.IsInf(sum, 1) {
			rel = math.Abs(sum/finalCountRepeats-truth) / truth
		}
		worst = math.Max(worst, rel)
		if rel > singleErrLimit {
			bad++
		}
	}
	o.check("final_counts_envelope", bad == 0,
		"%d of %d written metrics' mean of %d counts outside 4x1.05/sqrt(m)=%.4f; worst relative error %.4f",
		bad, len(rs.spec.metrics), finalCountRepeats, singleErrLimit, worst)
}

// idleFindSuccRate is the ring's find_succ traffic with no client load:
// the fix-fingers rounds' routing, subtracted before hops are shared out
// among passes and inserts.
func (rs *ringSystem) idleFindSuccRate(d time.Duration) float64 {
	before := scrapeAll(rs.regs)
	start := time.Now()
	time.Sleep(d)
	delta := scrapeAll(rs.regs).minus(before)
	return delta[`netdht_rpc_requests_total{tag="find_succ"}`] / time.Since(start).Seconds()
}
