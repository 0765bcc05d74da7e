package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dhsketch/internal/netdht"
	"dhsketch/internal/serve"
)

// traceDir holds the span files, under the build directory run.sh uses.
const traceDir = ".bench_build/traces"

// Span kinds, one per layer boundary the benchmark's own code wraps.
const (
	spanOp      uint8 = iota // a client call: HTTP GET, Client.Insert or CountAllFrom
	spanHandler              // the http.Handler serve.NewHandler returns
	spanCount                // the serve.Counter passed to serve.New
)

var spanNames = [...]string{"op", "serve.handler", "netdht.count"}

// Answer sources a handler span records, as in X-Dhs-Source.
var sourceNames = [...]string{"", serve.SourceDirect, serve.SourceCache, serve.SourceCoalesced}

func sourceOf(header string) uint8 {
	for i, name := range sourceNames {
		if i > 0 && name == header {
			return uint8(i)
		}
	}
	return 0
}

// reqHeader carries the generator's request id to the handler span.
const reqHeader = "X-Perfbench-Req"

// span is one timed call. req links an op to its handler span; a count
// span finds its handler by metric, source and time after the run. It
// holds no pointers, so a full buffer costs the garbage collector
// nothing to scan.
type span struct {
	req    uint64
	metric uint64
	start  time.Duration // since the traced window began
	end    time.Duration
	parent int32 // index into the span list, -1 for none
	kind   uint8
	source uint8 // handler spans: index into sourceNames
}

func (s span) dur() time.Duration { return s.end - s.start }

// spanCapacity bounds the spans one run keeps. The buffer is allocated
// before the untraced window, so both windows run with the same heap and
// the tracing overhead is not confounded with garbage-collector pacing;
// spans past it are counted and dropped.
const spanCapacity = 1 << 18

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, spanCapacity)} }

// start makes t the active tracer; its clock starts now.
func (t *tracer) start() {
	t.epoch = time.Now()
	activeTracer.Store(t)
}

func (t *tracer) stop() { activeTracer.Store(nil) }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// activeTracer is set only during a traced window; with it nil every
// wrapper costs one atomic load.
var activeTracer atomic.Pointer[tracer]

// tracedHandler wraps the frontend's HTTP surface in serve.handler spans.
type tracedHandler struct{ next http.Handler }

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := activeTracer.Load()
	if t == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	start := t.now()
	h.next.ServeHTTP(w, r)
	req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64) // no header: request id 0, left unlinked
	t.add(span{
		kind: spanHandler, req: req, start: start, end: t.now(),
		metric: metricIDOf(r.URL.Query().Get("metric")), source: sourceOf(w.Header().Get("X-Dhs-Source")),
	})
}

// fanoutTally is what the benchmark reads off every successful ring
// fan-out; it is kept in every window, traced or not.
type fanoutTally struct {
	passes, attempted atomic.Int64
}

// countingCounter is the serve.Counter handed to serve.New: the client's
// Count, tallied, and wrapped in netdht.count spans while tracing.
type countingCounter struct {
	client *netdht.Client
	tally  fanoutTally
}

var _ serve.Counter = (*countingCounter)(nil)

func (c *countingCounter) Count(metric uint64) (netdht.CountResult, error) {
	t := activeTracer.Load()
	var start time.Duration
	if t != nil {
		start = t.now()
	}
	res, err := c.client.Count(metric)
	if t != nil {
		t.add(span{kind: spanCount, metric: metric, start: start, end: t.now()})
	}
	if err == nil {
		c.tally.passes.Add(1)
		c.tally.attempted.Add(int64(res.ProbesAttempted))
	}
	return res, err
}

// traceSummary is what the per-layer metrics take from the spans.
type traceSummary struct {
	transport   []time.Duration // op minus its handler span
	handlerSelf []time.Duration // handler minus the fan-out it covers
	fanouts     []time.Duration
	linked      int // count spans that found their handler
}

// link resolves parents (op → handler by request id; count → the direct
// handler of the same metric that contains it) and derives self times.
// A span's self time is its duration minus the time its children cover.
func (t *tracer) link() traceSummary {
	spans := t.spans
	ops := map[uint64]int{}
	byMetric := map[uint64][]int{} // direct handler spans, by start
	for i := range spans {
		spans[i].parent = -1
		switch spans[i].kind {
		case spanOp:
			if spans[i].req != 0 {
				ops[spans[i].req] = i
			}
		case spanHandler:
			if sourceNames[spans[i].source] == serve.SourceDirect {
				byMetric[spans[i].metric] = append(byMetric[spans[i].metric], i)
			}
		}
	}
	for _, hs := range byMetric {
		sort.Slice(hs, func(a, b int) bool { return spans[hs[a]].start < spans[hs[b]].start })
	}
	covered := make([]time.Duration, len(spans))
	var sum traceSummary
	for i := range spans {
		s := spans[i]
		switch s.kind {
		case spanHandler:
			if p, ok := ops[s.req]; ok && s.req != 0 {
				spans[i].parent = int32(p)
				covered[p] += s.dur()
			}
		case spanCount:
			sum.fanouts = append(sum.fanouts, s.dur())
			hs := byMetric[s.metric]
			// The innermost container is the latest-starting one.
			k := sort.Search(len(hs), func(j int) bool { return spans[hs[j]].start > s.start }) - 1
			for ; k >= 0; k-- {
				h := spans[hs[k]]
				if h.end >= s.end {
					spans[i].parent = int32(hs[k])
					covered[hs[k]] += s.dur()
					sum.linked++
					break
				}
			}
		}
	}
	for i, s := range spans {
		switch {
		case s.kind == spanOp && covered[i] > 0:
			sum.transport = append(sum.transport, s.dur()-covered[i])
		case s.kind == spanHandler:
			sum.handlerSelf = append(sum.handlerSelf, s.dur()-covered[i])
		}
	}
	sortDurations(sum.transport)
	sortDurations(sum.handlerSelf)
	sortDurations(sum.fanouts)
	return sum
}

// writeSpans writes the run's spans and notes where they went.
func (o *outcome) writeSpans(t *tracer, cfg runConfig) {
	path, err := t.write(cfg)
	if err != nil {
		o.note("spans: not written: %v", err)
		return
	}
	o.note("spans: %d written to %s, %d dropped past the %d-span buffer", len(t.spans), path, t.dropped, spanCapacity)
}

// write stores the spans as JSON lines under traceDir, one file per
// workload and seed, after a first line holding the run's protocol.
func (t *tracer) write(cfg runConfig) (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]string{"protocol": cfg.protocol}); err != nil {
		f.Close()
		return "", fmt.Errorf("trace file: %w", err)
	}
	// One object per span: index, parent index (-1: none), name, request
	// id, metric id, start and end in microseconds since the traced
	// window began, and the answer's source for handler spans.
	type line struct {
		ID      int    `json:"id"`
		Parent  int32  `json:"parent"`
		Name    string `json:"name"`
		Req     uint64 `json:"req,omitempty"`
		Metric  uint64 `json:"metric,omitempty"`
		StartUS int64  `json:"start_us"`
		EndUS   int64  `json:"end_us"`
		Source  string `json:"source,omitempty"`
	}
	for i, s := range t.spans {
		if err := enc.Encode(line{i, s.parent, spanNames[s.kind], s.req, s.metric,
			s.start.Microseconds(), s.end.Microseconds(), sourceNames[s.source]}); err != nil {
			f.Close()
			return "", fmt.Errorf("trace file: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	return path, nil
}
