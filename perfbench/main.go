// Command perfbench is the repository's benchmark. One run brings up one
// workload's system in-process, drives it over loopback for a fixed
// window, checks the answers, and prints every metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 a traced window follows the untraced one;
// the metrics are then the per-layer ones, plus the tracing overhead.
// run.sh builds the command from the checkout's sources and runs it:
//
//	bash perfbench/run.sh --workload count-cold --seed 1 --seconds 20 --trace 1
//
// --workload all runs every workload in turn. The exit status is 1 when
// a correctness check fails and 2 on a usage or set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// setupReps is how many times a run builds its system. setup_s is the
// median; every build but the last is torn down again.
const setupReps = 3

// runConfig is what every workload receives: the seed its inputs derive
// from, the measured window, whether a traced window follows, the
// number of load-generating goroutines (the machine's CPU count) and the
// workload's name and protocol line, which head its span file.
type runConfig struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	clients  int
	protocol string
}

// workload is one traffic mix. run builds the system setupReps times,
// measures it and tears it down.
type workload struct {
	name    string
	clients func(runConfig) int
	why     string
	run     func(runConfig) *outcome
}

var workloads = []workload{
	{"count-cold", func(c runConfig) int { return c.clients },
		"closed loop, 2 clients (nproc): GET /count over 32 metrics, cache off; every answer is a ring fan-out, so the netdht client and servers, frames and store do the work",
		func(c runConfig) *outcome { return runRing(coldSpec(c.seed, c.clients), c) }},
	{"count-hot", func(c runConfig) int { return c.clients },
		"closed loop, 2 clients (nproc): GET /count, Zipf s=1.2 over 8 metrics, 1 s cache; serve and net/http do the work, the ring idles, so a ring-side change reads as none",
		func(c runConfig) *outcome { return runRing(hotSpec(c.seed, c.clients), c) }},
	{"ingest-mix", func(runConfig) int { return 2 },
		"closed loop, 2 clients: one Client.Insert writer (half repeats, the refresh path) beside one cache-off /count reader; writes and reads share routing and store",
		func(c runConfig) *outcome { return runRing(ingestSpec(c.seed), c) }},
	{"sim-count", func(runConfig) int { return 1 },
		"closed loop, 1 goroutine: 8-metric CountAllFrom passes on the simulated 1024-node ring; core, chord and store do all the work, no sockets, counts fixed per seed",
		runSim},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricValue is one entry of the result's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames()+", or all")
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", 20, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1: add a traced window and report the per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*name); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s, or all)\n", *name, workloadNames())
		os.Exit(2)
	}
	cfg := runConfig{
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		clients: runtime.NumCPU(),
	}

	final := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range selected {
		cfg.workload = w.name
		cfg.protocol = protocol(w, cfg)
		fmt.Println(cfg.protocol)
		fmt.Printf("why: %s\n", w.why)
		o := w.run(cfg)
		if o.setupErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, o.setupErr)
			os.Exit(2)
		}
		r := o.result(cfg.trace)
		o.print(w, cfg)
		if len(selected) == 1 {
			final = r
			break
		}
		final.Correct = final.Correct && r.Correct
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		for k, v := range r.Metrics {
			final.Metrics[w.name+"/"+k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// protocol records how a run is taken, so results taken under different
// protocols are never compared. Every workload's loop is closed.
func protocol(w workload, cfg runConfig) string {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("protocol: workload=%s go=%s gomaxprocs=%d nproc=%d cpu=%q commit=%s seed=%d seconds=%g trace=%v loop=closed clients=%d link=loopback",
		w.name, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(),
		commit, cfg.seed, cfg.window.Seconds(), cfg.trace, w.clients(cfg))
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// that file does not exist).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// check is one correctness condition of a run.
type check struct {
	name   string
	ok     bool
	detail string
}

// outcome is everything one workload run measured.
type outcome struct {
	setupErr  error
	setupS    []float64
	e2e       map[string]float64 // end-to-end metrics, untraced window
	layer     map[string]float64 // per-layer metrics (traced runs)
	extra     []string           // report lines: samples, budget, spans file
	checks    []check
	attempted int64
	failed    int64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (o *outcome) note(format string, args ...any) {
	o.extra = append(o.extra, fmt.Sprintf(format, args...))
}

// result builds the contract's JSON object: end-to-end metrics without
// tracing, per-layer metrics with it. Every metric in the table is
// present; a layer a workload does not exercise reads 0.
func (o *outcome) result(traced bool) result {
	r := result{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, c := range o.checks {
		r.Correct = r.Correct && c.ok
	}
	if r.Attempted < 1 {
		r.Attempted = 1
		r.Failed = 1
		r.Correct = false
	}
	if traced {
		for _, m := range layerMetrics {
			r.Metrics[m.name] = metricValue{o.layer[m.name], m.unit}
		}
		for _, m := range reportMetrics {
			r.Metrics[m.name] = metricValue{o.e2e[m.name], m.unit}
		}
	} else {
		for _, m := range e2eMetrics {
			r.Metrics[m.name] = metricValue{o.e2e[m.name], m.unit}
		}
	}
	return r
}

// print writes the human-readable report that precedes the JSON line.
func (o *outcome) print(w workload, cfg runConfig) {
	fmt.Printf("setup: %d builds, seconds %.3f\n", len(o.setupS), o.setupS)
	fmt.Println("end-to-end:")
	for _, m := range e2eMetrics {
		fmt.Printf("  %-26s %14.4f %-6s %s\n", m.name, o.e2e[m.name], m.unit, m.better)
	}
	for _, m := range reportMetrics {
		if v, ok := o.e2e[m.name]; ok {
			fmt.Printf("  %-26s %14.4f %-6s %s\n", m.name, v, m.unit, m.better)
		}
	}
	if cfg.trace {
		fmt.Println("per-layer (name, value, unit; the end-to-end metric it should move):")
		for _, m := range layerMetrics {
			fmt.Printf("  %-34s %14.4f %-6s %s\n", m.name, o.layer[m.name], m.unit, m.moves)
		}
	}
	for _, line := range o.extra {
		fmt.Println(line)
	}
	for _, c := range o.checks {
		verdict := "ok  "
		if !c.ok {
			verdict = "FAIL"
		}
		fmt.Printf("check %s %-28s %s\n", verdict, c.name, c.detail)
	}
	fmt.Printf("attempted=%d failed=%d workload=%s\n", o.attempted, o.failed, w.name)
}
