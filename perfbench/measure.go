package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dhsketch/internal/metrics"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload leaves idle).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// scrape is one registry's Prometheus exposition parsed into series
// values keyed by "name{labels}" — what an operator's scraper reads.
type scrape map[string]float64

func scrapeOf(reg *metrics.Registry) scrape {
	var buf bytes.Buffer
	reg.WritePrometheus(&buf) // a bytes.Buffer write cannot fail
	s := scrape{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			s[line[:i]] += v
		}
	}
	return s
}

// scrapeAll sums the scrapes of several registries series by series.
func scrapeAll(regs []*metrics.Registry) scrape {
	sum := scrape{}
	for _, r := range regs {
		for k, v := range scrapeOf(r) {
			sum[k] += v
		}
	}
	return sum
}

// minus returns the change from before to s, series by series.
func (s scrape) minus(before scrape) scrape {
	d := scrape{}
	for k, v := range s {
		d[k] = v - before[k]
	}
	return d
}

// prefixSum adds every series whose key starts with prefix.
func (s scrape) prefixSum(prefix string) float64 {
	t := 0.0
	for k, v := range s {
		if strings.HasPrefix(k, prefix) {
			t += v
		}
	}
	return t
}

// meanUS is a histogram family's mean observation in microseconds,
// from its _sum (seconds) and _count series for one label set.
func (s scrape) meanUS(family, labels string) float64 {
	return 1e6 * ratio(s[family+"_sum"+labels], s[family+"_count"+labels])
}

// sliceCount is how many equal slices a measured window is cut into.
// The op rate and CPU per op are reported as their median over the
// slices, and latency percentiles as their median over as many slices as
// the sample count allows, so a burst of interference from outside the
// process moves them less than it would move a whole-window figure.
const sliceCount = 10

// opSample is one completed op: when it completed, measured from the
// start of the window, and how long it took.
type opSample struct {
	at, lat time.Duration
}

// latencies returns the ops' latencies, sorted.
func latencies(ss []opSample) []time.Duration {
	d := make([]time.Duration, len(ss))
	for i, s := range ss {
		d[i] = s.lat
	}
	sortDurations(d)
	return d
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF on a valid struct cannot fail
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuAtSlices reads the process CPU time at each of the window's slice
// boundaries, from a goroutine that ends at the window's end; the
// returned function waits for it and returns the sliceCount+1 readings.
func cpuAtSlices(start time.Time, window time.Duration) func() []time.Duration {
	cpu := make([]time.Duration, sliceCount+1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range cpu {
			time.Sleep(time.Until(start.Add(window * time.Duration(i) / sliceCount)))
			cpu[i] = processCPU()
		}
	}()
	return func() []time.Duration {
		<-done
		return cpu
	}
}

// minTailSamples is the fewest samples a slice needs for its p99 to have
// ten samples beyond it.
const minTailSamples = 1000

// latencyMedians returns the p50 and p99 of ops' latencies in ms, each
// as its median over g equal slices of the window by completion time,
// where g = len(ops)/minTailSamples, at least 1 and at most sliceCount:
// as many slices as keep ten samples beyond every slice's p99. An op
// completing after the window's end counts in the last slice.
func latencyMedians(window time.Duration, ops []opSample) (p50, p99 float64) {
	g := len(ops) / minTailSamples
	g = max(1, min(g, sliceCount))
	by := make([][]opSample, g)
	for _, s := range ops {
		i := min(int(int64(s.at)*int64(g)/int64(window)), g-1)
		by[i] = append(by[i], s)
	}
	var p50s, p99s []float64
	for _, part := range by {
		lat := latencies(part)
		p50s = append(p50s, ms(percentile(lat, 0.50)))
		p99s = append(p99s, ms(percentile(lat, 0.99)))
	}
	return median(p50s), median(p99s)
}

// sliced is a window's op rate and CPU cost as medians over its slices.
type sliced struct {
	opsPerSec float64 // ops completed per second
	cpuPerOp  float64 // ms of process CPU per op
}

// sliceMedians cuts the window into sliceCount slices by completion time;
// ops completing after the window's end are left out.
func sliceMedians(window time.Duration, cpu []time.Duration, ops []opSample) sliced {
	width := window / sliceCount
	counts := make([]float64, sliceCount)
	for _, s := range ops {
		if i := int(s.at / width); i < sliceCount {
			counts[i]++
		}
	}
	var rates, costs []float64
	for i, n := range counts {
		rates = append(rates, n/width.Seconds())
		costs = append(costs, ratio(ms(cpu[i+1]-cpu[i]), n))
	}
	return sliced{median(rates), median(costs)}
}

// procSample is the process-wide cost counters at one instant.
type procSample struct {
	utime   time.Duration
	stime   time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

func sampleProc() procSample {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF on a valid struct cannot fail
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		utime:   time.Duration(ru.Utime.Nano()),
		stime:   time.Duration(ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcs:     ms.NumGC,
	}
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// openSockets counts the process's socket descriptors, or -1 where
// /proc/self/fd cannot be read.
func openSockets() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	n := 0
	for _, e := range ents {
		if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && strings.HasPrefix(target, "socket:") {
			n++
		}
	}
	return n
}

// goroutinesAfter waits up to two seconds for the goroutine count to fall
// back to base after a teardown and returns how many remain above it.
func goroutinesAfter(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine() - base
		if n <= 0 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// costMetrics fills the runtime.* per-layer metrics for ops completed
// between two process samples.
func (o *outcome) costMetrics(a, b procSample, ops float64) {
	user, sys := b.utime-a.utime, b.stime-a.stime
	o.layer["runtime.cpu_user_ms_per_op"] = ratio(ms(user), ops)
	o.layer["runtime.cpu_sys_ms_per_op"] = ratio(ms(sys), ops)
	o.layer["runtime.allocs_per_op"] = ratio(float64(b.mallocs-a.mallocs), ops)
	o.layer["runtime.alloc_bytes_per_op"] = ratio(float64(b.bytes-a.bytes), ops)
	o.layer["runtime.gc_per_kop"] = ratio(1000*float64(b.gcs-a.gcs), ops)
}
