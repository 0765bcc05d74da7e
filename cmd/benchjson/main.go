// Command benchjson converts `go test -bench` text output on stdin into
// a machine-readable JSON document on stdout, so benchmark runs can be
// committed as perf-trajectory points (BENCH_*.json) and diffed across
// revisions by tools instead of eyeballs.
//
//	go test -run=NONE -bench=. -benchtime=2s . ./internal/store | go run ./cmd/benchjson -benchtime=2s
//
// Each benchmark result line becomes one record: the benchmark name
// (GOMAXPROCS suffix stripped, so trajectories compare across machines),
// the package it lives in, the iteration count, and every value/unit
// pair — the standard ns/op, B/op, allocs/op plus any custom
// b.ReportMetric units (hops/pass, est@metric0, ...). Header lines
// (goos, goarch, cpu) are carried through as environment metadata, and
// the run protocol is recorded beside them: the -benchtime the run used
// (passed through the flag of the same name, since the test output does
// not state it), GOMAXPROCS (read from the benchmark names' suffix; the
// testing package omits it when it is 1) and the Go version (that of the
// toolchain running benchjson — `go run` it with the toolchain that ran
// the benchmarks). The output contains nothing run-dependent beyond the
// measurements and that protocol — no timestamps — so re-runs diff
// cleanly.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

type benchmark struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type document struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchtime  string      `json:"benchtime,omitempty"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	GoVersion  string      `json:"go_version"`
	Benchmarks []benchmark `json:"benchmarks"`
}

func main() {
	benchtime := flag.String("benchtime", "", "the -benchtime the benchmarks ran with, recorded in the JSON")
	flag.Parse()
	doc, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	doc.Benchtime, doc.GoVersion = *benchtime, runtime.Version()
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func parse(sc *bufio.Scanner) (*document, error) {
	doc := &document{GOMAXPROCS: 1}
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseResult(line)
			if !ok {
				continue
			}
			if len(doc.Benchmarks) == 0 {
				_, doc.GOMAXPROCS = splitProcs(strings.Fields(line)[0])
			}
			b.Pkg = pkg
			doc.Benchmarks = append(doc.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines on stdin")
	}
	return doc, nil
}

// parseResult decodes one result line: the benchmark name, the iteration
// count, then (value, unit) pairs.
//
//	BenchmarkProbeReply-8   42064866   56.23 ns/op   0 B/op   0 allocs/op
func parseResult(line string) (benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchmark{}, false
	}
	name, _ := splitProcs(fields[0])
	b := benchmark{
		Name:       name,
		Iterations: iters,
		Metrics:    make(map[string]float64, (len(fields)-2)/2),
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

// splitProcs splits off the trailing -GOMAXPROCS suffix the testing
// package appends to benchmark names, returning the base name and the
// GOMAXPROCS the suffix records — 1 when there is none, since the
// testing package omits it for 1.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 1
	}
	return name[:i], n
}
