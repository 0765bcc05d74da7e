package main

import (
	"bufio"
	"strings"
	"testing"
)

// TestParse: result lines become records with the GOMAXPROCS suffix
// stripped from their names and recorded once in the document, header
// lines become metadata, and other lines are skipped.
func TestParse(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: dhsketch/internal/wire
cpu: Intel(R) Xeon(R) Processor
BenchmarkProbeReq/encode/span=11-2   	 1000	  57.29 ns/op	  24 B/op	   1 allocs/op
BenchmarkClientCount/nodes=16/warm-2 	   50	 177483 ns/op	 148.0 bytes/op	 2.000 probes/op
PASS
ok  	dhsketch/internal/wire	0.042s
`
	doc, err := parse(bufio.NewScanner(strings.NewReader(out)))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GOOS != "linux" || doc.CPU != "Intel(R) Xeon(R) Processor" || doc.GOMAXPROCS != 2 {
		t.Errorf("metadata: %+v", doc)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[1]
	if b.Name != "BenchmarkClientCount/nodes=16/warm" || b.Pkg != "dhsketch/internal/wire" ||
		b.Iterations != 50 || b.Metrics["bytes/op"] != 148 || b.Metrics["probes/op"] != 2 {
		t.Errorf("record: %+v", b)
	}

	// The testing package omits the suffix when GOMAXPROCS is 1.
	doc, err = parse(bufio.NewScanner(strings.NewReader("BenchmarkX 10 5.0 ns/op\n")))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GOMAXPROCS != 1 || doc.Benchmarks[0].Name != "BenchmarkX" {
		t.Errorf("unsuffixed run: %+v", doc)
	}
}
