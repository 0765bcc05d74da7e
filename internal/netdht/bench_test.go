package netdht

import (
	"fmt"
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/metrics"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
)

// BenchmarkClientCount times one Count over a loopback Cluster, with
// the daemon's sketch geometry (k=16, m=64, super-LogLog, Lim=5) and
// default probe parallelism. The cold variant builds a new client per
// iteration — empty owner cache, no pooled sockets — so each pass
// routes to every owner it meets and dials it; the warm variant reuses
// one client, the serving shape. find_succ/op and probes/op are the
// client's RPCs per pass; bytes/op is the payload it sends and receives
// per pass, both directions summed.
func BenchmarkClientCount(b *testing.B) {
	for _, nodes := range []int{1, 5, 16} {
		for _, warm := range []bool{false, true} {
			name := fmt.Sprintf("nodes=%d/cold", nodes)
			if warm {
				name = fmt.Sprintf("nodes=%d/warm", nodes)
			}
			b.Run(name, func(b *testing.B) { benchClientCount(b, nodes, warm) })
		}
	}
}

func benchClientCount(b *testing.B, nodes int, warm bool) {
	cl, err := NewCluster(sim.NewEnv(1), nodes, chord.ProtocolConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	cfg := ClientConfig{Entry: cl.Servers()[0].Addr(), K: 16, M: 64, Kind: sketch.KindSuperLogLog, Lim: 5, Seed: 1}
	w, err := NewClient(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := w.Insert(7, uint64(i)*0x9e3779b97f4a7c15+1); err != nil {
			b.Fatal(err)
		}
	}
	w.Close()

	cfg.Metrics = metrics.New()
	newClient := func() *Client {
		c, err := NewClient(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	c := newClient()
	defer func() { c.Close() }()
	// Every client registers the same series in cfg.Metrics, so these
	// counters sum over all of them.
	lookups, probes := c.peers.m.rpcTotal[slotFindSucc], c.peers.m.rpcTotal[slotProbe]
	bytesMoved := func() uint64 { return c.peers.m.bytesOut.Value() + c.peers.m.bytesIn.Value() }
	if warm {
		if _, err := c.Count(7); err != nil {
			b.Fatal(err)
		}
	}
	lookups0, probes0, bytes0 := lookups.Value(), probes.Value(), bytesMoved()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !warm {
			c.Close()
			c = newClient()
		}
		if _, err := c.Count(7); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(lookups.Value()-lookups0)/float64(b.N), "find_succ/op")
	b.ReportMetric(float64(probes.Value()-probes0)/float64(b.N), "probes/op")
	b.ReportMetric(float64(bytesMoved()-bytes0)/float64(b.N), "bytes/op")
}
