package netdht

import (
	"encoding/json"
	"net"
	"sync"
	"testing"
	"time"

	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
)

// slowEchoServer accepts connections and answers every frame with a
// pong after holding it for delay — a stand-in peer that makes RPC
// serialization visible as wall-clock time.
func slowEchoServer(t *testing.T, delay time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				for {
					if _, err := readFrame(c); err != nil {
						return
					}
					time.Sleep(delay)
					if err := writeFrame(c, encodePong()); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestPeerPoolParallelExchanges pins the PR-10 throughput fix: with a
// pool width of 2, two concurrent exchanges toward the same peer ride
// disjoint sockets and overlap in time, while a width-1 pool (the old
// hard cap) serializes them.
func TestPeerPoolParallelExchanges(t *testing.T) {
	const delay = 150 * time.Millisecond
	addr := slowEchoServer(t, delay)

	elapsed := func(width int) time.Duration {
		p := newPeerPool(time.Second, 5*time.Second, width)
		defer p.close()
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := p.exchange(addr, encodePing()); err != nil {
					t.Errorf("exchange: %v", err)
				}
			}()
		}
		wg.Wait()
		return time.Since(start)
	}

	if d := elapsed(2); d >= 2*delay {
		t.Errorf("width-2 pool took %v for two concurrent %v exchanges; want overlap (< %v)", d, delay, 2*delay)
	}
	if d := elapsed(1); d < 2*delay {
		t.Errorf("width-1 pool took %v; want serialized (>= %v)", d, 2*delay)
	}
}

// TestPeerPoolRespectsWidth: hammering one peer with many concurrent
// exchanges never opens more sockets than the configured width.
func TestPeerPoolRespectsWidth(t *testing.T) {
	addr := slowEchoServer(t, 20*time.Millisecond)
	p := newPeerPool(time.Second, 5*time.Second, 3)
	defer p.close()
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.exchange(addr, encodePing()); err != nil {
				t.Errorf("exchange: %v", err)
			}
		}()
	}
	wg.Wait()
	if n := p.size(); n > 3 {
		t.Errorf("pool opened %d sockets toward one peer; width is 3", n)
	}
}

// TestConcurrentCountSharedClient runs many goroutines through one
// shared Client against a live cluster — the dhsd serving shape — and
// checks every pass lands inside the estimator's error envelope. Run
// under -race this pins the scan state, RNG, and pool for data races.
func TestConcurrentCountSharedClient(t *testing.T) {
	env := sim.NewEnv(7)
	cl := newTestCluster(t, env, 4)
	settleCluster(t, cl, env)
	entry := cl.Servers()[0].Addr()

	c, err := NewClient(ClientConfig{
		Entry: entry, K: 16, M: 64, Kind: sketch.KindSuperLogLog,
		Lim: 5, Seed: 42, DialTimeout: time.Second, RPCTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()

	const items = 400
	for i := 0; i < items; i++ {
		if err := c.Insert(99, uint64(i)*0x9e3779b97f4a7c15+1); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	var wg sync.WaitGroup
	results := make([]CountResult, 8)
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = c.Count(99)
		}(g)
	}
	wg.Wait()
	for g := range results {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: Count: %v", g, errs[g])
		}
		re := results[g].Estimate/items - 1
		if re < 0 {
			re = -re
		}
		// Sanity envelope only: each pass draws fresh random probe
		// targets, and an interval's tuples are scattered over several
		// owners (inserts pick random targets too), so a pass can miss
		// owners and land well off true — on top of m=64's estimator
		// variance at ~6 items/vector. The test pins race-freedom and
		// a sane order of magnitude, not accuracy (the simulator's
		// experiments pin accuracy deterministically).
		if re > 1.5 {
			t.Errorf("goroutine %d: estimate %.0f (true %d, rel err %.2f) outside envelope", g, results[g].Estimate, items, re)
		}
		if results[g].Degraded {
			t.Errorf("goroutine %d: degraded pass on a healthy ring: %+v", g, results[g])
		}
	}
}

// TestConcurrentCountSurvivesCrash crashes a ring member while many
// goroutines count through one shared client: every pass must return
// (degraded at worst), never deadlock or race, and the shared owner
// cache keeps its invariants throughout — at most one arc per owner and
// no two arcs overlapping.
func TestConcurrentCountSurvivesCrash(t *testing.T) {
	env := sim.NewEnv(11)
	cl := newTestCluster(t, env, 4)
	settleCluster(t, cl, env)
	servers := cl.Servers()
	entry := servers[0].Addr()

	c, err := NewClient(ClientConfig{
		Entry: entry, K: 16, M: 64, Kind: sketch.KindSuperLogLog,
		Lim: 3, Seed: 5, Retries: 1, Backoff: time.Millisecond,
		DialTimeout: 500 * time.Millisecond, RPCTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()
	for i := 0; i < 200; i++ {
		if err := c.Insert(7, uint64(i)*0x2545f4914f6cdd1d+3); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				// The counting contract under faults: return, never abort.
				c.Count(7)
			}
		}()
	}
	done := make(chan struct{})
	checked := make(chan struct{})
	go func() {
		defer close(checked)
		for {
			if err := checkOwnerCache(&c.owners); err != nil {
				t.Error(err)
				return
			}
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	// Crash a non-entry member mid-run.
	time.Sleep(10 * time.Millisecond)
	cl.Crash(servers[2])
	wg.Wait()
	close(done)
	<-checked
	if err := checkOwnerCache(&c.owners); err != nil {
		t.Error(err)
	}
}

// TestCountResultJSONShape pins the machine-readable encoding that
// `dhsnode count -json`, dhsd, and dhsload all emit.
func TestCountResultJSONShape(t *testing.T) {
	b, err := json.Marshal(CountResult{Estimate: 12.5, ProbesAttempted: 9, ProbesFailed: 1, IntervalsSkipped: 2, Degraded: true})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"estimate":12.5,"probes_attempted":9,"probes_failed":1,"intervals_skipped":2,"degraded":true}`
	if string(b) != want {
		t.Errorf("CountResult JSON = %s, want %s", b, want)
	}
}
