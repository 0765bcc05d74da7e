package netdht

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"dhsketch/internal/hashutil"
	"dhsketch/internal/metrics"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
	"dhsketch/internal/wire"
)

// checkOwnerCache verifies the cache's structural invariants: arcs
// sorted by owner id with at most one per owner, and no two overlapping.
func checkOwnerCache(c *ownerCache) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, a := range c.arcs {
		if i > 0 && c.arcs[i-1].owner.id >= a.owner.id {
			return fmt.Errorf("arcs %d and %d out of order or same owner: %016x, %016x",
				i-1, i, c.arcs[i-1].owner.id, a.owner.id)
		}
		for _, b := range c.arcs[i+1:] {
			if a.overlaps(b) {
				return fmt.Errorf("arcs (%016x, %016x] and (%016x, %016x] overlap",
					a.pred, a.owner.id, b.pred, b.owner.id)
			}
		}
	}
	return nil
}

func cachedOwner(c *ownerCache, id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.search(id)
	return ok
}

// TestOwnerCacheArcs: lookups resolve through wrap-around and the
// whole-ring arc, a newly learned arc evicts every arc it overlaps and
// the owner's previous arc, and drop forgets exactly one owner.
func TestOwnerCacheArcs(t *testing.T) {
	ref := func(id uint64) nodeRef { return nodeRef{id: id, addr: fmt.Sprintf("n%d", id)} }
	var c ownerCache
	if _, ok := c.lookup(5); ok {
		t.Fatal("empty cache resolved a key")
	}

	c.learn(100, ref(100)) // whole ring
	if o, ok := c.lookup(5); !ok || o.owner.id != 100 {
		t.Fatalf("whole-ring arc: lookup(5) = %v, %v", o, ok)
	}

	// Three disjoint arcs covering the ring: (300, 100], (100, 200],
	// (200, 300]. The first wraps past zero. Learning them evicts the
	// whole-ring arc they overlap.
	c.learn(300, ref(100))
	c.learn(100, ref(200))
	c.learn(200, ref(300))
	if err := checkOwnerCache(&c); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[uint64]uint64{
		5: 100, 100: 100, 101: 200, 200: 200, 250: 300, 300: 300, 301: 100, ^uint64(0): 100,
	} {
		if o, ok := c.lookup(key); !ok || o.owner.id != want {
			t.Errorf("lookup(%d) = %v, %v; want owner %d", key, o, ok, want)
		}
	}

	// A node 250 joins: its arc (200, 250] overlaps 300's old arc, which
	// is evicted; keys there miss until 300 reports again.
	c.learn(200, ref(250))
	if err := checkOwnerCache(&c); err != nil {
		t.Fatal(err)
	}
	if cachedOwner(&c, 300) {
		t.Error("arc overlapping a newer report was kept")
	}
	if _, ok := c.lookup(280); ok {
		t.Error("key of an evicted arc still resolves")
	}
	c.learn(250, ref(300))
	if o, ok := c.lookup(280); !ok || o.owner.id != 300 {
		t.Errorf("lookup(280) after re-learning = %v, %v", o, ok)
	}

	// An owner's new report replaces its old arc.
	c.learn(150, ref(200))
	if o, ok := c.lookup(120); ok {
		t.Errorf("lookup(120) resolved to %v after 200's arc shrank", o)
	}

	c.drop(250)
	if cachedOwner(&c, 250) || !cachedOwner(&c, 200) || !cachedOwner(&c, 300) {
		t.Error("drop removed the wrong arcs")
	}
	c.drop(7) // absent: no effect
	if err := checkOwnerCache(&c); err != nil {
		t.Fatal(err)
	}
}

// TestKeyedProbeValidation: a keyed probe is answered for a key inside
// the responder's arc and refused with errnoNotOwner outside it; an
// unkeyed probe is always answered, so clients that predate the key
// keep working. A ring of one owns every key.
func TestKeyedProbeValidation(t *testing.T) {
	env := sim.NewEnv(5)
	cl := newTestCluster(t, env, 4)
	servers := cl.Servers()
	s, succ := servers[1], servers[2]

	probe := func(s *Server, key uint64, hasKey bool) []byte {
		req, err := wire.EncodeProbeReq(wire.ProbeReq{Bit: 2, NumVecs: 64, Metrics: []uint64{7}, Key: key, HasKey: hasKey})
		if err != nil {
			t.Fatal(err)
		}
		return s.dispatch(req)
	}
	answered := func(what string, raw []byte) {
		t.Helper()
		if resp, err := wire.DecodeProbeResp(raw); err != nil || len(resp.VecMasks) != 1 {
			t.Errorf("%s: want a probe reply, got %v (%v)", what, raw, err)
		}
	}

	answered("keyed probe for own id", probe(s, s.id, true))
	answered("keyed probe just above pred", probe(s, servers[0].id+1, true))
	raw := probe(s, s.id+1, true) // succ's arc
	if code, _, _, err := decodeErr(raw); err != nil || code != errnoNotOwner {
		t.Errorf("keyed probe outside the arc: got %v, want errnoNotOwner", raw)
	}
	answered("unkeyed probe", probe(s, 0, false))
	answered("keyed probe at the successor", probe(succ, s.id+1, true))

	one, err := NewServer("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(one.Close)
	answered("ring of one", probe(one, one.id+12345, true))
}

// TestCountByteIdentityWithOwnerCache pins the cache as invisible in
// the answer: on a converged fixed-name cluster, a seeded sequential
// client's cold-cache and warm-cache passes marshal to the bytes the
// route-every-attempt client produced for the same seeds. The RPC
// counts follow from the same draws: a find_succ for each attempt whose
// owner the client has not met yet, and one probe per (owner, span) —
// a visit to an owner in an interval that no earlier span probe of
// that owner in the same pass already answered.
func TestCountByteIdentityWithOwnerCache(t *testing.T) {
	cases := []struct {
		name       string
		lim        int
		kind       sketch.Kind
		cold, warm string
		// allCached: every owner the warm pass reaches was met in the
		// cold pass, so the warm pass routes nothing.
		allCached bool
		// probes pins the replay's probe count for the cold and the
		// warm pass (one per (interval, owner) before span probes: 15
		// and 14 for sLL, 8 and 10 for PCSA).
		probes [2]uint64
	}{
		{
			name: "sLL-lim5", lim: 5, kind: sketch.KindSuperLogLog, allCached: true, probes: [2]uint64{7, 6},
			cold: `{"estimate":939.591590197958,"probes_attempted":50,"probes_failed":0,"intervals_skipped":0,"degraded":false}`,
			warm: `{"estimate":939.591590197958,"probes_attempted":50,"probes_failed":0,"intervals_skipped":0,"degraded":false}`,
		},
		{
			name: "PCSA-lim3", lim: 3, kind: sketch.KindPCSA, probes: [2]uint64{6, 7},
			cold: `{"estimate":443.3748576717115,"probes_attempted":15,"probes_failed":0,"intervals_skipped":0,"degraded":false}`,
			warm: `{"estimate":463.00473965405445,"probes_attempted":15,"probes_failed":0,"intervals_skipped":0,"degraded":false}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv(3)
			cl := newTestCluster(t, env, 16)
			entry := cl.Servers()[0].Addr()
			cfg := ClientConfig{Entry: entry, K: 16, M: 64, Kind: tc.kind, DialTimeout: time.Second}

			wcfg := cfg
			wcfg.Seed = 21
			w, err := NewClient(wcfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 500; i++ {
				if err := w.Insert(7, uint64(i)*0x9e3779b97f4a7c15+11); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			w.Close()

			cfg.Seed, cfg.Lim, cfg.ProbeParallel = 22, tc.lim, 1
			// twin replays the counting client's target draws offline.
			twin, err := NewClient(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer twin.Close()
			cfg.Metrics = metrics.New()
			c, err := NewClient(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			owner := func(key uint64) uint64 {
				o, err := cl.Owner(key)
				if err != nil {
					t.Fatal(err)
				}
				return o.ID()
			}
			// ownerMeets: o's arc shares a key with bit's interval — it
			// owns either end of the interval or lies inside it.
			ownerMeets := func(o uint64, bit uint) bool {
				lo, size := hashutil.Interval(64, cfg.K, bit)
				return owner(lo) == o || owner(lo+size-1) == o || o-lo < size
			}
			met := make(map[uint64]bool)
			for pass, want := range []string{tc.cold, tc.warm} {
				fs0 := c.peers.m.rpcTotal[slotFindSucc].Value()
				pr0 := c.peers.m.rpcTotal[slotProbe].Value()
				res, err := c.Count(7)
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != want {
					t.Errorf("pass %d: CountResult = %s, want %s", pass, got, want)
				}

				var wantLookups, wantProbes uint64
				// spanned[{o, bit}]: a span probe of o earlier in this
				// pass answered bit.
				spanned := make(map[keptKey]bool)
				intervals := res.ProbesAttempted / tc.lim
				for i := 0; i < intervals; i++ {
					bit := scanBit(tc.kind, twin.maxBit, i)
					visited := make(map[uint64]bool)
					for a := 0; a < tc.lim; a++ {
						o := owner(twin.randomTarget(bit))
						if !met[o] {
							met[o] = true
							wantLookups++
						}
						if visited[o] {
							continue
						}
						visited[o] = true
						if spanned[keptKey{o, bit}] {
							continue
						}
						wantProbes++
						for j := i + 1; j <= int(twin.maxBit); j++ {
							b := scanBit(tc.kind, twin.maxBit, j)
							if !ownerMeets(o, b) {
								break
							}
							spanned[keptKey{o, b}] = true
						}
					}
				}
				lookups := c.peers.m.rpcTotal[slotFindSucc].Value() - fs0
				probes := c.peers.m.rpcTotal[slotProbe].Value() - pr0
				if lookups != wantLookups || probes != wantProbes {
					t.Errorf("pass %d: %d find_succ and %d probes, want %d and %d",
						pass, lookups, probes, wantLookups, wantProbes)
				}
				if wantProbes != tc.probes[pass] {
					t.Errorf("pass %d: replay expects %d probes, pinned %d", pass, wantProbes, tc.probes[pass])
				}
				if pass == 1 && tc.allCached && lookups != 0 {
					t.Errorf("warm pass sent %d find_succ with every owner cached", lookups)
				}
			}
			if err := checkOwnerCache(&c.owners); err != nil {
				t.Error(err)
			}
		})
	}
}

// scanBit is the i-th bit the counting scan visits: ascending for
// PCSA, descending from maxBit for the LogLog family.
func scanBit(kind sketch.Kind, maxBit uint, i int) uint {
	if kind == sketch.KindPCSA {
		return uint(i)
	}
	return maxBit - uint(i)
}

// TestCountAfterCachedOwnerCrash: once the ring has repaired a crashed
// owner, a warm client's next pass loses nothing to the stale arc — the
// failed direct probe falls back to routing within the same attempt —
// and the dead owner's arc leaves the cache.
func TestCountAfterCachedOwnerCrash(t *testing.T) {
	env := sim.NewEnv(9)
	cl := newTestCluster(t, env, 4)
	servers := cl.Servers()
	c, err := NewClient(ClientConfig{
		Entry: servers[0].Addr(), K: 16, M: 64, Kind: sketch.KindPCSA, Seed: 3,
		Retries: 1, Backoff: time.Millisecond, DialTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 300; i++ {
		if err := c.Insert(7, uint64(i)*0x2545f4914f6cdd1d+3); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for pass := 0; pass < 2; pass++ {
		if _, err := c.Count(7); err != nil {
			t.Fatal(err)
		}
	}

	// The victim is the cached non-entry owner of the bit-0 interval's
	// midpoint: half of every pass's first-interval draws land in it.
	lo, size := hashutil.Interval(64, c.cfg.K, 0)
	victim, err := cl.Owner(lo + size/2)
	if err != nil {
		t.Fatal(err)
	}
	if victim.ID() == servers[0].ID() || !cachedOwner(&c.owners, victim.ID()) {
		t.Fatalf("test premise: victim %016x is the entry or not cached", victim.ID())
	}
	cl.Crash(victim)
	settleCluster(t, cl, env)

	res, err := c.Count(7)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProbesFailed != 0 || res.Degraded {
		t.Errorf("pass after repair lost probes to a stale arc: %+v", res)
	}
	if cachedOwner(&c.owners, victim.ID()) {
		t.Error("crashed owner's arc is still cached")
	}
	if err := checkOwnerCache(&c.owners); err != nil {
		t.Error(err)
	}
}
