package netdht

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"dhsketch/internal/dht"
	"dhsketch/internal/hashutil"
	"dhsketch/internal/metrics"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
	"dhsketch/internal/wire"
)

// ClientConfig shapes a Client. The sketch-geometry fields (K, M, Kind,
// Lim, TTL) must match what every other writer and reader of the metric
// uses — the networked deployment has no shared core.Config to enforce
// it, so the daemon flags default to the same values core does.
type ClientConfig struct {
	// Entry is the address of any ring member; all routed lookups enter
	// the overlay there.
	Entry string

	// K is the bitmap length k (hash bits per item). Default 24.
	K uint
	// M is the number of bitmap vectors m (power of two). Default 512.
	M int
	// Kind selects the estimator family. The zero value is
	// sketch.KindPCSA, matching core.Config's convention.
	Kind sketch.Kind
	// Lim is the per-interval probe budget of the counting scan.
	// Default 5.
	Lim int
	// TTL is the tuple lifetime in the ring's coarse ticks (0 = no
	// expiry); it narrows through wire.ClampTTL like every producer.
	TTL int64
	// Seed drives the interval-target randomness. A fixed seed gives a
	// reproducible probe sequence (not byte-reproducible traffic — the
	// network interleaves).
	Seed uint64

	// Retries and Backoff bound per-RPC retry behavior; DialTimeout and
	// RPCTimeout bound the transport. Zero fields take package defaults.
	Retries     int
	Backoff     time.Duration
	DialTimeout time.Duration
	RPCTimeout  time.Duration

	// PeerConns is the outbound connection-pool width per peer address —
	// the number of RPC exchanges that can be in flight toward one peer
	// at once. Zero means DefaultPeerConns.
	PeerConns int
	// ProbeParallel bounds how many of an interval's Lim probe attempts
	// run concurrently during Count. Zero means DefaultProbeParallel;
	// 1 restores the fully sequential Algorithm-1 scan.
	ProbeParallel int

	// Metrics, when non-nil, instruments the client's outbound RPC
	// pool (per-tag latency, errno counters, dial/redial/retry counts,
	// open-socket gauge) — the same instruments a Server's outbound
	// side registers. Nil keeps every hook a one-branch no-op.
	Metrics *metrics.Registry
}

// DefaultProbeParallel is the per-interval probe concurrency of the
// counting scan. The interval's Lim attempts are independent uniform
// probes, so running them concurrently changes neither the estimate
// nor the accounting — only the wall-clock latency of a pass.
const DefaultProbeParallel = 4

func (c ClientConfig) withDefaults() ClientConfig {
	if c.K == 0 {
		c.K = 24
	}
	if c.M == 0 {
		c.M = 512
	}
	if c.Lim == 0 {
		c.Lim = 5
	}
	if c.Retries == 0 {
		c.Retries = 3
	}
	if c.PeerConns == 0 {
		c.PeerConns = DefaultPeerConns
	}
	if c.ProbeParallel == 0 {
		c.ProbeParallel = DefaultProbeParallel
	}
	return c
}

// Client performs DHS insertions and the Algorithm-1 counting scan
// against a netdht ring purely over RPC — no shared memory with any
// server, so it runs in a separate OS process (cmd/dhsnode's insert
// and count subcommands). It is the networked counterpart of core.DHS's
// data plane with two deliberate simplifications, both documented in
// DESIGN.md §14: each of an interval's attempts probes the owner of a
// fresh uniform target instead of walking successors from the first
// (independent draws can run concurrently, and a successor walk would
// add a sequential neighbors exchange per step), and the §3.5
// bit-shift variant is not offered.
//
// Count keeps one owner cache per Client, shared by every concurrent
// call: the arcs owners report in find-successor replies, so an
// attempt whose target falls in a known arc probes that owner directly
// instead of routing first (see ownerCache). Each probe asks its owner
// for every bit, from the probed one onward in scan order, whose
// interval meets the owner's arc, so one exchange answers all the
// intervals an owner holds; the extra masks live only until the Count
// call that asked for them returns.
type Client struct {
	cfg    ClientConfig
	maxBit uint
	peers  *peerPool
	owners ownerCache

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewClient validates the configuration and prepares the connection
// pool; no connection is made until the first operation.
func NewClient(cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	if cfg.Entry == "" {
		return nil, fmt.Errorf("netdht: client needs an entry address")
	}
	if !hashutil.IsPowerOfTwo(uint64(cfg.M)) {
		return nil, fmt.Errorf("netdht: m = %d is not a power of two", cfg.M)
	}
	if cfg.M > 1<<16 {
		return nil, fmt.Errorf("netdht: m = %d exceeds the wire vector-index width", cfg.M)
	}
	logM := hashutil.Log2(uint64(cfg.M))
	if logM >= cfg.K {
		return nil, fmt.Errorf("netdht: log2(m) = %d leaves no bitmap bits of k = %d", logM, cfg.K)
	}
	c := &Client{
		cfg:    cfg,
		maxBit: cfg.K - logM,
		peers:  newPeerPool(cfg.DialTimeout, cfg.RPCTimeout, cfg.PeerConns),
		rng:    rand.New(rand.NewPCG(cfg.Seed, 0x6a09e667f3bcc908)),
	}
	if cfg.Metrics != nil {
		c.peers.m = newPoolMetrics(cfg.Metrics)
		cfg.Metrics.GaugeFunc("netdht_peer_conns", "cached outbound peer connections",
			func() float64 { return float64(c.peers.size()) })
	}
	return c, nil
}

// Close releases the client's connections.
func (c *Client) Close() { c.peers.close() }

// split mirrors core.DHS.split: vector = lsb_k(id) mod m,
// bit = ρ(lsb_k(id) div m).
func (c *Client) split(itemID uint64) (vector int, bit uint) {
	if c.cfg.M == 1 {
		return 0, hashutil.Rho(hashutil.Lsb(itemID, c.cfg.K), c.cfg.K)
	}
	return hashutil.Split(itemID, c.cfg.K, c.cfg.M)
}

func (c *Client) randomTarget(bit uint) uint64 {
	lo, size := hashutil.Interval(64, c.cfg.K, bit)
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return sim.UniformIn(c.rng, lo, size)
}

// findOwner routes key through the entry node and returns the owner's
// reply: its identity and, when it knows it, its arc. The entry makes
// the first routing decision itself, so the client never needs the
// ring topology.
func (c *Client) findOwner(key uint64) (findSuccRespMsg, error) {
	raw, err := c.peers.exchangeRetry(c.cfg.Entry,
		encodeFindSucc(findSuccMsg{key: key}), c.cfg.Retries, c.cfg.Backoff)
	if err != nil {
		return findSuccRespMsg{}, err
	}
	if len(raw) >= 2 && raw[1] == tagErr {
		code, _, _, derr := decodeErr(raw)
		if derr != nil {
			return findSuccRespMsg{}, derr
		}
		return findSuccRespMsg{}, errnoErr(code)
	}
	return decodeFindSuccResp(raw)
}

// ack sends req to addr with retries and verifies the reply is an ack.
func (c *Client) ack(addr string, req []byte) error {
	raw, err := c.peers.exchangeRetry(addr, req, c.cfg.Retries, c.cfg.Backoff)
	if err != nil {
		return err
	}
	if len(raw) >= 2 && raw[1] == tagErr {
		code, _, _, derr := decodeErr(raw)
		if derr != nil {
			return derr
		}
		return errnoErr(code)
	}
	if _, err := decodeAck(raw); err != nil {
		return err
	}
	return nil
}

// Insert records one item occurrence under metric: split the item's key
// into (vector, bit), route to the owner of a uniform target in the
// bit's interval, and store the tuple there (§3.4 over the wire).
func (c *Client) Insert(metric, itemID uint64) error {
	vector, bit := c.split(itemID)
	resp, err := c.findOwner(c.randomTarget(bit))
	if err != nil {
		return fmt.Errorf("netdht: insert lookup: %w", err)
	}
	owner := resp.owner
	req := wire.EncodeInsert(wire.Insert{
		Metric: metric,
		Vector: uint16(vector),
		Bit:    uint8(bit),
		TTL:    wire.ClampTTL(c.cfg.TTL),
	})
	if err := c.ack(owner.addr, req); err != nil {
		return fmt.Errorf("netdht: insert at %s: %w", owner.addr, err)
	}
	return nil
}

// CountResult is one counting pass's outcome with its failure
// accounting — the networked analogue of core.Estimate's Quality. The
// JSON field names are an API surface: `dhsnode count -json`, the dhsd
// /count response body, and dhsload's CI assertions all marshal this
// struct, and the serving layer's byte-identity contract (DESIGN.md
// §16) is defined over exactly this encoding.
type CountResult struct {
	Estimate float64 `json:"estimate"`
	// ProbesAttempted and ProbesFailed count probe-budget spending,
	// including failed lookups; IntervalsSkipped counts bit positions
	// where no node could be probed at all.
	ProbesAttempted  int `json:"probes_attempted"`
	ProbesFailed     int `json:"probes_failed"`
	IntervalsSkipped int `json:"intervals_skipped"`
	// Degraded reports that the scan lost information — probes failed
	// or whole intervals went unprobed — so the estimate rests on less
	// evidence than a clean pass would gather. The count subcommand
	// surfaces it so operators can tell a healthy estimate from one
	// taken during churn.
	Degraded bool `json:"degraded"`
}

// finish derives the summary flags from the accumulated accounting.
func (r *CountResult) finish() {
	r.Degraded = r.ProbesFailed > 0 || r.IntervalsSkipped > 0
}

// scanNext returns the bit the counting scan visits after bit: one
// lower for the LogLog family, one higher for PCSA. Either way the
// result exceeds maxBit once the scan is past its last bit.
func (c *Client) scanNext(bit uint) uint {
	if c.cfg.Kind == sketch.KindPCSA {
		return bit + 1
	}
	return bit - 1 // wraps past 0
}

// through returns the last bit of the span a probe of the arc's owner
// at bit asks for: the contiguous run of bits, stepping from bit in
// scan order, whose intervals meet the arc. It is bit itself when the
// next interval lies outside the arc.
func (c *Client) through(bit uint, arc ownerArc) uint {
	for next := c.scanNext(bit); next <= c.maxBit; next = c.scanNext(next) {
		if lo, size := hashutil.Interval(64, c.cfg.K, next); !arc.meets(lo, size) {
			break
		}
		bit = next
	}
	return bit
}

// probe asks the node at addr for metric's vector masks at every bit
// from bit through `through` — a single-bit probe is a span of one. A
// keyed probe (hasKey) carries the target key, and the node refuses it
// when the key lies outside its arc; it is sent once, with no retries,
// because its caller falls back to routing on any failure. The reply
// holds one mask per bit of the span, in scan order, with the
// responder's arc in Pred, or a single mask for bit when the responder
// predates spans.
func (c *Client) probe(addr string, bit, through uint, metric, key uint64, hasKey bool) (wire.ProbeResp, error) {
	req := wire.ProbeReq{
		Bit:        uint8(bit),
		NumVecs:    uint16(c.cfg.M),
		Metrics:    []uint64{metric},
		Key:        key,
		HasKey:     hasKey,
		Through:    uint8(through),
		HasThrough: through != bit,
	}
	enc, err := wire.EncodeProbeReq(req)
	if err != nil {
		return wire.ProbeResp{}, err // static geometry can't overflow; defensive
	}
	var raw []byte
	if hasKey {
		raw, err = c.peers.exchange(addr, enc)
	} else {
		raw, err = c.peers.exchangeRetry(addr, enc, c.cfg.Retries, c.cfg.Backoff)
	}
	if err != nil {
		return wire.ProbeResp{}, err
	}
	if len(raw) >= 2 && raw[1] == tagErr {
		code, _, _, derr := decodeErr(raw)
		if derr != nil {
			return wire.ProbeResp{}, derr
		}
		return wire.ProbeResp{}, errnoErr(code)
	}
	resp, err := wire.DecodeProbeResp(raw)
	if err != nil {
		return wire.ProbeResp{}, err
	}
	if n := len(resp.VecMasks); n != 1 && n != req.Span() || int(resp.NumVecs) != c.cfg.M {
		return wire.ProbeResp{}, fmt.Errorf("%w: probe reply shape", wire.ErrBadMessage)
	}
	return resp, nil
}

// keptKey names a mask a span probe returned beyond the bit it was
// sent for: owner's answer for bit.
type keptKey struct {
	owner uint64
	bit   uint
}

// keptMask is such a mask with the arc its owner reported holding when
// it answered: the mask stands for exactly the keys of that arc.
type keptMask struct {
	arc  ownerArc
	mask []byte
}

// Count runs the Algorithm-1 counting scan for metric over RPC:
// descending through the bit intervals for the LogLog estimator family
// (first set bit per vector is its maximum), ascending for PCSA (first
// position with no set bit is the vector's leftmost zero). Each
// interval gets up to Lim probe attempts at fresh uniform targets, run
// up to ProbeParallel at a time; owners already probed within an
// interval are not probed again but still spend budget, mirroring the
// simulator's duplicate-visit cost. Count is safe for concurrent use
// by many goroutines sharing one Client — each call carries its own
// scan state, and the peer pool multiplexes exchanges over PeerConns
// sockets per peer.
//
// An attempt whose target lies in a cached arc skips the lookup: it
// claims the arc's owner as visited and probes it directly with the
// target as key. If the owner refuses (the arc is stale) or cannot be
// reached, the attempt releases the claim, drops the arc and routes
// the same target as an uncached attempt does, so a stale arc costs one
// extra exchange but no budget and no probe failure.
//
// Every probe asks its owner for a span: the bits, in scan order, whose
// intervals meet the owner's arc as the cache or the lookup reported
// it. The masks beyond the first are kept for the rest of this call
// with the arc the owner reported in its reply; a later attempt that
// claims the same owner for one of those bits, with its target in that
// arc, takes the kept mask instead of sending a probe. The claim, and
// so the accounting, is the same either way.
func (c *Client) Count(metric uint64) (CountResult, error) {
	m := c.cfg.M
	R := make([]int, m)
	for i := range R {
		R[i] = -1
	}
	unresolved := m
	var res CountResult
	kept := make(map[keptKey]keptMask) // guarded by mu

	// probeInterval probes bit's interval and invokes onMask for every
	// successful probe's vector mask; it reports whether any probe
	// succeeded. The interval's Lim attempts are independent uniform
	// draws, so they run concurrently (bounded by ProbeParallel); mu
	// serializes the shared accounting, the visited set, the kept
	// masks, and every onMask invocation, so callers' closures see one
	// probe at a time.
	var mu sync.Mutex
	probeInterval := func(bit uint, onMask func(mask []byte)) bool {
		visited := make(map[uint64]bool)
		anyOK := false
		// claim marks owner visited in this interval; false means an
		// earlier attempt already took it, and this one's budget is
		// spent without an RPC.
		claim := func(owner uint64) bool {
			mu.Lock()
			defer mu.Unlock()
			if visited[owner] {
				return false
			}
			visited[owner] = true
			return true
		}
		// take delivers the mask an earlier span probe of owner kept for
		// this bit, if target lies in the arc the owner reported then.
		take := func(owner, target uint64) bool {
			mu.Lock()
			defer mu.Unlock()
			km, ok := kept[keptKey{owner, bit}]
			if !ok || !km.arc.contains(target) {
				return false
			}
			anyOK = true
			onMask(km.mask)
			return true
		}
		// deliver hands on the reply's mask for this bit and keeps the
		// masks of the rest of its span, which follow in scan order.
		deliver := func(owner nodeRef, resp wire.ProbeResp) {
			mu.Lock()
			defer mu.Unlock()
			anyOK = true
			onMask(resp.VecMasks[0])
			if !resp.HasPred {
				return
			}
			arc := ownerArc{pred: resp.Pred, owner: owner}
			b := bit
			for _, mask := range resp.VecMasks[1:] {
				b = c.scanNext(b)
				kept[keptKey{owner.id, b}] = keptMask{arc, mask}
			}
		}
		fail := func() {
			mu.Lock()
			res.ProbesFailed++
			mu.Unlock()
		}
		attempt := func() {
			mu.Lock()
			res.ProbesAttempted++
			mu.Unlock()
			target := c.randomTarget(bit)
			if arc, ok := c.owners.lookup(target); ok {
				if !claim(arc.owner.id) || take(arc.owner.id, target) {
					return
				}
				if resp, err := c.probe(arc.owner.addr, bit, c.through(bit, arc), metric, target, true); err == nil {
					deliver(arc.owner, resp)
					return
				}
				mu.Lock()
				delete(visited, arc.owner.id)
				mu.Unlock()
				c.owners.drop(arc.owner.id)
			}
			resp, err := c.findOwner(target)
			if err != nil {
				fail()
				return
			}
			through := bit
			if resp.hasPred {
				arc := ownerArc{pred: resp.pred, owner: resp.owner}
				c.owners.learn(arc.pred, arc.owner)
				through = c.through(bit, arc)
			}
			if !claim(resp.owner.id) || take(resp.owner.id, target) {
				return
			}
			presp, err := c.probe(resp.owner.addr, bit, through, metric, 0, false)
			if err != nil {
				fail()
				return
			}
			deliver(resp.owner, presp)
		}
		par := c.cfg.ProbeParallel
		if par > c.cfg.Lim {
			par = c.cfg.Lim
		}
		if par <= 1 {
			for i := 0; i < c.cfg.Lim; i++ {
				attempt()
			}
			return anyOK
		}
		var wg sync.WaitGroup
		sem := make(chan struct{}, par)
		for i := 0; i < c.cfg.Lim; i++ {
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				attempt()
			}()
		}
		wg.Wait()
		return anyOK
	}

	if c.cfg.Kind == sketch.KindPCSA {
		// Ascending scan: a vector's statistic is the first position
		// where no probe of the interval saw its bit set.
		foundHere := make([]bool, m)
		for bit := uint(0); bit <= c.maxBit && unresolved > 0; bit++ {
			for i := range foundHere {
				foundHere[i] = false
			}
			visitedAny := probeInterval(bit, func(mask []byte) {
				for v := 0; v < m; v++ {
					if wire.HasVec(mask, v) {
						foundHere[v] = true
					}
				}
			})
			if !visitedAny {
				// Zero evidence at this position: declaring leftmost
				// zeros here would collapse the estimate. Skip it.
				res.IntervalsSkipped++
				continue
			}
			for v := 0; v < m; v++ {
				if R[v] == -1 && !foundHere[v] {
					R[v] = int(bit)
					unresolved--
				}
			}
		}
		for v := range R {
			if R[v] == -1 {
				R[v] = int(c.maxBit) + 1
			}
		}
		res.Estimate = sketch.EstimatePCSA(R)
		res.finish()
		return res, nil
	}

	// Descending scan for the LogLog family: the first set bit seen for
	// a vector, scanning downward, is its maximum rank.
	for bit := int(c.maxBit); bit >= 0 && unresolved > 0; bit-- {
		visitedAny := probeInterval(uint(bit), func(mask []byte) {
			for v := 0; v < m; v++ {
				if R[v] == -1 && wire.HasVec(mask, v) {
					R[v] = bit
					unresolved--
				}
			}
		})
		if !visitedAny {
			res.IntervalsSkipped++
		}
	}
	ranks := make([]int, m)
	for v, r := range R {
		ranks[v] = r + 1
	}
	switch c.cfg.Kind {
	case sketch.KindLogLog:
		res.Estimate = sketch.EstimateLogLog(ranks)
	case sketch.KindHyperLogLog:
		res.Estimate = sketch.EstimateHyperLogLog(ranks)
	default:
		res.Estimate = sketch.EstimateSuperLogLog(ranks)
	}
	res.finish()
	return res, nil
}

// Ping checks that the entry node answers.
func (c *Client) Ping() error {
	raw, err := c.peers.exchangeRetry(c.cfg.Entry, encodePing(), c.cfg.Retries, c.cfg.Backoff)
	if err != nil {
		return err
	}
	if len(raw) < 2 || raw[1] != tagPong {
		return fmt.Errorf("%w: unexpected ping reply", dht.ErrLost)
	}
	return nil
}
