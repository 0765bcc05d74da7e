package netdht

import (
	"cmp"
	"slices"
	"sync"
)

// ownerArc is one learned ownership fact: owner answered a lookup
// reporting that it holds the ring arc (pred, owner.id].
type ownerArc struct {
	pred  uint64
	owner nodeRef
}

func (a ownerArc) contains(key uint64) bool { return arcContains(a.pred, a.owner.id, key) }

// overlaps reports whether two arcs share a key. Two ring arcs meet
// exactly when one of them contains the other's upper end.
func (a ownerArc) overlaps(b ownerArc) bool {
	return a.contains(b.owner.id) || b.contains(a.owner.id)
}

// meets reports whether the arc shares a key with the key interval
// [lo, lo+size), size > 0: the interval is the ring arc
// (lo-1, lo+size-1].
func (a ownerArc) meets(lo, size uint64) bool {
	return a.overlaps(ownerArc{pred: lo - 1, owner: nodeRef{id: lo + size - 1}})
}

// ownerCache maps ring keys to the owners that last reported holding
// them, learned from the predecessor suffix of find-successor replies.
// Arcs are kept sorted by owner id and pairwise disjoint: at most one
// per owner, and learning an arc evicts every cached arc it overlaps,
// so the cache never holds more arcs than the ring has nodes. The
// arc containing a key is then the one whose owner is the key's
// clockwise successor among cached owners, found by binary search. An
// entry is a hint, not a truth: the owner validates every keyed probe
// against its own arc (Server.owns), and the client drops an arc whose
// owner refuses or cannot be reached. The mutex is never held across
// an RPC.
type ownerCache struct {
	mu   sync.Mutex
	arcs []ownerArc
}

// search returns the index of the first arc whose owner id is at least
// id, len(arcs) when there is none, and whether that owner id equals id.
// Caller holds mu.
func (c *ownerCache) search(id uint64) (int, bool) {
	return slices.BinarySearchFunc(c.arcs, id, func(a ownerArc, id uint64) int {
		return cmp.Compare(a.owner.id, id)
	})
}

// lookup returns the cached arc containing key.
func (c *ownerCache) lookup(key uint64) (ownerArc, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.arcs) == 0 {
		return ownerArc{}, false
	}
	i, _ := c.search(key)
	if i == len(c.arcs) {
		i = 0 // wrap: the key lies past the highest cached owner
	}
	if a := c.arcs[i]; a.contains(key) {
		return a, true
	}
	return ownerArc{}, false
}

// learn records that owner holds (pred, owner.id], replacing the
// owner's previous arc and evicting every arc the new one overlaps:
// the newest report wins, since the ring may have changed under the
// older ones.
func (c *ownerCache) learn(pred uint64, owner nodeRef) {
	next := ownerArc{pred: pred, owner: owner}
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := c.arcs[:0]
	for _, a := range c.arcs {
		if a.owner.id != owner.id && !a.overlaps(next) {
			kept = append(kept, a)
		}
	}
	clear(c.arcs[len(kept):])
	c.arcs = kept
	i, _ := c.search(owner.id)
	c.arcs = slices.Insert(c.arcs, i, next)
}

// drop forgets the arc of the owner with identifier id, if cached.
func (c *ownerCache) drop(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.search(id); ok {
		c.arcs = slices.Delete(c.arcs, i, i+1)
	}
}
