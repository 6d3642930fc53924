package tlb

import "math/bits"

// lru is a fixed-capacity least-recently-used cache of TLB lines. Real TLBs
// are set-associative; fully-associative LRU is the standard simulator
// simplification and is conservative for the coherence questions this model
// answers (it never caches *fewer* stale entries than hardware would).
//
// Lines live in one slot array, linked most-recent-first by int32 indices.
// An open-addressed index (linear probing, backward-shift deletion) maps a
// key to its slot. Storage starts empty and doubles on demand, never past
// the capacity, so an idle level costs a few words. No array holds a
// pointer, so the garbage collector never scans them. Nothing iterates the
// index; every ordered walk follows the recency list.
type lru struct {
	cap        int32
	n          int32 // live lines
	head, tail int32 // most and least recent slot, noSlot when empty
	// free chains slots retired by remove/flush through next. Invalidate-
	// heavy policies (every shootdown removes lines) refill from it, so
	// storage stops growing once it has held the most lines ever live.
	free  int32
	slots []slot
	index []int32 // slot+1 per bucket, 0 when empty; len is a power of two
	shift uint8   // 64 - log2(len(index)): the hash's top bits pick a bucket
}

type slot struct {
	line       Line
	prev, next int32
}

const (
	noSlot = -1
	// minSlots is the first storage allocation of a level.
	minSlots = 8
)

func newLRU(capacity int) lru {
	return lru{cap: int32(capacity), head: noSlot, tail: noSlot, free: noSlot}
}

func (c *lru) len() int { return int(c.n) }

// hashKey mixes (VPID, PCID, VPN) multiplicatively; the index uses its top
// bits.
func hashKey(k Key) uint64 {
	x := uint64(k.VPN) ^ uint64(k.Tag.VPID)<<48 ^ uint64(k.Tag.PCID)<<32
	return x * 0x9e3779b97f4a7c15
}

func (c *lru) home(k Key) int { return int(hashKey(k) >> c.shift) }

// find returns the bucket and slot holding k, or slot noSlot.
func (c *lru) find(k Key) (bucket int, s int32) {
	if c.n == 0 {
		return 0, noSlot
	}
	mask := len(c.index) - 1
	for b := c.home(k); ; b = (b + 1) & mask {
		e := c.index[b]
		if e == 0 {
			return b, noSlot
		}
		if c.slots[e-1].line.Key == k {
			return b, e - 1
		}
	}
}

func (c *lru) contains(k Key) bool {
	_, s := c.find(k)
	return s != noSlot
}

// get returns the line and marks it most recently used.
func (c *lru) get(k Key) (Line, bool) {
	_, s := c.find(k)
	if s == noSlot {
		return Line{}, false
	}
	c.moveToFront(s)
	return c.slots[s].line, true
}

// put inserts a line, returning the evicted victim if the cache was full.
// Inserting an existing key updates it in place (no eviction).
func (c *lru) put(ln Line) (victim Line, evicted bool) {
	if _, s := c.find(ln.Key); s != noSlot {
		c.slots[s].line = ln
		c.moveToFront(s)
		return Line{}, false
	}
	if c.n >= c.cap {
		victim, evicted = c.slots[c.tail].line, true
		b, _ := c.find(victim.Key)
		c.release(b, c.tail)
	}
	s := c.alloc()
	c.slots[s].line = ln
	c.insertIndex(ln.Key, s)
	c.pushFront(s)
	c.n++
	return victim, evicted
}

// remove deletes a key, returning the removed line.
func (c *lru) remove(k Key) (Line, bool) {
	b, s := c.find(k)
	if s == noSlot {
		return Line{}, false
	}
	ln := c.slots[s].line
	c.release(b, s)
	return ln, true
}

// removeWhere removes every line matching pred, most recent first, and
// passes each to drop after it has left the cache.
func (c *lru) removeWhere(pred func(Line) bool, drop func(Line)) {
	for s := c.head; s != noSlot; {
		next := c.slots[s].next
		if ln := c.slots[s].line; pred(ln) {
			b, _ := c.find(ln.Key)
			c.release(b, s)
			drop(ln)
		}
		s = next
	}
}

// alloc returns a slot for a new line: a retired one if any, else the next
// unused one, growing storage when it is full.
func (c *lru) alloc() int32 {
	if s := c.free; s != noSlot {
		c.free = c.slots[s].next
		return s
	}
	if len(c.slots) == cap(c.slots) {
		c.grow()
	}
	c.slots = c.slots[:len(c.slots)+1]
	return int32(len(c.slots) - 1)
}

// grow doubles storage (up to the capacity) and rebuilds the index at a
// load factor of at most one half. It runs only with the free list empty,
// so every existing slot is live.
func (c *lru) grow() {
	n := min(max(2*cap(c.slots), minSlots), int(c.cap))
	slots := make([]slot, len(c.slots), n)
	copy(slots, c.slots)
	c.slots = slots
	logSize := bits.Len(uint(2*n - 1))
	c.index = make([]int32, 1<<logSize)
	c.shift = uint8(64 - logSize)
	for s := range c.slots {
		c.insertIndex(c.slots[s].line.Key, int32(s))
	}
}

func (c *lru) insertIndex(k Key, s int32) {
	mask := len(c.index) - 1
	b := c.home(k)
	for c.index[b] != 0 {
		b = (b + 1) & mask
	}
	c.index[b] = s + 1
}

// release takes slot s, indexed at bucket b, out of the cache and onto the
// free list.
func (c *lru) release(b int, s int32) {
	c.unindex(b)
	c.unlink(s)
	c.slots[s] = slot{next: c.free}
	c.free = s
	c.n--
}

// unindex empties bucket b by backward-shift deletion: each later entry of
// the probe run whose home lies cyclically at or before the hole moves into
// it, so lookups never need tombstones.
func (c *lru) unindex(b int) {
	mask := len(c.index) - 1
	for j := (b + 1) & mask; c.index[j] != 0; j = (j + 1) & mask {
		h := c.home(c.slots[c.index[j]-1].line.Key)
		if (j-h)&mask >= (j-b)&mask {
			c.index[b] = c.index[j]
			b = j
		}
	}
	c.index[b] = 0
}

func (c *lru) pushFront(s int32) {
	c.slots[s].prev = noSlot
	c.slots[s].next = c.head
	if c.head != noSlot {
		c.slots[c.head].prev = s
	}
	c.head = s
	if c.tail == noSlot {
		c.tail = s
	}
}

func (c *lru) unlink(s int32) {
	prev, next := c.slots[s].prev, c.slots[s].next
	if prev != noSlot {
		c.slots[prev].next = next
	} else {
		c.head = next
	}
	if next != noSlot {
		c.slots[next].prev = prev
	} else {
		c.tail = prev
	}
}

func (c *lru) moveToFront(s int32) {
	if c.head == s {
		return
	}
	c.unlink(s)
	c.pushFront(s)
}
