package tlb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"latr/internal/mem"
	"latr/internal/pt"
)

// refLRU is the reference model for lru: a hash map over a pointer-linked
// list, the representation the slot array replaced. The differential tests
// drive both with the same operations and require identical results.
type refLRU struct {
	cap        int
	items      map[Key]*refNode
	head, tail *refNode // most and least recent
}

type refNode struct {
	line       Line
	prev, next *refNode
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{cap: capacity, items: make(map[Key]*refNode)}
}

func (c *refLRU) len() int { return len(c.items) }

func (c *refLRU) contains(k Key) bool {
	_, ok := c.items[k]
	return ok
}

func (c *refLRU) get(k Key) (Line, bool) {
	n, ok := c.items[k]
	if !ok {
		return Line{}, false
	}
	c.moveToFront(n)
	return n.line, true
}

func (c *refLRU) put(ln Line) (victim Line, evicted bool) {
	if n, ok := c.items[ln.Key]; ok {
		n.line = ln
		c.moveToFront(n)
		return Line{}, false
	}
	if len(c.items) >= c.cap {
		victim, evicted = c.tail.line, true
		c.unlink(c.tail)
		delete(c.items, victim.Key)
	}
	n := &refNode{line: ln}
	c.items[ln.Key] = n
	c.pushFront(n)
	return victim, evicted
}

func (c *refLRU) remove(k Key) (Line, bool) {
	n, ok := c.items[k]
	if !ok {
		return Line{}, false
	}
	c.unlink(n)
	delete(c.items, k)
	return n.line, true
}

// removeWhere collects the matching keys most recent first, then removes
// them in that order: the flush the level used to do.
func (c *refLRU) removeWhere(pred func(Line) bool, drop func(Line)) {
	var victims []Key
	c.forEach(func(ln Line) {
		if pred(ln) {
			victims = append(victims, ln.Key)
		}
	})
	for _, k := range victims {
		if ln, ok := c.remove(k); ok {
			drop(ln)
		}
	}
}

func (c *refLRU) forEach(fn func(Line)) {
	for n := c.head; n != nil; n = n.next {
		fn(n.line)
	}
}

func (c *refLRU) pushFront(n *refNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *refLRU) unlink(n *refNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *refLRU) moveToFront(n *refNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

// forEach visits every line of the level, most recent first.
func (c *lru) forEach(fn func(Line)) {
	for s := c.head; s != noSlot; s = c.slots[s].next {
		fn(c.slots[s].line)
	}
}

// levelOp is one operation of a differential stream.
type levelOp struct {
	kind uint8 // see diffLevel
	key  Key
	pfn  mem.PFN
}

// decodeOps turns fuzz bytes into a capacity and an op stream: the first
// byte picks the capacity, then every three bytes make one op. Keys come
// from a universe about twice the capacity, spread over two VPIDs and two
// PCIDs, so puts evict and gets and removes hit often.
func decodeOps(data []byte) (int, []levelOp) {
	if len(data) == 0 {
		return 1, nil
	}
	caps := []int{1, 2, 3, 8, 9, 64, 100, 1024}
	capacity := caps[int(data[0])%len(caps)]
	universe := 2*capacity + 3
	var ops []levelOp
	for i := 1; i+2 < len(data); i += 3 {
		ops = append(ops, levelOp{
			kind: data[i],
			key:  keyOf(int(data[i+1])|int(data[i+2])<<8, universe),
			pfn:  mem.PFN(data[i+1]),
		})
	}
	return capacity, ops
}

// keyOf maps n into a key universe of the given size. Keys come in pairs
// that share a VPN under different VPIDs.
func keyOf(n, universe int) Key {
	n %= universe
	return Key{
		Tag: Tag{VPID: VPID(n & 1), PCID: PCID(n >> 1 & 1)},
		VPN: pt.VPN(n >> 1),
	}
}

// diffLevel drives an lru and the reference model through ops and returns
// the first disagreement in a result, victim, length, MRU order or index
// invariant.
func diffLevel(capacity int, ops []levelOp) error {
	got := newLRU(capacity)
	want := newRefLRU(capacity)
	for i, op := range ops {
		var g, w []Line
		switch op.kind % 8 {
		case 0, 1, 2: // put, the most common op: it fills and evicts
			ln := Line{Key: op.key, PFN: op.pfn, Writable: op.pfn&1 == 0}
			gv, ge := got.put(ln)
			wv, we := want.put(ln)
			if gv != wv || ge != we {
				return fmt.Errorf("op %d put %v: victim %v,%v want %v,%v", i, op.key, gv, ge, wv, we)
			}
		case 3:
			gl, gok := got.get(op.key)
			wl, wok := want.get(op.key)
			if gl != wl || gok != wok {
				return fmt.Errorf("op %d get %v: %v,%v want %v,%v", i, op.key, gl, gok, wl, wok)
			}
		case 4, 5: // remove, frequent enough to churn the index
			gl, gok := got.remove(op.key)
			wl, wok := want.remove(op.key)
			if gl != wl || gok != wok {
				return fmt.Errorf("op %d remove %v: %v,%v want %v,%v", i, op.key, gl, gok, wl, wok)
			}
		case 6:
			if g, w := got.contains(op.key), want.contains(op.key); g != w {
				return fmt.Errorf("op %d contains %v: %v want %v", i, op.key, g, w)
			}
		case 7: // flush the lines whose VPN shares the key's residue mod 4
			pred := func(ln Line) bool { return ln.Key.VPN%4 == op.key.VPN%4 }
			got.removeWhere(pred, func(ln Line) { g = append(g, ln) })
			want.removeWhere(pred, func(ln Line) { w = append(w, ln) })
			if !slices.Equal(g, w) {
				return fmt.Errorf("op %d removeWhere: dropped %v want %v", i, g, w)
			}
		}
		if got.len() != want.len() {
			return fmt.Errorf("op %d: len %d want %d", i, got.len(), want.len())
		}
		g, w = g[:0], w[:0]
		got.forEach(func(ln Line) { g = append(g, ln) })
		want.forEach(func(ln Line) { w = append(w, ln) })
		if !slices.Equal(g, w) {
			return fmt.Errorf("op %d: MRU order %v want %v", i, g, w)
		}
		if err := checkLevel(&got); err != nil {
			return fmt.Errorf("op %d: %v", i, err)
		}
	}
	return nil
}

// checkLevel verifies the slot array and index agree: every live line is
// found at its own slot, the index holds exactly the live lines, storage
// never exceeds the capacity, and every slot is live or free.
func checkLevel(c *lru) error {
	if len(c.slots) > int(c.cap) {
		return fmt.Errorf("storage %d past capacity %d", len(c.slots), c.cap)
	}
	live := 0
	for s := c.head; s != noSlot; s = c.slots[s].next {
		if _, at := c.find(c.slots[s].line.Key); at != s {
			return fmt.Errorf("line %v of slot %d found at slot %d", c.slots[s].line.Key, s, at)
		}
		live++
	}
	indexed := 0
	for _, e := range c.index {
		if e != 0 {
			indexed++
		}
	}
	if live != c.len() || indexed != live {
		return fmt.Errorf("len %d, %d linked, %d indexed", c.len(), live, indexed)
	}
	free := 0
	for s := c.free; s != noSlot; s = c.slots[s].next {
		free++
	}
	if live+free != len(c.slots) {
		return fmt.Errorf("%d live + %d free != %d slots", live, free, len(c.slots))
	}
	return nil
}

// randomOps builds a stream in three phases: fill past capacity, churn with
// removes outnumbering puts (backward-shift deletion on long probe runs),
// then a uniform mix of every op.
func randomOps(rng *rand.Rand, capacity, n int) []levelOp {
	universe := 2*capacity + 3
	op := func(kinds ...uint8) levelOp {
		return levelOp{
			kind: kinds[rng.Intn(len(kinds))],
			key:  keyOf(rng.Intn(universe), universe),
			pfn:  mem.PFN(rng.Intn(1 << 16)),
		}
	}
	var ops []levelOp
	for i := 0; i < capacity+capacity/2+2; i++ {
		ops = append(ops, op(0))
	}
	for i := 0; i < n; i++ {
		ops = append(ops, op(0, 4, 5, 5, 3))
	}
	for i := 0; i < n; i++ {
		ops = append(ops, op(0, 1, 2, 3, 4, 5, 6, 7))
	}
	return ops
}

func TestLevelMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 64, 1024} {
		for seed := int64(1); seed <= 3; seed++ {
			ops := randomOps(rand.New(rand.NewSource(seed)), capacity, 4*capacity+200)
			if err := diffLevel(capacity, ops); err != nil {
				t.Fatalf("capacity %d seed %d: %v", capacity, seed, err)
			}
		}
	}
}

// TestLevelGrowthBoundaries fills a level one line at a time across every
// storage doubling, checking it against the reference at each size, then
// empties and refills it without growing.
func TestLevelGrowthBoundaries(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 8, 9, 64, 100, 1024} {
		var ops []levelOp
		universe := 2*capacity + 3
		for i := 0; i < capacity+1; i++ {
			ops = append(ops, levelOp{kind: 0, key: keyOf(i, universe), pfn: mem.PFN(i)})
		}
		for i := 0; i < capacity+1; i++ {
			ops = append(ops, levelOp{kind: 4, key: keyOf(i, universe)})
		}
		for i := 0; i < capacity; i++ {
			ops = append(ops, levelOp{kind: 0, key: keyOf(universe-1-i, universe), pfn: mem.PFN(i)})
		}
		if err := diffLevel(capacity, ops); err != nil {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
		c := newLRU(capacity)
		for _, op := range ops {
			switch op.kind {
			case 0:
				c.put(Line{Key: op.key})
			case 4:
				c.remove(op.key)
			}
		}
		if len(c.slots) != capacity || cap(c.slots) != capacity {
			t.Fatalf("capacity %d: storage len %d cap %d after fill, drain, refill", capacity, len(c.slots), cap(c.slots))
		}
	}
}

func FuzzTLBLevel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 3, 1, 0, 4, 1, 0})
	f.Add([]byte{5, 0, 1, 0, 0, 2, 0, 0, 3, 0, 4, 1, 0, 7, 2, 0, 5, 3, 0})
	rng := rand.New(rand.NewSource(1))
	seed := []byte{7}
	for i := 0; i < 600; i++ {
		seed = append(seed, byte(rng.Intn(8)), byte(rng.Intn(256)), byte(rng.Intn(9)))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		capacity, ops := decodeOps(data)
		if err := diffLevel(capacity, ops); err != nil {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
	})
}
