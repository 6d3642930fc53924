// Package sim provides a deterministic discrete-event simulation engine.
//
// All of the machine model is driven by a single Engine: a virtual clock in
// nanoseconds and a priority queue of events. Events scheduled for the same
// instant fire in the order they were scheduled, which makes every run fully
// reproducible. The queue is a 4-ary min-heap of pointer-free (when, seq,
// id) entries; callbacks live in a separate node slab indexed by id, so
// sifting moves plain values and never triggers a GC write barrier.
// Cancel removes its entry at once and Reschedule re-keys it in place, both
// in O(log n), so the queue only ever holds live events. Nodes are recycled
// through a free list, so steady-state dispatch allocates nothing.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since the start of the run.
type Time int64

// Common durations, expressed in Time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String formats the time with an adaptive unit, e.g. "1.500ms". The unit is
// chosen by magnitude, so negative values pick the same unit as their
// absolute value (−1.5 ms is "-1.500ms", not "-1500000ns").
func (t Time) String() string {
	abs := t
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case abs < Millisecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case abs < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", float64(t)/float64(Second))
	}
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// entry is one queued event as the heap sees it: its (when, seq) key and
// the id of the node holding its callback. It holds no pointer, so moving
// entries during a sift is a plain copy.
type entry struct {
	when Time
	seq  uint64
	id   int32
}

// before is the queue order: by time, then by scheduling sequence. seq is
// unique per engine, so (when, seq) is a strict total order and the
// dispatch order does not depend on the heap's shape.
func before(a, b entry) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

// node holds a queued event's callback. pos is the event's index in the
// heap, kept current by every sift, or -1 while the node is free. gen
// counts the node's occupants: it is bumped whenever the node is freed or
// its event re-keyed, so a Timer issued for an earlier occupant (or an
// earlier key) goes stale.
type node struct {
	fn  func(now Time)
	gen uint32
	pos int32
}

// Timer is a cancellable handle to a scheduled callback. It is a small
// value: copy it freely. The zero Timer is inert — Cancel and Reschedule on
// it are safe no-ops — so callers can overwrite a field with Timer{} once an
// event has served its purpose. A Timer only acts on the engine that issued
// it; on any other engine it is treated like a fired one.
type Timer struct {
	e   *Engine
	id  int32
	gen uint32
	fn  func(now Time)
}

// Pending reports whether the timer's event is still queued (not yet
// fired, cancelled or rescheduled).
func (t Timer) Pending() bool {
	return t.e != nil && t.e.nodes[t.id].gen == t.gen
}

// When reports the virtual time the event is scheduled for, or -1 if the
// timer is no longer pending.
func (t Timer) When() Time {
	if !t.Pending() {
		return -1
	}
	return t.e.queue[t.e.nodes[t.id].pos].when
}

// Engine is the event loop. The zero value is not usable; call NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	queue   []entry // 4-ary min-heap under before
	nodes   []node
	free    []int32 // ids of free nodes, reused before the slab grows
	stopped bool

	// Stats
	dispatched uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Dispatched reports how many events have fired so far.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// Scheduled reports how many events have ever been scheduled (the running
// sequence counter). Together with Dispatched it is the shard-count
// invariant the sharded engine folds into its fingerprint.
func (e *Engine) Scheduled() uint64 { return e.seq }

// owns reports whether tm is a pending timer of this engine.
func (e *Engine) owns(tm Timer) bool {
	return tm.e == e && tm.Pending()
}

// release frees node id. Bumping gen invalidates every outstanding Timer
// for the node's occupant.
func (e *Engine) release(id int32) {
	n := &e.nodes[id]
	n.fn = nil
	n.gen++
	n.pos = -1
	e.free = append(e.free, id)
}

// At schedules fn to run at absolute time t. Scheduling in the past (t <
// now) panics: it always indicates a modelling bug, and silently clamping
// would hide it.
func (e *Engine) At(t Time, fn func(now Time)) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	var id int32
	if n := len(e.free) - 1; n >= 0 {
		id = e.free[n]
		e.free = e.free[:n]
	} else {
		id = int32(len(e.nodes))
		e.nodes = append(e.nodes, node{})
	}
	e.nodes[id].fn = fn
	e.queue = append(e.queue, entry{})
	e.up(len(e.queue)-1, entry{when: t, seq: e.seq, id: id})
	e.seq++
	return Timer{e: e, id: id, gen: e.nodes[id].gen, fn: fn}
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func(now Time)) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel removes a scheduled event from the queue. Cancelling an
// already-fired or already-cancelled timer, the zero Timer, or a timer of
// another engine is a no-op; Cancel reports whether the event was still
// pending.
func (e *Engine) Cancel(tm Timer) bool {
	if !e.owns(tm) {
		return false
	}
	e.removeAt(int(e.nodes[tm.id].pos))
	e.release(tm.id)
	return true
}

// Reschedule moves a pending timer to a new absolute time and returns its
// new handle; the old one goes stale. The event is re-keyed in place with
// a fresh sequence number, exactly as if it had been cancelled and
// scheduled anew with At. If tm already fired or was cancelled, a fresh
// event running the same callback is scheduled anyway: callers use this
// for "extend the deadline" patterns where the deadline must end up at t
// regardless. A zero Timer carries no callback, so rescheduling it is a
// no-op returning another zero Timer. Rescheduling into the past panics
// and leaves tm pending.
func (e *Engine) Reschedule(tm Timer, t Time) Timer {
	if tm.fn == nil {
		return Timer{}
	}
	if !e.owns(tm) {
		return e.At(t, tm.fn)
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: rescheduling event at %v before now %v", t, e.now))
	}
	n := &e.nodes[tm.id]
	n.gen++
	e.fix(int(n.pos), entry{when: t, seq: e.seq, id: tm.id})
	e.seq++
	return Timer{e: e, id: tm.id, gen: n.gen, fn: tm.fn}
}

// Step dispatches the single next event. It reports false when the queue is
// empty or the engine has been stopped.
func (e *Engine) Step() bool {
	if e.stopped || len(e.queue) == 0 {
		return false
	}
	top := e.queue[0]
	if top.when < e.now {
		panic("sim: time went backwards")
	}
	fn := e.nodes[top.id].fn
	// Free the node before running fn so nested At calls can reuse it;
	// any Timer still naming it goes stale at the gen bump, exactly as a
	// fired event should.
	e.removeAt(0)
	e.release(top.id)
	e.now = top.when
	e.dispatched++
	fn(e.now)
	return true
}

// Run dispatches events until the queue drains or the engine is stopped.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil dispatches events with time ≤ deadline, then sets the clock to
// the deadline (if it is ahead) and returns. Events scheduled beyond the
// deadline remain queued.
func (e *Engine) RunUntil(deadline Time) {
	for !e.stopped && len(e.queue) > 0 && e.queue[0].when <= deadline {
		e.Step()
	}
	if e.now < deadline && !e.stopped {
		e.now = deadline
	}
}

// RunBefore dispatches events with time strictly < end without advancing
// the clock to the boundary: the clock is left at the last dispatched
// event. This is the shard-window primitive — the sharded engine runs every
// shard to a window boundary, delivers cross-shard messages at the barrier,
// and the messages (always ≥ one lookahead away) land exactly on or past
// the boundary.
func (e *Engine) RunBefore(end Time) {
	for !e.stopped && len(e.queue) > 0 && e.queue[0].when < end {
		e.Step()
	}
}

// NextLive peeks the earliest pending event time. Every queued event is
// live, so this is the heap top.
func (e *Engine) NextLive() (Time, bool) {
	if e.stopped || len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].when, true
}

// AdvanceClock moves the clock forward to t without dispatching anything;
// events already queued before t must have been dispatched (the sharded
// engine advances shard clocks to a common deadline after a window sweep).
// Moving backwards panics.
func (e *Engine) AdvanceClock(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: AdvanceClock to %v before now %v", t, e.now))
	}
	e.now = t
}

// Fingerprint summarises the engine's dynamic history — current time,
// events scheduled, events dispatched — as one comparable value. Two runs
// of the same deterministic model produce the same fingerprint; a single
// event firing at a different instant or in a different order changes it.
// Replay and determinism-regression tests compare fingerprints instead of
// whole event logs. Node recycling and the heap's layout are invisible
// here: they change neither seq nor the dispatch order.
func (e *Engine) Fingerprint() uint64 {
	return fingerprint(e.now, e.seq, e.dispatched)
}

// fingerprint is the FNV-1a hash of (now, scheduled, dispatched), each
// mixed as eight little-endian bytes; Engine and Sharded share it.
func fingerprint(now Time, scheduled, dispatched uint64) uint64 {
	const (
		offset = 14695981039346656037 // FNV-1a
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range [...]uint64{uint64(now), scheduled, dispatched} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	return h
}

// Stop halts the engine: Run/RunUntil/Step return immediately afterwards.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

// heapArity is the queue's fan-out. Four children per node halve the
// heap's depth against a binary heap, and a node's children are adjacent
// entries, so finding the smallest touches one or two cache lines.
const heapArity = 4

// set stores x at heap index i and records the index in x's node.
func (e *Engine) set(i int, x entry) {
	e.queue[i] = x
	e.nodes[x.id].pos = int32(i)
}

// up places x at index i or above, moving larger ancestors down.
func (e *Engine) up(i int, x entry) {
	for i > 0 {
		p := (i - 1) / heapArity
		if !before(x, e.queue[p]) {
			break
		}
		e.set(i, e.queue[p])
		i = p
	}
	e.set(i, x)
}

// down places x at index i or below, moving smaller children up.
func (e *Engine) down(i int, x entry) {
	q := e.queue
	for {
		c := heapArity*i + 1
		if c >= len(q) {
			break
		}
		m, end := c, min(c+heapArity, len(q))
		for j := c + 1; j < end; j++ {
			if before(q[j], q[m]) {
				m = j
			}
		}
		if !before(q[m], x) {
			break
		}
		e.set(i, q[m])
		i = m
	}
	e.set(i, x)
}

// fix stores x at index i, whose previous key may have been larger or
// smaller, and restores the heap order.
func (e *Engine) fix(i int, x entry) {
	if i > 0 && before(x, e.queue[(i-1)/heapArity]) {
		e.up(i, x)
	} else {
		e.down(i, x)
	}
}

// removeAt deletes the entry at index i, filling the hole with the last
// entry. The removed entry's node is left for the caller to release.
func (e *Engine) removeAt(i int) {
	last := len(e.queue) - 1
	x := e.queue[last]
	e.queue = e.queue[:last]
	if i < last {
		e.fix(i, x)
	}
}
