package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refEvent is one event of the reference queue: its key and what it does
// when it fires.
type refEvent struct {
	when  Time
	seq   uint64
	tag   int
	chain Time // > 0: firing schedules a follow-up this far ahead
}

// refEngine is the reference model of Engine: a slice kept sorted by
// (when, seq), plus the time of every queued seq. It is slow and
// obviously correct.
type refEngine struct {
	now        Time
	seq        uint64
	dispatched uint64
	queue      []refEvent
	queued     map[uint64]Time // seq → when, for every queued event
	log        []int
	handles    []refHandle
}

// refHandle mirrors a Timer: the seq of the event it was issued for (the
// event is pending while that seq is queued) and the callback it re-arms.
type refHandle struct {
	seq   uint64
	tag   int
	chain Time
	zero  bool
}

// index returns where the event keyed (when, seq) is, or belongs, in the
// sorted queue.
func (r *refEngine) index(when Time, seq uint64) int {
	i, _ := slices.BinarySearchFunc(r.queue, refEvent{when: when, seq: seq}, func(a, b refEvent) int {
		if a.when != b.when {
			return cmp.Compare(a.when, b.when)
		}
		return cmp.Compare(a.seq, b.seq)
	})
	return i
}

func (r *refEngine) at(t Time, tag int, chain Time) {
	ev := refEvent{when: t, seq: r.seq, tag: tag, chain: chain}
	r.seq++
	r.queue = slices.Insert(r.queue, r.index(ev.when, ev.seq), ev)
	r.queued[ev.seq] = ev.when
	r.handles = append(r.handles, refHandle{seq: ev.seq, tag: tag, chain: chain})
}

func (r *refEngine) pending(h refHandle) bool {
	_, ok := r.queued[h.seq]
	return !h.zero && ok
}

func (r *refEngine) when(h refHandle) Time {
	if !r.pending(h) {
		return -1
	}
	return r.queued[h.seq]
}

func (r *refEngine) cancel(h refHandle) bool {
	if !r.pending(h) {
		return false
	}
	i := r.index(r.queued[h.seq], h.seq)
	r.queue = slices.Delete(r.queue, i, i+1)
	delete(r.queued, h.seq)
	return true
}

// reschedule cancels h if pending and schedules its callback afresh; the
// zero handle schedules nothing and yields another zero handle.
func (r *refEngine) reschedule(h refHandle, t Time) {
	if h.zero {
		r.handles = append(r.handles, refHandle{zero: true})
		return
	}
	r.cancel(h)
	r.at(t, h.tag, h.chain)
}

func (r *refEngine) step() bool {
	if len(r.queue) == 0 {
		return false
	}
	ev := r.queue[0]
	r.queue = r.queue[1:]
	delete(r.queued, ev.seq)
	r.now = ev.when
	r.dispatched++
	r.log = append(r.log, ev.tag)
	if ev.chain > 0 {
		r.at(r.now+ev.chain, ev.tag+1_000_000, 0)
	}
	return true
}

func (r *refEngine) fingerprint() uint64 { return fingerprint(r.now, r.seq, r.dispatched) }

// queueHarness drives an Engine and a refEngine through the same ops.
// handles[i] and ref.handles[i] name the same logical timer; index 0 is
// the zero Timer.
type queueHarness struct {
	e       *Engine
	ref     *refEngine
	log     []int
	handles []Timer
}

func newQueueHarness() *queueHarness {
	return &queueHarness{
		e:       NewEngine(),
		ref:     &refEngine{queued: map[uint64]Time{}, handles: []refHandle{{zero: true}}},
		handles: []Timer{{}},
	}
}

// callback is the engine-side counterpart of a refEvent's behaviour.
func (h *queueHarness) callback(tag int, chain Time) func(Time) {
	return func(Time) {
		h.log = append(h.log, tag)
		if chain > 0 {
			h.at(h.e.Now()+chain, tag+1_000_000, 0)
		}
	}
}

func (h *queueHarness) at(t Time, tag int, chain Time) {
	h.handles = append(h.handles, h.e.At(t, h.callback(tag, chain)))
}

// apply runs one op on both sides and names it. kind picks the op; a
// and b are its arguments. A differing return value is an error. NextLive
// needs no op of its own: check compares it after every op.
func (h *queueHarness) apply(kind, a, b byte) (string, error) {
	e, r := h.e, h.ref
	handle := int(b) % len(h.handles)
	delta := Time(a%32) * 10 // coarse, so equal instants are common
	switch kind % 10 {
	case 0, 1:
		chain := Time(0)
		if b%4 == 0 {
			chain = Time(b%7) * 10
		}
		tag := len(h.handles)
		h.at(e.Now()+delta, tag, chain)
		r.at(r.now+delta, tag, chain)
		return fmt.Sprintf("At(+%v)", delta), nil
	case 2:
		tag := len(h.handles)
		h.handles = append(h.handles, e.After(delta, h.callback(tag, 0)))
		r.at(r.now+delta, tag, 0)
		return fmt.Sprintf("After(%v)", delta), nil
	case 3, 4:
		op := fmt.Sprintf("Cancel(#%d)", handle)
		if got, want := e.Cancel(h.handles[handle]), r.cancel(r.handles[handle]); got != want {
			return op, fmt.Errorf("%s = %v, want %v", op, got, want)
		}
		return op, nil
	case 5, 6:
		h.handles = append(h.handles, e.Reschedule(h.handles[handle], e.Now()+delta))
		r.reschedule(r.handles[handle], r.now+delta)
		return fmt.Sprintf("Reschedule(#%d, +%v)", handle, delta), nil
	case 7:
		if got, want := e.Step(), r.step(); got != want {
			return "Step", fmt.Errorf("Step = %v, want %v", got, want)
		}
		return "Step", nil
	case 8:
		deadline := e.Now() + delta
		e.RunUntil(deadline)
		for len(r.queue) > 0 && r.queue[0].when <= deadline {
			r.step()
		}
		r.now = max(r.now, deadline)
		return fmt.Sprintf("RunUntil(+%v)", delta), nil
	default:
		end := e.Now() + delta
		e.RunBefore(end)
		for len(r.queue) > 0 && r.queue[0].when < end {
			r.step()
		}
		return fmt.Sprintf("RunBefore(+%v)", delta), nil
	}
}

// check compares every observable of the two engines.
func (h *queueHarness) check() error {
	e, r := h.e, h.ref
	if !slices.Equal(h.log, r.log) {
		return fmt.Errorf("dispatch order %v, want %v", h.log, r.log)
	}
	if e.Now() != r.now || e.Pending() != len(r.queue) || e.Scheduled() != r.seq || e.Dispatched() != r.dispatched {
		return fmt.Errorf("now/pending/scheduled/dispatched = %v/%d/%d/%d, want %v/%d/%d/%d",
			e.Now(), e.Pending(), e.Scheduled(), e.Dispatched(), r.now, len(r.queue), r.seq, r.dispatched)
	}
	if e.Fingerprint() != r.fingerprint() {
		return fmt.Errorf("fingerprint %x, want %x", e.Fingerprint(), r.fingerprint())
	}
	next, ok := e.NextLive()
	if ok != (len(r.queue) > 0) || ok && next != r.queue[0].when {
		return fmt.Errorf("NextLive = %v,%v, want queue top %v", next, ok, r.queue)
	}
	if len(h.handles) != len(r.handles) {
		return fmt.Errorf("%d handles, want %d", len(h.handles), len(r.handles))
	}
	for i, tm := range h.handles {
		rh := r.handles[i]
		if tm.Pending() != r.pending(rh) || tm.When() != r.when(rh) {
			return fmt.Errorf("handle #%d: Pending/When = %v/%v, want %v/%v",
				i, tm.Pending(), tm.When(), r.pending(rh), r.when(rh))
		}
	}
	return checkHeap(e)
}

// checkHeap verifies the heap order and that every queued node records
// its own position.
func checkHeap(e *Engine) error {
	for i, x := range e.queue {
		if i > 0 && before(x, e.queue[(i-1)/heapArity]) {
			return fmt.Errorf("heap order broken at %d", i)
		}
		if got := e.nodes[x.id].pos; got != int32(i) {
			return fmt.Errorf("node %d records pos %d, queued at %d", x.id, got, i)
		}
	}
	return nil
}

// runQueueOps applies ops (three bytes each) and checks after every one.
func runQueueOps(t *testing.T, h *queueHarness, data []byte) {
	t.Helper()
	var trail []string
	for i := 0; i+2 < len(data); i += 3 {
		op, err := h.apply(data[i], data[i+1], data[i+2])
		trail = append(trail, op)
		if err == nil {
			err = h.check()
		}
		if err != nil {
			if len(trail) > 8 {
				trail = trail[len(trail)-8:]
			}
			t.Fatalf("op %d: %v (last ops %v)", i/3, err, trail)
		}
	}
}

// randomQueueOps draws n ops, weighting scheduling by pushWeight out of 10
// so a stream can grow the queue deep or keep it shallow.
func randomQueueOps(rng *rand.Rand, n, pushWeight int) []byte {
	var out []byte
	for i := 0; i < n; i++ {
		kind := byte(3 + rng.Intn(7))
		if rng.Intn(10) < pushWeight {
			kind = byte(rng.Intn(3))
		}
		out = append(out, kind, byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return out
}

// TestEngineQueueMatchesReference drives the engine and the sorted-slice
// reference through random op streams: a shallow mixed stream, a deep
// queue (over 240 pending, the 120-core depth) and heavy cancel and
// reschedule churn on top of the deep queue.
func TestEngineQueueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	t.Run("mixed", func(t *testing.T) {
		for s := 0; s < 20; s++ {
			runQueueOps(t, newQueueHarness(), randomQueueOps(rng, 300, 4))
		}
	})
	deep := func(t *testing.T) *queueHarness {
		h := newQueueHarness()
		runQueueOps(t, h, randomQueueOps(rng, 400, 10))
		if p := h.e.Pending(); p < 240 {
			t.Fatalf("deep queue holds %d pending, want ≥ 240", p)
		}
		return h
	}
	t.Run("deep", func(t *testing.T) {
		h := deep(t)
		runQueueOps(t, h, randomQueueOps(rng, 1500, 5))
	})
	t.Run("churn", func(t *testing.T) {
		h := deep(t)
		var ops []byte
		for i := 0; i < 1500; i++ {
			kind := []byte{3, 5, 6, 5, 7}[rng.Intn(5)]
			ops = append(ops, kind, byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		runQueueOps(t, h, ops)
	})
}

func FuzzEngineQueue(f *testing.F) {
	f.Add([]byte{0, 5, 0, 0, 5, 1, 7, 0, 0, 3, 0, 1, 7, 0, 0})
	f.Add([]byte{0, 1, 4, 0, 2, 8, 5, 9, 1, 8, 30, 0, 9, 2, 0, 6, 3, 2, 7, 0, 0})
	rng := rand.New(rand.NewSource(2))
	f.Add(randomQueueOps(rng, 300, 6))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every op checks every handle, so cost is quadratic in the
		// stream; 1000 ops are plenty to build a deep queue.
		if len(data) > 3000 {
			data = data[:3000]
		}
		runQueueOps(t, newQueueHarness(), data)
	})
}

// TestTimerForeignEngineInert: a Timer only acts on the engine that
// issued it.
func TestTimerForeignEngineInert(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	fired := 0
	tm := a.At(10, func(Time) { fired++ })
	b.At(10, func(Time) {}) // node 0 on b too, same gen
	if b.Cancel(tm) {
		t.Fatal("engine B cancelled engine A's timer")
	}
	if !tm.Pending() || a.Pending() != 1 || b.Pending() != 1 {
		t.Fatalf("foreign Cancel changed state: pending %v, A %d, B %d", tm.Pending(), a.Pending(), b.Pending())
	}
	a.Run()
	if fired != 1 {
		t.Fatalf("A's event fired %d times, want 1", fired)
	}
}

// TestRescheduleStalesOldHandle: Reschedule returns the live handle and
// the handle it was given no longer acts on the event.
func TestRescheduleStalesOldHandle(t *testing.T) {
	e := NewEngine()
	fired := []Time{}
	old := e.At(10, func(now Time) { fired = append(fired, now) })
	tm := e.Reschedule(old, 40)
	if old.Pending() || old.When() != -1 {
		t.Fatalf("old handle still pending (When %v)", old.When())
	}
	if !tm.Pending() || tm.When() != 40 {
		t.Fatalf("new handle Pending/When = %v/%v, want true/40", tm.Pending(), tm.When())
	}
	if e.Cancel(old) {
		t.Fatal("stale handle cancelled the rescheduled event")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if !slices.Equal(fired, []Time{40}) {
		t.Fatalf("fired at %v, want [40]", fired)
	}
}

// TestReschedulePastPanicsBeforeCancel: rescheduling into the past panics
// and leaves the timer queued where it was.
func TestReschedulePastPanicsBeforeCancel(t *testing.T) {
	e := NewEngine()
	e.At(20, func(Time) {})
	tm := e.At(50, func(Time) {})
	e.Step()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Reschedule into the past did not panic")
			}
		}()
		e.Reschedule(tm, 10)
	}()
	if !tm.Pending() || tm.When() != 50 || e.Pending() != 1 {
		t.Fatalf("after the panic: Pending %v, When %v, queue %d; want true, 50, 1", tm.Pending(), tm.When(), e.Pending())
	}
}
