package sim

import (
	"testing"
)

// shardModel is a synthetic multi-entity workload exercising everything
// the determinism argument covers: per-entity local timers (including
// same-instant ones), cross-shard sends between every pair of entities,
// sends that land at identical delivery times from different sources, and
// message-triggered follow-on sends. Each entity appends every observed
// (time, tag) pair to a shared log guarded by the barrier ordering; the
// log digest must be byte-identical at every shard count.
type shardModel struct {
	s   *Sharded
	eps []*Endpoint
	rng []*Rand
	log []uint64 // (time, entity, tag) mixed per observation, in order per entity
	// obs[i] collects entity i's observations; logs are per-entity because
	// same-timestamp interleaving ACROSS entities legitimately varies with
	// the shard layout — the model contract is that entities share no state.
	obs [][]uint64
}

func newShardModel(entities, shards int, parallel bool) *shardModel {
	m := &shardModel{
		s: NewSharded(ShardedConfig{
			Shards:    shards,
			Lookahead: 5 * Microsecond,
			Parallel:  parallel,
		}),
		obs: make([][]uint64, entities),
	}
	for i := 0; i < entities; i++ {
		m.eps = append(m.eps, m.s.NewEndpoint(i))
		m.rng = append(m.rng, NewRand(uint64(1000+i)))
	}
	for i := range m.eps {
		i := i
		m.eps[i].Engine().At(Time(i)*Microsecond, func(now Time) { m.tick(i, now, 0) })
	}
	return m
}

func (m *shardModel) note(i int, now Time, tag uint64) {
	m.obs[i] = append(m.obs[i], uint64(now)*31+uint64(i)*7+tag)
}

// tick is one entity's local step: record, schedule local follow-ups
// (two at the same instant, to pin same-time ordering), occasionally
// cancel one, and fire cross-shard messages to a pseudo-random peer.
func (m *shardModel) tick(i int, now Time, depth uint64) {
	m.note(i, now, depth)
	if depth >= 12 {
		return
	}
	ep, r := m.eps[i], m.rng[i]
	eng := ep.Engine()
	d := Time(r.Intn(3000)) + 1
	eng.After(d, func(t Time) { m.tick(i, t, depth+1) })
	tm := eng.After(d, func(t Time) { m.note(i, t, 99) })
	if r.Intn(3) == 0 {
		eng.Cancel(tm)
	}
	if r.Intn(2) == 0 {
		peer := (i + 1 + r.Intn(len(m.eps)-1)) % len(m.eps)
		// Fixed delay: messages from different sources collide at the same
		// delivery instant, exercising the canonical (src, seq) tiebreak.
		ep.Send(m.eps[peer], 5*Microsecond, func(t Time) {
			m.note(peer, t, 500+uint64(i))
			if depth < 10 {
				m.eps[peer].Send(m.eps[i], 6*Microsecond, func(t2 Time) {
					m.note(i, t2, 700+uint64(peer))
				})
			}
		})
	}
}

func (m *shardModel) digest() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	mix(m.s.Fingerprint())
	for i, o := range m.obs {
		mix(uint64(i))
		mix(uint64(len(o)))
		for _, v := range o {
			mix(v)
		}
	}
	return h
}

func runShardModel(entities, shards int, parallel bool, deadline Time) uint64 {
	m := newShardModel(entities, shards, parallel)
	defer m.s.Close()
	m.s.RunUntil(deadline)
	return m.digest()
}

// TestShardedByteIdentical is the core determinism sweep: the same model
// at 1/2/4/8 shards, serial and parallel, must produce identical digests
// (engine fingerprint + every entity's full observation history).
func TestShardedByteIdentical(t *testing.T) {
	const entities = 9
	deadline := 2 * Millisecond
	want := runShardModel(entities, 1, false, deadline)
	if want == 0 {
		t.Fatal("reference digest is zero — model did not run")
	}
	for _, shards := range []int{1, 2, 4, 8} {
		for _, par := range []bool{false, true} {
			got := runShardModel(entities, shards, par, deadline)
			if got != want {
				t.Errorf("shards=%d parallel=%v: digest %#x, want %#x (sequential reference)",
					shards, par, got, want)
			}
		}
	}
}

// TestShardedRunDrains checks Run (no deadline) reaches the same final
// state at every shard count and actually drains the queues.
func TestShardedRunDrains(t *testing.T) {
	run := func(shards int, parallel bool) (uint64, uint64) {
		m := newShardModel(6, shards, parallel)
		defer m.s.Close()
		m.s.Run()
		return m.digest(), m.s.Dispatched()
	}
	wantDigest, wantN := run(1, false)
	if wantN == 0 {
		t.Fatal("no events dispatched")
	}
	for _, shards := range []int{2, 4} {
		d, n := run(shards, true)
		if d != wantDigest || n != wantN {
			t.Errorf("shards=%d: digest %#x/%d events, want %#x/%d", shards, d, n, wantDigest, wantN)
		}
	}
}

// TestShardedCountsInvariant pins the fingerprint inputs: total scheduled
// and dispatched counts are identical across shard counts.
func TestShardedCountsInvariant(t *testing.T) {
	stats := func(shards int) (uint64, uint64) {
		m := newShardModel(5, shards, false)
		m.s.RunUntil(Millisecond)
		return m.s.Scheduled(), m.s.Dispatched()
	}
	s1, d1 := stats(1)
	s4, d4 := stats(4)
	if s1 != s4 || d1 != d4 {
		t.Fatalf("scheduled/dispatched vary with shards: 1→(%d,%d) 4→(%d,%d)", s1, d1, s4, d4)
	}
}

// TestShardedLookaheadViolationPanics: a send below the lookahead bound
// would let a message land inside the window that produced it — the
// engine must refuse loudly, not corrupt determinism silently.
func TestShardedLookaheadViolationPanics(t *testing.T) {
	s := NewSharded(ShardedConfig{Shards: 2, Lookahead: 5 * Microsecond})
	a, b := s.NewEndpoint(0), s.NewEndpoint(1)
	defer func() {
		if recover() == nil {
			t.Fatal("send below lookahead did not panic")
		}
	}()
	a.Send(b, 4*Microsecond, func(Time) {})
}

// TestShardedWindowStats sanity-checks that a multi-shard run actually
// exercises the window machinery (windows advance, messages cross).
func TestShardedWindowStats(t *testing.T) {
	m := newShardModel(6, 4, false)
	m.s.RunUntil(Millisecond)
	w, _, crossed := m.s.WindowStats()
	if w == 0 {
		t.Fatal("no windows ran")
	}
	if crossed == 0 {
		t.Fatal("no cross-shard messages flowed — model not exercising barriers")
	}
}

// TestShardedStop: stopping mid-run halts promptly and Close is
// idempotent.
func TestShardedStop(t *testing.T) {
	m := newShardModel(4, 2, true)
	m.s.RunUntil(100 * Microsecond)
	m.s.Stop()
	m.s.RunUntil(Millisecond) // must return immediately
	m.s.Close()
	m.s.Close()
}

// TestMassCancellationLeavesOnlyLive: schedule n far-future timers and
// cancel them all (the cluster hedging pattern — losers of every hedge
// race get cancelled). Cancel removes entries eagerly, so the queue holds
// exactly the one live sentinel afterwards and the run dispatches only it.
func TestMassCancellationLeavesOnlyLive(t *testing.T) {
	const n = 100_000
	e := NewEngine()
	timers := make([]Timer, 0, n)
	for i := 0; i < n; i++ {
		timers = append(timers, e.After(Time(1000+i), func(Time) {}))
	}
	// One live sentinel beyond them all so the queue never empties.
	e.At(Time(10_000_000), func(Time) {})
	for _, tm := range timers {
		e.Cancel(tm)
	}
	if got := len(e.queue); got != 1 {
		t.Fatalf("queue holds %d entries after %d cancels, want 1 (the sentinel)", got, n)
	}
	e.Run()
	if got := e.Dispatched(); got != 1 {
		t.Fatalf("dispatched %d events, want 1 (the sentinel)", got)
	}
}

// TestMassCancelLeavesNoCancelledEntries: after cancelling back-to-front
// (so the heap top stays live until the last moment) no cancelled entry
// remains queued, and Run drains the queue.
func TestMassCancelLeavesNoCancelledEntries(t *testing.T) {
	e := NewEngine()
	var timers []Timer
	for i := 0; i < 1000; i++ {
		timers = append(timers, e.After(Time(i+1), func(Time) {}))
	}
	e.At(2000, func(Time) {})
	for i := len(timers) - 1; i >= 0; i-- {
		e.Cancel(timers[i])
	}
	for _, x := range e.queue {
		if x.when != 2000 {
			t.Fatalf("cancelled entry at %v still queued", x.when)
		}
	}
	if len(e.queue) != 1 {
		t.Fatalf("queue holds %d entries, want 1", len(e.queue))
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("queue not drained: %d pending", e.Pending())
	}
}
