// Sharded parallel discrete-event execution.
//
// A Sharded engine partitions the event space across K shards, each a
// private Engine with its own heap, clock and free list. Model entities
// (simulated cores, core groups, whole machines) register as Endpoints
// pinned to one shard; everything an entity does locally is scheduled on
// its shard, and every interaction between entities on different shards
// goes through Endpoint.Send, which must carry at least Lookahead of
// virtual latency — the conservative bound of classic time-window
// parallel discrete-event simulation (for the single-machine model the
// natural bound is the calibrated minimum IPI delivery latency; for the
// cluster it is the front-end↔node wire delay).
//
// Execution proceeds in windows [t0, t0+Lookahead): t0 is the earliest
// live event across all shards, every shard dispatches its events
// strictly before the window end (in parallel when Parallel is set), and
// at the barrier all cross-shard sends buffered during the window are
// delivered in one canonical order. Because a send carries ≥ Lookahead of
// latency, nothing delivered at a barrier can land inside the window that
// produced it, so shards never observe each other mid-window.
//
// Determinism: results are byte-identical at every shard count, and with
// parallel execution on or off. Three properties carry the proof:
//
//  1. Window boundaries are shard-count invariant: t0 is the global
//     minimum over all shards, which depends only on the model state.
//  2. Cross-shard sends are buffered even when the source and target
//     share a shard (including K=1), and every barrier delivers them
//     sorted by (deliverTime, sender id, per-sender sequence) — all three
//     are properties of the sending entity, not of the shard layout.
//  3. Entities on the same shard interleave only at equal timestamps, and
//     entities by contract share no mutable state, so the interleaving
//     (which does vary with K) cannot change any observable outcome.
//
// A Sharded engine with one shard is the sequential reference the
// determinism sweeps compare against.
package sim

import (
	"fmt"
	"sort"
)

// ShardedConfig configures a Sharded engine.
type ShardedConfig struct {
	// Shards is the number of event shards (≥ 1).
	Shards int
	// Lookahead is the minimum virtual latency of every cross-shard send;
	// it is also the window width. Must be ≥ 1ns.
	Lookahead Time
	// Parallel dispatches windows across one goroutine per shard. Off,
	// shards run round-robin on the calling goroutine — byte-identical
	// results either way.
	Parallel bool
}

// crossEvent is one buffered cross-shard message. src and seq are the
// sending endpoint's id and running send counter: together with the
// delivery time they form the canonical barrier ordering, which depends
// only on the sending entity and therefore not on the shard count.
type crossEvent struct {
	deliver Time
	src     int
	seq     uint64
	dst     int // destination shard index
	fn      func(now Time)
}

// shard is one event partition: an engine plus the outbox of cross-shard
// sends buffered during the current window. During a parallel window a
// shard's outbox is appended to only by its own goroutine.
type shard struct {
	eng    *Engine
	outbox []crossEvent
}

// Sharded is a deterministic parallel event engine. Build with
// NewSharded, register Endpoints, then drive it with RunUntil/Run exactly
// like an Engine. Not safe for concurrent use by multiple goroutines —
// parallelism happens inside a window, never across calls.
type Sharded struct {
	cfg     ShardedConfig
	shards  []*shard
	eps     []*Endpoint
	now     Time
	stopped bool

	// deliverScratch is reused across barriers for the merge sort.
	deliverScratch []crossEvent

	// Persistent window workers (parallel mode). start[i] hands shard i
	// its next window end; done collects completions.
	workers bool
	start   []chan Time
	done    chan struct{}

	// Stats.
	windows  uint64
	barriers uint64
	crossed  uint64
}

// NewSharded builds a sharded engine. Shards < 1 or Lookahead < 1 panic:
// both always indicate a construction bug.
func NewSharded(cfg ShardedConfig) *Sharded {
	if cfg.Shards < 1 {
		panic(fmt.Sprintf("sim: sharded engine needs ≥ 1 shard, got %d", cfg.Shards))
	}
	if cfg.Lookahead < 1 {
		panic(fmt.Sprintf("sim: sharded lookahead %v must be ≥ 1ns", cfg.Lookahead))
	}
	s := &Sharded{cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, &shard{eng: NewEngine()})
	}
	return s
}

// Endpoint is one model entity pinned to a shard: the handle through
// which the entity schedules local events (Engine) and sends cross-shard
// messages (Send). Endpoints must be registered in a deterministic order
// — the registration index is part of the canonical barrier ordering.
type Endpoint struct {
	s       *Sharded
	id      int
	shardIx int
	sendSeq uint64
}

// NewEndpoint registers an entity on the given shard (index modulo the
// shard count, so callers can spread N entities over K shards with plain
// integer ids).
func (s *Sharded) NewEndpoint(shardIx int) *Endpoint {
	ep := &Endpoint{s: s, id: len(s.eps), shardIx: shardIx % len(s.shards)}
	s.eps = append(s.eps, ep)
	return ep
}

// Engine returns the endpoint's shard engine for entity-local scheduling.
// Everything scheduled here must touch only this entity's state.
func (ep *Endpoint) Engine() *Engine { return ep.s.shards[ep.shardIx].eng }

// Shard returns the index of the shard the endpoint lives on.
func (ep *Endpoint) Shard() int { return ep.shardIx }

// Send schedules fn on dst's shard after delay, which must be at least
// the engine's Lookahead — the conservative bound that lets shards run a
// whole window without observing each other. Sends are buffered and
// delivered at the next window barrier even when src and dst share a
// shard, so the delivery order (and with it every downstream byte) is
// identical at every shard count. Send must only be called from the
// sending endpoint's own shard (setup code before the first window also
// qualifies).
func (ep *Endpoint) Send(dst *Endpoint, delay Time, fn func(now Time)) {
	s := ep.s
	if delay < s.cfg.Lookahead {
		panic(fmt.Sprintf("sim: cross-shard send with delay %v below lookahead %v", delay, s.cfg.Lookahead))
	}
	if fn == nil {
		panic("sim: nil cross-shard callback")
	}
	src := s.shards[ep.shardIx]
	src.outbox = append(src.outbox, crossEvent{
		deliver: src.eng.Now() + delay,
		src:     ep.id,
		seq:     ep.sendSeq,
		dst:     dst.shardIx,
		fn:      fn,
	})
	ep.sendSeq++
}

// nextEventTime returns the earliest live event across all shards.
func (s *Sharded) nextEventTime() (Time, bool) {
	var t0 Time
	any := false
	for _, sh := range s.shards {
		if t, ok := sh.eng.NextLive(); ok && (!any || t < t0) {
			t0, any = t, true
		}
	}
	return t0, any
}

// runWindow dispatches every shard's events strictly before end.
func (s *Sharded) runWindow(end Time) {
	s.windows++
	if s.cfg.Parallel && len(s.shards) > 1 {
		s.ensureWorkers()
		for i := range s.shards {
			s.start[i] <- end
		}
		for range s.shards {
			<-s.done
		}
		return
	}
	for _, sh := range s.shards {
		sh.eng.RunBefore(end)
	}
}

// ensureWorkers lazily starts the persistent per-shard window workers.
func (s *Sharded) ensureWorkers() {
	if s.workers {
		return
	}
	s.workers = true
	s.done = make(chan struct{})
	s.start = make([]chan Time, len(s.shards))
	for i := range s.shards {
		ch := make(chan Time)
		s.start[i] = ch
		go func(sh *shard) {
			for end := range ch {
				sh.eng.RunBefore(end)
				s.done <- struct{}{}
			}
		}(s.shards[i])
	}
}

// Close terminates the window workers. Safe to call multiple times; the
// engine remains usable in serial mode afterwards.
func (s *Sharded) Close() {
	if !s.workers {
		return
	}
	s.workers = false
	for _, ch := range s.start {
		close(ch)
	}
	s.start = nil
}

// deliver flushes every outbox in the canonical order. Delivery schedules
// the message on the destination shard's heap, which assigns the local
// sequence numbers all same-instant ordering derives from — hence the
// sort must not depend on the shard layout, only on (time, sender,
// per-sender sequence).
func (s *Sharded) deliver() {
	pending := s.deliverScratch[:0]
	for _, sh := range s.shards {
		pending = append(pending, sh.outbox...)
		sh.outbox = sh.outbox[:0]
	}
	if len(pending) == 0 {
		s.deliverScratch = pending
		return
	}
	s.barriers++
	s.crossed += uint64(len(pending))
	sort.Slice(pending, func(i, j int) bool {
		a, b := pending[i], pending[j]
		if a.deliver != b.deliver {
			return a.deliver < b.deliver
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
	for _, ev := range pending {
		eng := s.shards[ev.dst].eng
		if ev.deliver < eng.Now() {
			panic(fmt.Sprintf("sim: cross-shard delivery at %v behind shard clock %v", ev.deliver, eng.Now()))
		}
		eng.At(ev.deliver, ev.fn)
	}
	for i := range pending {
		pending[i].fn = nil
	}
	s.deliverScratch = pending[:0]
}

// RunUntil advances the simulation through lookahead windows until every
// event at or before deadline has fired, then sets all clocks to the
// deadline — the sharded analogue of Engine.RunUntil.
func (s *Sharded) RunUntil(deadline Time) {
	for !s.stopped {
		t0, ok := s.nextEventTime()
		if !ok || t0 > deadline {
			break
		}
		end := t0 + s.cfg.Lookahead
		// The +1 keeps RunUntil's inclusive-deadline semantics: the window
		// end is exclusive, so events exactly at the deadline still run.
		if end > deadline+1 || end < t0 {
			end = deadline + 1
		}
		s.runWindow(end)
		s.deliver()
	}
	if !s.stopped {
		if s.now < deadline {
			s.now = deadline
		}
		for _, sh := range s.shards {
			if sh.eng.Now() < deadline {
				sh.eng.AdvanceClock(deadline)
			}
		}
	}
}

// Run advances windows until every shard's queue drains (or Stop).
func (s *Sharded) Run() {
	for !s.stopped {
		t0, ok := s.nextEventTime()
		if !ok {
			break
		}
		end := t0 + s.cfg.Lookahead
		if end < t0 { // overflow guard at the far end of virtual time
			end = t0 + 1
		}
		s.runWindow(end)
		s.deliver()
	}
	for _, sh := range s.shards {
		if sh.eng.Now() > s.now {
			s.now = sh.eng.Now()
		}
	}
}

// Now returns the virtual time the engine has been driven to. Between
// RunUntil calls this is the last deadline; entity code inside events
// should use its own shard engine's Now.
func (s *Sharded) Now() Time { return s.now }

// Stop halts the engine: all shards stop dispatching and RunUntil/Run
// return immediately afterwards.
func (s *Sharded) Stop() {
	s.stopped = true
	for _, sh := range s.shards {
		sh.eng.Stop()
	}
}

// Shards reports the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Dispatched reports the total events fired across all shards — a
// shard-count invariant (every event fires on exactly one shard).
func (s *Sharded) Dispatched() uint64 {
	var n uint64
	for _, sh := range s.shards {
		n += sh.eng.Dispatched()
	}
	return n
}

// Scheduled reports the total events ever scheduled across all shards,
// also shard-count invariant.
func (s *Sharded) Scheduled() uint64 {
	var n uint64
	for _, sh := range s.shards {
		n += sh.eng.Scheduled()
	}
	return n
}

// WindowStats reports how many windows ran, how many barriers delivered
// at least one message, and how many cross-shard messages flowed.
func (s *Sharded) WindowStats() (windows, barriers, crossed uint64) {
	return s.windows, s.barriers, s.crossed
}

// Fingerprint summarises the engine's dynamic history exactly like
// Engine.Fingerprint, built only from shard-count-invariant quantities:
// the global clock, total events scheduled and total events dispatched.
// Two runs of the same model agree on it at any shard count, parallel or
// serial.
func (s *Sharded) Fingerprint() uint64 {
	return fingerprint(s.now, s.Scheduled(), s.Dispatched())
}
