package main

import (
	"math/rand/v2"
	"runtime"
	"time"

	"latr"
	"latr/internal/mem"
	"latr/internal/metrics"
	"latr/internal/obs"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/tlb"
)

// probeInputs shape the isolated layer probes after what the traced
// simulations measured.
type probeInputs struct {
	depth      int      // median pending events between Kernel.Run chunks
	hitRatio   float64  // TLB hit ratio
	workingSet int      // peak mapped pages
	names      []string // the simulations' metric names
	seed       uint64
}

// probeTrial is the minimum host time of one probe trial.
const probeTrial = 20 * time.Millisecond

// timeOps calibrates an iteration count so one trial lasts at least
// probeTrial, then runs three trials and returns the median ns and
// allocations per call of fn.
func timeOps(fn func(i int)) (nsPerOp, allocsPerOp float64) {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		if time.Since(t0) >= probeTrial/4 || n >= 1<<26 {
			break
		}
		n *= 4
	}
	n *= 4
	var ns, allocs []float64
	for trial := 0; trial < 3; trial++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(d.Nanoseconds())/float64(n))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return median(ns), median(allocs)
}

const streamLen = 1 << 16 // precomputed input stream, indexed modulo its length

func runProbes(in probeInputs) map[string]Metric {
	rng := rand.New(rand.NewPCG(in.seed, 0x5eed))
	out := map[string]Metric{}
	set := func(name string, v float64, unit string) { out[name] = Metric{v, unit} }

	// Engine heap: the hold model at the measured depth — each call
	// schedules one event a random delay ahead and dispatches the earliest.
	eng := sim.NewEngine()
	noop := func(sim.Time) {}
	delays := make([]sim.Time, streamLen)
	for i := range delays {
		delays[i] = sim.Time(rng.Int64N(int64(sim.Millisecond)))
	}
	for i := 0; i < max(in.depth, 1); i++ {
		eng.At(delays[i%streamLen], noop)
	}
	ns, allocs := timeOps(func(i int) {
		eng.At(eng.Now()+delays[i%streamLen], noop)
		eng.Step()
	})
	set("sim.heap_ns_per_event", ns, "ns")
	set("sim.heap_allocs_per_event", allocs, "count")

	// TLB: lookups at the measured hit ratio. Hits draw from a resident
	// hot set the size of the working set (capped at the TLB's reach);
	// misses draw from pages never inserted, so the probe times Lookup
	// alone, as the simulations' lookup counts do.
	spec := latr.TwoSocket16
	t := tlb.New(0, spec.L1TLBEntries, spec.L2TLBEntries, nil)
	hot := min(max(in.workingSet, 1), spec.L1TLBEntries+spec.L2TLBEntries)
	for v := 0; v < hot; v++ {
		t.Insert(tlb.Tag{}, pt.VPN(v), mem.PFN(v), true)
	}
	stream := make([]pt.VPN, streamLen)
	for i := range stream {
		if rng.Float64() < in.hitRatio {
			stream[i] = pt.VPN(rng.IntN(hot))
		} else {
			stream[i] = pt.VPN(1<<30 + i)
		}
	}
	ns, allocs = timeOps(func(i int) { t.Lookup(tlb.Tag{}, stream[i%streamLen]) })
	set("tlb.lookup_ns", ns, "ns")
	set("tlb.lookup_allocs", allocs, "count")
	var sinkTLB *tlb.TLB
	ns, _ = timeOps(func(int) { sinkTLB = tlb.New(0, spec.L1TLBEntries, spec.L2TLBEntries, nil) })
	runtime.KeepAlive(sinkTLB)
	set("tlb.new_ns", ns, "ns")

	// Page table: walks of random pages of a table holding the measured
	// number of mapped pages.
	table := pt.New()
	pages := max(in.workingSet, 1)
	const base = pt.VPN(0x10000)
	for i := 0; i < pages; i++ {
		if err := table.Map(base+pt.VPN(i), mem.PFN(i), true); err != nil {
			panic(err)
		}
	}
	walks := make([]pt.VPN, streamLen)
	for i := range walks {
		walks[i] = base + pt.VPN(rng.IntN(pages))
	}
	ns, _ = timeOps(func(i int) { table.Walk(walks[i%streamLen], false) })
	set("pt.walk_ns", ns, "ns")

	// Observability span: one Begin → Mark → Release lifecycle.
	col := obs.NewCollector("latr", metrics.NewRegistry(), nil, 0)
	ns, _ = timeOps(func(i int) {
		now := sim.Time(i)
		s := col.Begin(obs.KindMunmap, 0, pt.VPN(i), 1, now)
		s.Mark(obs.PhaseSend, 0, now, 10)
		s.Release(now + 20)
	})
	set("obs.span_ns", ns, "ns")

	// Metrics registry over the simulations' own metric names.
	names := in.names
	if len(names) == 0 {
		names = []string{"sys.munmap"}
	}
	reg := metrics.NewRegistry()
	ns, _ = timeOps(func(i int) { reg.Inc(names[i%len(names)], 1) })
	set("metrics.inc_ns", ns, "ns")
	ns, _ = timeOps(func(i int) { reg.Observe(names[i%len(names)], sim.Time(i)) })
	set("metrics.observe_ns", ns, "ns")

	// Kernel construction: latr.NewSystem as the litmus and scale120 runs
	// build it (auditor on), and the live heap the system holds.
	for _, m := range []struct {
		name string
		spec latr.MachineSpec
	}{{"2x8", latr.TwoSocket16}, {"8x15", latr.EightSocket120}} {
		var ms, kb []float64
		for trial := 0; trial < 5; trial++ {
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			sys := latr.NewSystem(latr.Config{Machine: m.spec, Policy: latr.PolicyLATR, Audit: true, Seed: in.seed})
			ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
			runtime.GC()
			runtime.ReadMemStats(&m1)
			kb = append(kb, (float64(m1.HeapAlloc)-float64(m0.HeapAlloc))/1024)
			runtime.KeepAlive(sys)
		}
		set("kernel.new_ms."+m.name, median(ms), "ms")
		set("kernel.new_kb."+m.name, median(kb), "KiB")
	}
	return out
}
