package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// simStats accumulates what the traced run reads from facade-built
// simulations.
type simStats struct {
	sims                   int
	newSystemNS, setupNS   float64 // untraced: latr.NewSystem, workload Setup
	runNS                  float64 // untraced host time inside Kernel.Run
	tracedNS, untracedNS   float64 // build + run, traced and untraced, median per simulation
	events, scheduled      uint64
	mallocs, bytes         uint64 // around the untraced Kernel.Run chunks
	pending                []float64
	mappedPeak             int
	lookups, hits, invals  uint64
	shootdowns, fallbacks  uint64
	sweepVisits            uint64
	munmapSum, munmapCount map[string]float64 // by policy, in µs × count
	metricNames            []string
}

// layerReport is the traced run's result.
type layerReport struct {
	tracer    *tracer
	stats     simStats
	probes    map[string]Metric
	attempted int
	failed    int
	failures  []string
	w         workload
}

func (l *layerReport) check(what string, problems []string) {
	l.attempted++
	if len(problems) > 0 {
		l.failed++
		l.failures = append(l.failures, what+": "+strings.Join(problems, "; "))
	}
}

// The tracing overhead of one simulation is the median over untraced and
// traced pairs of runs: at least overheadMinPairs of them, and more until
// the untraced runs add up to overheadMinSeconds, so that simulations of a
// millisecond or two are still timed over tens of milliseconds.
const (
	overheadMinPairs   = 3
	overheadMinSeconds = 0.05
)

// traceLayers runs each of the workload's facade-built simulations once
// untraced to read its layer counts, then in untraced and traced pairs to
// time the tracing overhead. Every run must give the engine and metrics
// fingerprints of the first. Then it runs the isolated layer probes with
// inputs shaped by what the simulations measured.
func traceLayers(w workload, seed uint64) *layerReport {
	l := &layerReport{tracer: newTracer(), w: w}
	st := &l.stats
	st.munmapSum, st.munmapCount = map[string]float64{}, map[string]float64{}
	for _, spec := range w.layerSims() {
		plain, err := l.runUntraced(spec)
		if err != nil {
			l.check(spec.name, []string{err.Error()})
			continue
		}
		problems := plain.problems(spec)
		var untracedNS, tracedNS []float64
		for tr := l.tracer; len(untracedNS) < overheadMinPairs || sum(untracedNS) < overheadMinSeconds*1e9; tr = newTracer() {
			u, uNS, err := runTimed(spec, nil)
			if err != nil {
				problems = append(problems, err.Error())
				break
			}
			t, tNS, err := runTimed(spec, tr)
			if err != nil {
				problems = append(problems, err.Error())
				break
			}
			untracedNS, tracedNS = append(untracedNS, uNS), append(tracedNS, tNS)
			if !u.sameAs(plain) || !t.sameAs(plain) {
				problems = append(problems, fmt.Sprintf("run %d differs: engine %016x/%016x/%016x metrics %016x/%016x/%016x (first/untraced/traced)",
					len(untracedNS), plain.engineFP, u.engineFP, t.engineFP, plain.metricsFP, u.metricsFP, t.metricsFP))
				break
			}
		}
		st.untracedNS += median(untracedNS)
		st.tracedNS += median(tracedNS)
		l.check("trace-fidelity/"+spec.name, problems)
	}
	l.probes = runProbes(probeInputs{
		depth:      int(median(st.pending)),
		hitRatio:   ratio(float64(st.hits), float64(st.lookups)),
		workingSet: st.mappedPeak,
		names:      st.metricNames,
		seed:       seed,
	})
	return l
}

// runUntraced runs one simulation without the decorator, reading its
// layer counts: heap depth and mapped pages between chunks, allocations
// around each chunk.
func (l *layerReport) runUntraced(spec simSpec) (simOutcome, error) {
	st := &l.stats
	runtime.GC()
	f, err := buildSim(spec, nil)
	if err != nil {
		return simOutcome{}, err
	}
	k := f.sys.Kernel()
	var ms0, ms1 runtime.MemStats
	var run time.Duration
	for !f.finished() {
		runtime.ReadMemStats(&ms0)
		c0 := time.Now()
		f.step(nil)
		run += time.Since(c0)
		runtime.ReadMemStats(&ms1)
		st.mallocs += ms1.Mallocs - ms0.Mallocs
		st.bytes += ms1.TotalAlloc - ms0.TotalAlloc
		st.pending = append(st.pending, float64(k.Engine.Pending()))
		mapped := 0
		for _, p := range k.Processes() {
			mapped += p.MM.PT.Mapped()
		}
		st.mappedPeak = max(st.mappedPeak, mapped)
	}
	out := f.outcome()

	st.sims++
	st.newSystemNS += float64(f.newDur.Nanoseconds())
	st.setupNS += float64(f.setupDur.Nanoseconds())
	st.runNS += float64(run.Nanoseconds())
	st.events += out.events
	st.scheduled += out.scheduled
	for _, c := range k.Cores {
		s := c.TLB.Stats
		st.lookups += s.Hits + s.Misses
		st.hits += s.Hits
		st.invals += s.Invlpg + s.FullFlushes
	}
	reg := f.sys.Metrics()
	st.shootdowns += reg.Counter("shootdown.initiated")
	st.fallbacks += reg.Counter("latr.fallback_ipi")
	st.sweepVisits += reg.Hist("latr.sweep_visit").Count()
	if h := reg.Hist("munmap.latency"); h.Count() > 0 {
		st.munmapSum[spec.policy] += float64(h.Mean()) / 1e3 * float64(h.Count())
		st.munmapCount[spec.policy] += float64(h.Count())
	}
	if len(reg.Names()) > len(st.metricNames) {
		st.metricNames = reg.Names()
	}
	return out, nil
}

// runTimed builds and runs one simulation and returns its outcome and the
// host nanoseconds of both. With a tracer the policy is wrapped in the
// timing decorator and NewSystem, workload Setup and every Kernel.Run
// chunk are spans.
func runTimed(spec simSpec, tr *tracer) (simOutcome, float64, error) {
	runtime.GC()
	t0 := time.Now()
	tr.begin("sim")
	f, err := buildSim(spec, tr)
	if err != nil {
		tr.end()
		return simOutcome{}, 0, err
	}
	for !f.finished() {
		f.step(tr)
	}
	tr.end()
	return f.outcome(), float64(time.Since(t0).Nanoseconds()), nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// policyCalls are the decorator's span names per policy, in metric order.
var policyCalls = []string{"munmap", "tick", "ctxswitch", "page_touch"}

// metrics assembles the --trace 1 metric set.
func (l *layerReport) metrics(m *measurement, res Result) map[string]Metric {
	st := &l.stats
	out := map[string]Metric{}
	set := func(name string, v float64, unit string) { out[name] = Metric{v, unit} }
	p := func(name string) float64 { return l.probes[name].Value }

	attempted := res.Attempted
	set("error_rate", ratio(float64(res.Failed), float64(attempted)), "ratio")
	set("events_per_s", ratio(float64(st.events), st.runNS/1e9), "1/s")
	set("op_p50_ms", median(m.opMS), "ms")
	tailV, tailP := tail(m.opMS)
	set("op_tail_ms", tailV, "ms")
	set("op_tail_pct", tailP, "%")
	set("op_samples", float64(len(m.opMS)), "count")
	set("peak_rss_mb", m.peakRSSMB, "MB")
	set("trace.overhead_ratio", ratio(st.tracedNS, st.untracedNS)-1, "ratio")

	set("sim.events", float64(st.events), "count")
	set("sim.cancelled_ratio", 1-ratio(float64(st.events), float64(st.scheduled)), "ratio")
	set("sim.pending_p50", median(st.pending), "count")
	set("sim.heap_ns_per_event", p("sim.heap_ns_per_event"), "ns")
	set("sim.heap_allocs_per_event", p("sim.heap_allocs_per_event"), "count")
	set("sim.heap_share", ratio(p("sim.heap_ns_per_event")*float64(st.events), st.runNS), "ratio")

	set("kernel.run_ns_per_event", ratio(st.runNS, float64(st.events)), "ns")
	set("kernel.allocs_per_event", ratio(float64(st.mallocs), float64(st.events)), "count")
	set("kernel.bytes_per_event", ratio(float64(st.bytes), float64(st.events)), "B")
	for _, t := range []string{"2x8", "8x15"} {
		set("kernel.new_ms."+t, p("kernel.new_ms."+t), "ms")
		set("kernel.new_kb."+t, p("kernel.new_kb."+t), "KiB")
	}

	set("tlb.lookups", float64(st.lookups), "count")
	set("tlb.hit_ratio", ratio(float64(st.hits), float64(st.lookups)), "ratio")
	set("tlb.invalidations", float64(st.invals), "count")
	set("tlb.lookups_per_event", ratio(float64(st.lookups), float64(st.events)), "ratio")
	set("tlb.lookup_ns", p("tlb.lookup_ns"), "ns")
	set("tlb.lookup_allocs", p("tlb.lookup_allocs"), "count")
	set("tlb.new_ns", p("tlb.new_ns"), "ns")
	set("tlb.share", ratio(float64(st.lookups)*p("tlb.lookup_ns"), st.runNS), "ratio")

	set("pt.walk_ns", p("pt.walk_ns"), "ns")
	set("pt.mapped_pages", float64(st.mappedPeak), "count")

	var policySelf float64
	for _, pol := range []string{"latr", "linux"} {
		for _, call := range policyCalls {
			lt := l.tracer.layer("policy." + pol + "." + call)
			set("policy."+pol+"."+call+"_calls", float64(lt.Calls), "count")
			set("policy."+pol+"."+call+"_ns", ratio(float64(lt.SelfNS), float64(lt.Calls)), "ns")
		}
	}
	for name, lt := range l.tracer.agg {
		if strings.HasPrefix(name, "policy.") {
			policySelf += float64(lt.SelfNS)
		}
	}
	set("policy.share", ratio(policySelf, float64(l.tracer.layer("kernel.Run").TotalNS)), "ratio")

	set("obs.span_ns", p("obs.span_ns"), "ns")
	set("metrics.inc_ns", p("metrics.inc_ns"), "ns")
	set("metrics.observe_ns", p("metrics.observe_ns"), "ns")
	set("metrics.names", float64(len(st.metricNames)), "count")
	set("workload.setup_ms", ratio(st.setupNS, float64(st.sims))/1e6, "ms")

	set("runtime.alloc_mb", m.allocMB, "MB")
	set("runtime.gc_cycles", m.gcCycles, "count")
	set("runtime.gc_cpu_s", m.gcCPUSec, "s")

	set("model.shootdowns", float64(st.shootdowns), "count")
	set("model.fallback_ipis", float64(st.fallbacks), "count")
	set("model.sweep_visits", float64(st.sweepVisits), "count")
	for _, pol := range []string{"latr", "linux"} {
		set("model.munmap_us_mean."+pol, ratio(st.munmapSum[pol], st.munmapCount[pol]), "us")
	}

	// Runs per host second and the share of host time spent building
	// kernels: the litmus corpus itself on litmus, the facade-built
	// simulations elsewhere.
	wall := median(m.reps)
	runsPerS := ratio(float64(st.sims), (st.untracedNS)/1e9)
	newShare := ratio(st.newSystemNS, st.untracedNS)
	var runs, skipped float64
	if lw, ok := l.w.(*litmusWorkload); ok {
		runs, skipped = float64(lw.runs), float64(lw.skipped)
		runsPerS = ratio(runs, wall)
		newMS := float64(lw.runsByTopology["2x8"])*p("kernel.new_ms.2x8") +
			float64(lw.runsByTopology["8x15"])*p("kernel.new_ms.8x15")
		newShare = ratio(newMS/1e3, wall)
	}
	set("runs_per_s", runsPerS, "1/s")
	set("kernel.new_share", newShare, "ratio")
	set("litmus.runs", runs, "count")
	set("litmus.skipped", skipped, "count")
	return out
}
