package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"latr"
)

// Every workload runs sequentially: one experiment/suite worker at the
// default GOMAXPROCS, so the garbage collector's background worker has a
// core of its own on a small machine.
const workers = 1

// Set-up takes well under a millisecond on some workloads, too short to
// time one at a time, so it is timed in calibrated batches: the batch size
// doubles until one batch lasts setupBatchSeconds, then setupBatches
// batches are timed. One sample is a batch's mean set-up time.
const (
	setupBatches      = 15
	setupBatchSeconds = 0.04
)

// extensionIDs are the experiments beyond the paper's own evaluation.
var extensionIDs = []string{"cluster", "virt", "ptrepl", "tune"}

// workload is one benchmark input set.
type workload interface {
	// setup generates the inputs of the next repetition. It runs before
	// every repetition and is timed as set-up.
	setup() error
	// rep runs one repetition's operations through r. ref marks the
	// untimed warm-up repetition whose outputs later repetitions must
	// reproduce.
	rep(r *recorder, ref bool)
	// layerSims lists the facade-built simulations the traced run reads
	// layer counts from.
	layerSims() []simSpec
}

func workloadNames() []string { return []string{"paper", "scale120", "litmus", "extensions"} }

func newWorkload(name string, seed uint64, root string) (workload, error) {
	switch name {
	case "paper":
		return &experimentsWorkload{ids: latr.PaperExperiments(), seed: seed, root: root}, nil
	case "extensions":
		return &experimentsWorkload{ids: extensionIDs, seed: seed, root: root}, nil
	case "scale120":
		return &scaleWorkload{seed: seed, iters: scaleIters}, nil
	case "litmus":
		return &litmusWorkload{seed: seed, count: litmusCount, policies: latr.LitmusPolicies()}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
}

// measurement is what the untimed warm-up and the timed repetitions of
// one run produced.
type measurement struct {
	setups    []float64 // host seconds per set-up, one mean per calibrated batch
	reps      []float64 // host seconds of each timed repetition's operations
	opMS      []float64 // per-operation host latency in timed repetitions
	opSeconds map[string][]float64
	attempted int
	failed    int
	failures  []string
	extras    map[string]Metric

	peakRSSMB                   float64
	allocMB, gcCycles, gcCPUSec float64 // per timed repetition
}

// recorder times one repetition's operations and counts their checks.
type recorder struct {
	m     *measurement
	timed bool
	wall  float64
}

// op runs fn as one timed operation and returns its host seconds.
func (r *recorder) op(name string, fn func()) float64 {
	t0 := time.Now()
	fn()
	d := time.Since(t0).Seconds()
	r.wall += d
	if r.timed {
		r.m.opMS = append(r.m.opMS, d*1e3)
		r.m.opSeconds[name] = append(r.m.opSeconds[name], d)
	}
	return d
}

// check counts one checked operation; problems mark it failed.
func (r *recorder) check(what string, problems []string) {
	r.m.attempted++
	if len(problems) > 0 {
		r.m.failed++
		r.m.failures = append(r.m.failures, what+": "+strings.Join(problems, "; "))
	}
}

// measure runs the warm-up repetition, then timed repetitions until
// seconds have passed (at least one).
func measure(w workload, seconds float64) *measurement {
	m := &measurement{opSeconds: map[string][]float64{}, extras: map[string]Metric{}}
	doSetup := func() bool {
		if err := w.setup(); err != nil {
			m.attempted++
			m.failed++
			m.failures = append(m.failures, "setup: "+err.Error())
			return false
		}
		return true
	}
	if !doSetup() {
		return m
	}
	w.rep(&recorder{m: m}, true)

	var ms0, ms1 runtime.MemStats
	gc0 := gcCPUSeconds()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for len(m.reps) == 0 || time.Since(start).Seconds() < seconds {
		if !doSetup() {
			return m
		}
		r := &recorder{m: m, timed: true}
		w.rep(r, false)
		m.reps = append(m.reps, r.wall)
	}
	runtime.ReadMemStats(&ms1)
	n := float64(len(m.reps))
	m.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / n
	m.gcCycles = float64(ms1.NumGC-ms0.NumGC) / n
	m.gcCPUSec = (gcCPUSeconds() - gc0) / n
	m.peakRSSMB = peakRSSMB()
	timeSetups(m, doSetup)
	return m
}

// timeSetups fills m.setups with setupBatches calibrated batch means.
// Every batch starts after a forced GC, so a collection left over from
// the repetitions does not share the set-up's cores.
func timeSetups(m *measurement, doSetup func() bool) {
	batch := func(n int) (float64, bool) {
		runtime.GC()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if !doSetup() {
				return 0, false
			}
		}
		return time.Since(t0).Seconds(), true
	}
	n := 1
	for {
		d, ok := batch(n)
		if !ok {
			return
		}
		if d >= setupBatchSeconds {
			break
		}
		n *= 2
	}
	for len(m.setups) < setupBatches {
		d, ok := batch(n)
		if !ok {
			return
		}
		m.setups = append(m.setups, d/float64(n))
	}
}

// endToEnd is the --trace 0 metric set.
func (m *measurement) endToEnd() map[string]Metric {
	return map[string]Metric{
		"wall_s":  {median(m.reps), "s"},
		"setup_s": {median(m.setups), "s"},
	}
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// peakRSSMB reads the process's peak resident set (VmHWM); 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// experimentsWorkload regenerates quick-mode experiments through
// latr.RunExperiment; one operation is one experiment.
type experimentsWorkload struct {
	ids  []string
	seed uint64
	root string

	opts      latr.ExperimentOptions
	baselines map[string]latr.BenchJSON
	ref       map[string]string
}

func (w *experimentsWorkload) setup() error {
	w.opts = latr.ExperimentOptions{Quick: true, Seed: w.seed, Workers: workers}
	w.baselines = map[string]latr.BenchJSON{}
	for _, id := range w.ids {
		path := filepath.Join(w.root, "baselines", "BENCH_"+id+".json")
		b, err := latr.LoadBenchJSON(path)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		w.baselines[id] = b
	}
	return nil
}

func (w *experimentsWorkload) rep(r *recorder, ref bool) {
	if ref {
		w.ref = map[string]string{}
	}
	for _, id := range w.ids {
		var tbl *latr.ExperimentTable
		var err error
		wall := r.op(id, func() { tbl, err = latr.RunExperiment(id, w.opts) })
		if err != nil {
			r.check(id, []string{err.Error()})
			continue
		}
		var problems []string
		text := tbl.String()
		if ref {
			w.ref[id] = text
		} else if text != w.ref[id] {
			problems = append(problems, "rendered table differs from its warm-up repetition")
		}
		if b, ok := w.baselines[id]; ok && b.Seed == w.opts.Seed && b.Quick == w.opts.Quick {
			if err := matchBaseline(b, tbl, w.opts, wall); err != nil {
				problems = append(problems, err.Error())
			}
		}
		r.check(id, problems)
	}
}

// matchBaseline compares an experiment's cells with its committed
// baseline within latr.DefaultBenchTolerance. Result cells are
// deterministic at any GOMAXPROCS; the baseline's GOMAXPROCS stamp
// guards only its wall_sec, which CompareBench never compares, so the
// current run is stamped with the baseline's setting.
func matchBaseline(base latr.BenchJSON, tbl *latr.ExperimentTable, o latr.ExperimentOptions, wall float64) error {
	cur := latr.BenchJSONFromTable(tbl, o, wall)
	cur.GoMaxProcs = base.GoMaxProcs
	diffs, err := latr.CompareBench(base, cur, latr.DefaultBenchTolerance())
	if err != nil {
		return err
	}
	if len(diffs) > 0 {
		return fmt.Errorf("%d cell(s) off baseline, first: %s", len(diffs), diffs[0])
	}
	return nil
}

func (w *experimentsWorkload) layerSims() []simSpec { return replicaSpecs(w.seed) }

// addExperimentExtras records each experiment's median host seconds, the
// per-experiment layer of the paper and extensions workloads.
func addExperimentExtras(w workload, m *measurement) {
	ew, ok := w.(*experimentsWorkload)
	if !ok {
		return
	}
	for _, id := range ew.ids {
		m.extras["experiments."+id+"_s"] = Metric{median(m.opSeconds[id]), "s"}
	}
}

// scaleIters sizes one scale120 simulation: munmap iterations of the
// micro-loop across all 120 cores.
const scaleIters = 300

// scaleWorkload runs long steady-state munmap simulations on the
// 8-socket/120-core machine under latr and linux. One operation is one
// Kernel.Run chunk; one checked operation is one simulation.
type scaleWorkload struct {
	seed  uint64
	iters int

	sims []*facadeSim
	ref  []simOutcome
}

func (w *scaleWorkload) specs() []simSpec {
	var out []simSpec
	for _, pol := range []string{"latr", "linux"} {
		out = append(out, simSpec{
			name: "scale120/" + pol, machine: latr.EightSocket120, policy: pol,
			seed: w.seed, audit: true, fixed: true, limit: 10 * latr.Second,
			newWorkload: func() latr.Workload {
				return latr.NewMicro(latr.MicroConfig{Cores: 120, Pages: 4, Iters: w.iters})
			},
		})
	}
	return out
}

func (w *scaleWorkload) setup() error {
	w.sims = w.sims[:0]
	for _, s := range w.specs() {
		f, err := buildSim(s, nil)
		if err != nil {
			return err
		}
		w.sims = append(w.sims, f)
	}
	return nil
}

func (w *scaleWorkload) rep(r *recorder, ref bool) {
	if ref {
		w.ref = w.ref[:0]
	}
	for i, f := range w.sims {
		for !f.finished() {
			r.op("chunk", func() { f.step(nil) })
		}
		out := f.outcome()
		problems := out.problems(f.spec)
		if ref {
			w.ref = append(w.ref, out)
		} else if !out.sameAs(w.ref[i]) {
			problems = append(problems, "engine or metrics fingerprint differs from its warm-up repetition")
		}
		r.check(f.spec.name, problems)
	}
}

func (w *scaleWorkload) layerSims() []simSpec { return w.specs() }

// litmusCount is the generated corpus size of one litmus repetition.
const litmusCount = 60

// litmusWorkload runs the handwritten litmus corpus followed by a
// generated one; one operation is one scenario under every litmus policy
// on both topologies, with the oracle and the cross-policy comparator on.
// The generated scenarios are race-free by construction and never bait a
// frame freed before its shootdown completes, so without the handwritten
// corpus the check would pass a mutant that frees early.
type litmusWorkload struct {
	seed     uint64
	count    int
	policies []string

	scenarios []*latr.LitmusScenario
	ref       []uint64
	// Per repetition (every repetition runs the same corpus).
	runs, skipped  int
	runsByTopology map[string]int
}

func (w *litmusWorkload) setup() error {
	gen := latr.GenerateLitmus(w.seed<<20, w.count)
	if len(gen) != w.count {
		return fmt.Errorf("generated %d of %d litmus scenarios", len(gen), w.count)
	}
	w.scenarios = append(latr.LitmusScenarios(), gen...)
	return nil
}

func (w *litmusWorkload) rep(r *recorder, ref bool) {
	if ref {
		w.ref = make([]uint64, len(w.scenarios))
	}
	w.runs, w.skipped, w.runsByTopology = 0, 0, map[string]int{}
	cfg := latr.LitmusSuiteConfig{Policies: w.policies, Seed: w.seed, Workers: workers}
	for i, sc := range w.scenarios {
		var rep *latr.LitmusSuiteReport
		r.op("scenario", func() { rep = latr.RunLitmusSuite([]*latr.LitmusScenario{sc}, cfg) })
		w.runs += rep.Runs
		w.skipped += rep.Skipped
		for _, o := range rep.Outcomes {
			if !o.Skipped {
				w.runsByTopology[o.Topo]++
			}
		}
		var problems []string
		if rep.Failed() {
			problems = append(problems, rep.Failures...)
		}
		if ref {
			w.ref[i] = rep.Digest
		} else if rep.Digest != w.ref[i] {
			problems = append(problems, "suite digest differs from its warm-up repetition")
		}
		r.check("litmus/"+sc.Name, problems)
	}
}

func (w *litmusWorkload) layerSims() []simSpec {
	return litmusReplicaSpecs(w.scenarios, w.policies, w.seed)
}
