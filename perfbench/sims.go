package main

import (
	"fmt"
	"time"

	"latr"
	"latr/internal/experiments"
	"latr/internal/litmus"
)

// simChunk is the simulated time one Kernel.Run call advances unless a
// spec sets its own; layer samples (heap depth, mapped pages) are taken
// between chunks.
const simChunk = latr.Millisecond

// simSpec is one simulation built through the latr facade.
type simSpec struct {
	name    string
	machine latr.MachineSpec
	policy  string
	seed    uint64
	audit   bool
	// fixed workloads must finish before limit; the others run to it.
	fixed bool
	limit latr.Time
	// chunk overrides simChunk for simulations that finish well inside
	// one millisecond.
	chunk       latr.Time
	newWorkload func() latr.Workload
}

// facadeSim is a built simulation ready to run.
type facadeSim struct {
	spec simSpec
	sys  *latr.System
	wl   latr.Workload
	// Host time of latr.NewSystem and of the workload's Setup.
	newDur, setupDur time.Duration
}

// buildSim assembles the system and installs the workload. With a tracer
// the policy is wrapped in the timing decorator and both steps are spans.
func buildSim(s simSpec, tr *tracer) (*facadeSim, error) {
	pol, err := experiments.NewPolicy(s.policy)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		pol = wrapPolicy(pol, tr)
	}
	t0 := time.Now()
	tr.begin("latr.NewSystem")
	sys := latr.NewSystem(latr.Config{Machine: s.machine, CustomPolicy: pol, Audit: s.audit, Seed: s.seed})
	tr.end()
	t1 := time.Now()
	wl := s.newWorkload()
	tr.begin("workload.Setup")
	wl.Setup(sys.Kernel())
	tr.end()
	return &facadeSim{spec: s, sys: sys, wl: wl, newDur: t1.Sub(t0), setupDur: time.Since(t1)}, nil
}

func (f *facadeSim) finished() bool {
	return (f.spec.fixed && f.wl.Done()) || f.sys.Now() >= f.spec.limit
}

// step advances the simulation by one chunk, as a span when traced.
func (f *facadeSim) step(tr *tracer) {
	chunk := f.spec.chunk
	if chunk == 0 {
		chunk = simChunk
	}
	next := f.sys.Now() + chunk
	if next > f.spec.limit {
		next = f.spec.limit
	}
	tr.begin("kernel.Run")
	f.sys.Run(next)
	tr.end()
}

// simOutcome is the checked result of one simulation.
type simOutcome struct {
	done       bool
	violations int
	engineFP   uint64
	metricsFP  uint64
	events     uint64
	scheduled  uint64
}

func (f *facadeSim) outcome() simOutcome {
	k := f.sys.Kernel()
	out := simOutcome{
		done:      f.wl.Done(),
		engineFP:  k.Engine.Fingerprint(),
		metricsFP: k.Metrics.Fingerprint(),
		events:    k.Engine.Dispatched(),
		scheduled: k.Engine.Scheduled(),
	}
	if a := f.sys.Audit(); a != nil {
		out.violations = int(a.Total())
	}
	return out
}

// problems lists what is wrong with a simulation on its own: unfinished
// fixed work or audit violations.
func (o simOutcome) problems(s simSpec) []string {
	var p []string
	if s.fixed && !o.done {
		p = append(p, fmt.Sprintf("fixed work unfinished at %v", s.limit))
	}
	if o.violations > 0 {
		p = append(p, fmt.Sprintf("%d audit violation(s)", o.violations))
	}
	return p
}

func (o simOutcome) sameAs(b simOutcome) bool {
	return o.engineFP == b.engineFP && o.metricsFP == b.metricsFP && o.done == b.done
}

// replicaSpecs are facade-built replicas of the paper's heaviest cells,
// with the shapes experiments.Fig9 and experiments.Fig10 use in quick
// mode: Apache at 12 cores under linux, abis and latr, and the dedup and
// canneal PARSEC profiles at 16 cores under linux and latr, all on the
// 2-socket machine with the experiments' kernel seed.
func replicaSpecs(seed uint64) []simSpec {
	kseed := seed ^ 0x9e3779b9
	var out []simSpec
	for _, pol := range []string{"linux", "abis", "latr"} {
		out = append(out, simSpec{
			name: "fig9/apache12/" + pol, machine: latr.TwoSocket16, policy: pol, seed: kseed,
			limit: 120 * latr.Millisecond,
			newWorkload: func() latr.Workload {
				return latr.NewApache(latr.DefaultApacheConfig(latr.CoreList(12)))
			},
		})
	}
	for _, bench := range []string{"dedup", "canneal"} {
		prof, ok := latr.ParsecProfileByName(bench)
		if !ok {
			panic("perfbench: parsec profile " + bench + " missing")
		}
		prof.TotalOps /= 10 // quick mode, as runParsec
		for _, pol := range []string{"linux", "latr"} {
			out = append(out, simSpec{
				name: "fig10/" + bench + "/" + pol, machine: latr.TwoSocket16, policy: pol, seed: kseed,
				fixed: true, limit: 120 * latr.Second,
				newWorkload: func() latr.Workload { return latr.NewParsec(prof, latr.CoreList(16)) },
			})
		}
	}
	return out
}

// litmusReplicaSpecs stand in for the litmus runner's private kernels:
// every litmus policy on both topologies, with the auditor on as litmus
// runs have it, each running a munmap loop shaped like the corpus's median
// scenario (litmusShape). A replica takes 0.1 to 0.4 ms of simulated
// time, so it runs in 10 µs chunks to be sampled at all.
func litmusReplicaSpecs(corpus []*latr.LitmusScenario, policies []string, seed uint64) []simSpec {
	shape := litmusShape(corpus)
	var out []simSpec
	for _, m := range []struct {
		name string
		spec latr.MachineSpec
	}{{"2x8", latr.TwoSocket16}, {"8x15", latr.EightSocket120}} {
		for _, pol := range policies {
			out = append(out, simSpec{
				name: "litmus-replica/" + m.name + "/" + pol, machine: m.spec, policy: pol, seed: seed,
				audit: true, fixed: true, limit: latr.Second, chunk: 10 * latr.Microsecond,
				newWorkload: func() latr.Workload { return latr.NewMicro(shape) },
			})
		}
	}
	return out
}

// litmusShape is the median litmus scenario as a munmap micro-loop: the
// median thread count, the median mmap size in pages and the median
// number of munmaps per scenario. The loop keeps those three; it does not
// keep the corpus's other operations (touch ranges, madvise, mprotect,
// fork, VMs).
func litmusShape(corpus []*latr.LitmusScenario) latr.MicroConfig {
	var threads, pages, munmaps []float64
	for _, sc := range corpus {
		n := 0
		for _, th := range sc.Threads {
			for _, op := range th.Ops {
				switch op.Kind {
				case litmus.OpMmap:
					pages = append(pages, float64(op.Pages))
				case litmus.OpMunmap:
					n++
				}
			}
		}
		threads = append(threads, float64(len(sc.Threads)))
		munmaps = append(munmaps, float64(n))
	}
	atLeast1 := func(x float64) int { return max(1, int(x+0.5)) }
	return latr.MicroConfig{Cores: atLeast1(median(threads)), Pages: atLeast1(median(pages)), Iters: atLeast1(median(munmaps))}
}
