// Command latr-sim runs a single workload scenario on a chosen machine and
// coherence policy and dumps the metrics — the exploratory companion to
// latr-bench.
//
// Usage:
//
//	latr-sim -policy latr -workload apache -cores 12 -duration 500ms
//	latr-sim -policy linux -workload micro -cores 16 -pages 8
//	latr-sim -machine 8x15 -policy latr -workload micro -cores 120
//	latr-sim -policy latr -workload micro -trace-out run.json   # Perfetto spans
//
// Matrix mode fans a (policy × workload × seed × machine) sweep across a
// worker pool, each run fully isolated, results in deterministic order:
//
//	latr-sim -matrix -parallel 4
//	latr-sim -matrix -policies linux,latr -workloads micro,apache -seeds 1,2,3 -verify-seq
//
// Litmus mode runs the declarative TLB-coherence corpus under every policy
// on both reference topologies and checks each run against the flat
// reference model and the cross-policy comparator:
//
//	latr-sim -litmus
//	latr-sim -litmus -litmus-gen 200 -policies linux,latr
//	latr-sim -litmus -litmus-virt-gen 50
//	latr-sim -litmus -litmus-run reuse-after-shootdown -v
//
// Remote mode runs the §6.2 Infiniswap case study: a memcached-like KV
// server whose arena exceeds local memory, paging over the RDMA backend,
// with per-request tail latency reported at the end:
//
//	latr-sim -remote -policy latr -duration 200ms
//	latr-sim -remote -policy linux -machine 8x15 -remote-frames 2000
//
// Cluster mode runs the fault-tolerant multi-machine fleet: N simulated
// machines behind a routing/admission/retry front-end, swept over
// (policy × router × fault profile), one deterministic digest line per
// cell (byte-identical at any -parallel):
//
//	latr-sim -cluster -duration 50ms
//	latr-sim -cluster -policies latr -cluster-routers affinity -cluster-profiles flaky-fleet
//	latr-sim -cluster -parallel 8 -seed 7
//
// Virt mode renders the virtualized two-level coherence table: the guest
// munmap microbenchmark plus a host balloon under every nested policy
// (linux, latr, guest-latr, host-latr, hatric) on both reference machines:
//
//	latr-sim -virt
//	latr-sim -virt -quick -parallel 4
//
// Ptrepl mode renders the page-table replication table: the numaPTE-style
// replication-policy axis (none, replicate-all, adaptive) crossed with
// eager vs LATR-lazy replica maintenance on both reference machines:
//
//	latr-sim -ptrepl
//	latr-sim -ptrepl -quick -parallel 4
//
// Tune mode runs the policy auto-tuner: a seeded evolutionary search over
// LATR's parameter space plus a knob-sensitivity sweep, or — with
// -tune-cf — a counterfactual replay that re-runs one recorded seed with a
// single knob perturbed and diffs the resulting coherence spans:
//
//	latr-sim -tune -quick
//	latr-sim -tune -quick -parallel 4 -seed 7
//	latr-sim -tune -tune-cf QueueDepth=4 -seed 7
//	latr-sim -tune -tune-cf ReclaimDelay=8ms -tune-cell churn@8x15
//
// Every mode takes -cpuprofile and -memprofile to write host profiles of
// the run, on every exit path:
//
//	latr-sim -machine 8x15 -workload micro -cores 120 -cpuprofile cpu.prof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"latr"
	"latr/internal/profile"
)

func parseMachine(s string) (latr.MachineSpec, error) {
	switch s {
	case "2x8", "small":
		return latr.TwoSocket16, nil
	case "8x15", "large":
		return latr.EightSocket120, nil
	}
	parts := strings.SplitN(s, "x", 2)
	if len(parts) == 2 {
		sockets, err1 := strconv.Atoi(parts[0])
		per, err2 := strconv.Atoi(parts[1])
		if err1 == nil && err2 == nil {
			return latr.CustomMachine(sockets, per), nil
		}
	}
	return latr.MachineSpec{}, fmt.Errorf("bad machine %q (want 2x8, 8x15, or NxM)", s)
}

func main() { os.Exit(run()) }

// run is the body of the command; it returns the exit code.
func run() (code int) {
	var (
		machine   = flag.String("machine", "2x8", "machine: 2x8, 8x15, or NxM sockets x cores")
		policy    = flag.String("policy", "latr", "coherence policy: linux, latr, abis, barrelfish, instant")
		wl        = flag.String("workload", "apache", "workload: micro, apache, nginx, parsec:<name>, graph500, pbzip2, metis, ocean, fluidanimate")
		cores     = flag.Int("cores", 12, "worker cores")
		pages     = flag.Int("pages", 1, "pages per op (micro)")
		iters     = flag.Int("iters", 200, "iterations (micro)")
		duration  = flag.Duration("duration", 500*time.Millisecond, "simulated duration for server workloads")
		numaOn    = flag.Bool("numa", false, "enable AutoNUMA balancing")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		check     = flag.Bool("check", false, "enable the TLB reuse-invariant checker")
		dump      = flag.Bool("dump", true, "dump all metrics at the end")
		audit     = flag.Bool("audit", false, "enable the coherence auditor (structured violations instead of panics)")
		traceOut  = flag.String("trace-out", "", "write the run's coherence spans as Chrome trace-event JSON to this file (load in ui.perfetto.dev)")
		chaosProf = flag.String("chaos-profile", "", "inject faults from this chaos profile (implies -audit); one of: "+strings.Join(latr.ChaosProfiles(), ", "))
		chaosSeed = flag.Uint64("chaos-seed", 0, "seed for the chaos fault schedule (default: -seed)")

		matrix    = flag.Bool("matrix", false, "run a (policy x workload x seed x machine) matrix instead of a single scenario")
		parallel  = flag.Int("parallel", runtime.NumCPU(), "matrix worker pool size (each run is fully isolated)")
		policies  = flag.String("policies", "", "matrix: comma-separated policies (default: all)")
		workloads = flag.String("workloads", "micro,apache,nginx,parsec:dedup", "matrix: comma-separated workloads")
		machines  = flag.String("machines", "2x8", "matrix: comma-separated machine shapes")
		seeds     = flag.String("seeds", "1,2", "matrix: comma-separated seeds")
		verifySeq = flag.Bool("verify-seq", false, "matrix: re-run sequentially and fail unless all fingerprints are byte-identical")

		remoteOn = flag.Bool("remote", false, "run the remote-memory paging case study (memcached over the RDMA backend) instead of a plain workload")
		remoteFr = flag.Int64("remote-frames", 0, "remote: cap the remote node's frame pool (0 = unbounded)")

		clusterOn   = flag.Bool("cluster", false, "run the fault-tolerant multi-machine cluster sweep (policy x router x fault profile) instead of a single-machine workload")
		clusterN    = flag.Int("cluster-nodes", 0, "cluster: fleet size (0 = default 3)")
		clusterRt   = flag.String("cluster-routers", "", "cluster: comma-separated routers (default: all of "+strings.Join(latr.ClusterRouters(), ", ")+")")
		clusterProf = flag.String("cluster-profiles", "none,node-crash", "cluster: comma-separated fault profiles; one of none, "+strings.Join(latr.ClusterFaultProfiles(), ", "))
		clusterMach = flag.String("cluster-machine", "", "cluster: per-node machine shape NxM (default: 2x4)")
		clusterHdg  = flag.Duration("cluster-hedge", time.Millisecond, "cluster: hedge delay for a duplicate attempt (0 disables hedging)")
		clusterSh   = flag.Int("cluster-shards", 0, "cluster: event-engine shards per cell (0 = sequential; results are byte-identical at any count)")

		tuneOn   = flag.Bool("tune", false, "run the policy auto-tuner (evolutionary search + knob sensitivity) instead of a workload")
		tuneCf   = flag.String("tune-cf", "", "tune: render a counterfactual span diff for one knob perturbation instead of searching, as Knob=value (durations accept Go syntax, e.g. ReclaimDelay=8ms)")
		tuneCell = flag.String("tune-cell", "churn@2x8", "tune: counterfactual cell, workload@machine (workloads churn, memcached; machines 2x8, 8x15)")

		virtOn   = flag.Bool("virt", false, "run the virtualized two-level coherence table (guest munmap + host balloon per policy x machine) instead of a workload")
		ptreplOn = flag.Bool("ptrepl", false, "run the page-table replication table (policy x replication mode x machine) instead of a workload")
		tblQuick = flag.Bool("quick", false, "virt/ptrepl: smaller runs, same shapes")

		litmusOn   = flag.Bool("litmus", false, "run the litmus corpus through the differential oracle instead of a workload")
		litmusGen  = flag.Int("litmus-gen", 0, "litmus: also run this many generated scenarios")
		litmusVGen = flag.Int("litmus-virt-gen", 0, "litmus: also run this many generated two-level (guest/host) scenarios")
		litmusSeed = flag.Uint64("litmus-seed", 1000, "litmus: first seed for generated scenarios")
		litmusRun  = flag.String("litmus-run", "", "litmus: run only this named handwritten scenario")
		litmusCh   = flag.String("litmus-chaos", "", "litmus: comma-separated chaos profiles to cross in (safety checks only)")
		verbose    = flag.Bool("v", false, "litmus: print one line per run")

		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	stopProfiles, err := profile.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			if code == 0 {
				code = 1
			}
		}
	}()

	if *tuneOn {
		return runTune(*tuneCf, *tuneCell, *tblQuick, *seed, *parallel)
	}

	if *virtOn {
		return runVirt(*tblQuick, *seed, *parallel)
	}

	if *ptreplOn {
		return runPtrepl(*tblQuick, *seed, *parallel)
	}

	if *litmusOn {
		// -machines defaults to "2x8" for matrix mode; litmus mode crosses
		// both reference topologies unless the flag was given explicitly.
		litmusMachines := ""
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "machines" {
				litmusMachines = *machines
			}
		})
		return runLitmus(litmusFlags{
			gen:      *litmusGen,
			virtGen:  *litmusVGen,
			genSeed:  *litmusSeed,
			only:     *litmusRun,
			policies: *policies,
			machines: litmusMachines,
			chaos:    *litmusCh,
			seed:     *seed,
			parallel: *parallel,
			verbose:  *verbose,
		})
	}

	if *clusterOn {
		return runCluster(clusterFlags{
			policies: *policies,
			routers:  *clusterRt,
			profiles: *clusterProf,
			nodes:    *clusterN,
			machine:  *clusterMach,
			shards:   *clusterSh,
			duration: latr.Time(duration.Nanoseconds()),
			hedge:    latr.Time(clusterHdg.Nanoseconds()),
			seed:     *seed,
			parallel: *parallel,
			check:    *check,
			dump:     false,
		})
	}

	if *remoteOn {
		return runRemote(remoteFlags{
			machine:      *machine,
			policy:       *policy,
			cores:        *cores,
			duration:     latr.Time(duration.Nanoseconds()),
			seed:         *seed,
			check:        *check,
			dump:         *dump,
			remoteFrames: *remoteFr,
		})
	}

	if *matrix {
		return runMatrix(matrixFlags{
			parallel:  *parallel,
			policies:  *policies,
			workloads: *workloads,
			machines:  *machines,
			seeds:     *seeds,
			cores:     *cores,
			pages:     *pages,
			iters:     *iters,
			duration:  latr.Time(duration.Nanoseconds()),
			numa:      *numaOn,
			check:     *check,
			verifySeq: *verifySeq,
		})
	}

	spec, err := parseMachine(*machine)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cfg := latr.Config{
		Machine:         spec,
		Policy:          latr.PolicyKind(*policy),
		Seed:            *seed,
		CheckInvariants: *check,
		Audit:           *audit || *chaosProf != "",
	}
	if *traceOut != "" {
		cfg.SpanLimit = 1 << 20
	}
	if *numaOn {
		cfg.AutoNUMA = &latr.AutoNUMAConfig{}
	}
	sys := latr.NewSystem(cfg)
	k := sys.Kernel()
	if *chaosProf != "" {
		prof, err := latr.ChaosProfileByName(*chaosProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		cs := *chaosSeed
		if cs == 0 {
			cs = *seed
		}
		latr.NewChaosInjector(cs, prof).Install(k)
	}
	cl := latr.CoreList(*cores)

	var done func() bool = func() bool { return false }
	switch {
	case *wl == "micro":
		w := latr.NewMicro(latr.MicroConfig{Cores: *cores, Pages: *pages, Iters: *iters})
		w.Setup(k)
		done = w.Done
	case *wl == "apache":
		latr.NewApache(latr.DefaultApacheConfig(cl)).Setup(k)
	case *wl == "nginx":
		latr.NewNginx(latr.DefaultNginxConfig(cl)).Setup(k)
	case strings.HasPrefix(*wl, "parsec:"):
		name := strings.TrimPrefix(*wl, "parsec:")
		prof, ok := latr.ParsecProfileByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown parsec benchmark %q\n", name)
			return 1
		}
		w := latr.NewParsec(prof, cl)
		w.Setup(k)
		done = w.Done
	case *wl == "graph500":
		w := latr.NewGraph500(latr.DefaultGraph500Config(cl))
		w.Setup(k)
		done = w.Done
	case *wl == "pbzip2":
		w := latr.NewPBZIP2(latr.DefaultPBZIP2Config(cl))
		w.Setup(k)
		done = w.Done
	case *wl == "metis":
		w := latr.NewMetis(latr.DefaultMetisConfig(cl))
		w.Setup(k)
		done = w.Done
	case *wl == "ocean":
		w := latr.NewGrid(latr.OceanConfig(cl))
		w.Setup(k)
		done = w.Done
	case *wl == "fluidanimate":
		w := latr.NewGrid(latr.FluidanimateConfig(cl))
		w.Setup(k)
		done = w.Done
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
		return 1
	}

	limit := latr.Time(duration.Nanoseconds())
	step := 10 * latr.Millisecond
	for sys.Now() < limit && !done() {
		next := sys.Now() + step
		if next > limit {
			next = limit
		}
		sys.Run(next)
	}

	fmt.Printf("machine=%s policy=%s workload=%s simulated=%v\n",
		spec.Name, *policy, *wl, sys.Now())
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := sys.WritePerfetto(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("trace: wrote %d spans to %s\n", len(sys.Spans().Retained()), *traceOut)
	}
	if *dump {
		fmt.Print(sys.Metrics().Dump())
	}
	if a := sys.Audit(); a != nil {
		if a.Len() == 0 {
			fmt.Println("audit: no coherence violations")
		} else {
			fmt.Printf("audit: %d distinct violation(s), %d total occurrence(s)\n%s",
				a.Len(), a.Total(), a.Render())
			return 2
		}
	}
	return 0
}

// matrixFlags carries the -matrix mode configuration.
type matrixFlags struct {
	parallel                             int
	policies, workloads, machines, seeds string
	cores, pages, iters                  int
	duration                             latr.Time
	numa, check, verifySeq               bool
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// runMatrix executes the experiment matrix across the worker pool and
// prints one fingerprint line per run, in deterministic matrix order.
func runMatrix(f matrixFlags) int {
	m := latr.ExperimentMatrix{
		Policies:  splitList(f.policies),
		Workloads: splitList(f.workloads),
		Machines:  splitList(f.machines),
		Cores:     f.cores,
		Pages:     f.pages,
		Iters:     f.iters,
		Duration:  f.duration,
		AutoNUMA:  f.numa,
	}
	if len(m.Policies) == 0 {
		m.Policies = latr.PolicyNames()
	}
	for _, s := range splitList(f.seeds) {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad seed %q: %v\n", s, err)
			return 1
		}
		m.Seeds = append(m.Seeds, v)
	}
	if len(m.Seeds) == 0 {
		m.Seeds = []uint64{1}
	}
	specs := m.Specs()
	o := latr.ExperimentOptions{CheckInvariants: f.check}

	start := time.Now()
	results := latr.RunExperimentMatrix(specs, f.parallel, o)
	parWall := time.Since(start)

	failed := 0
	for _, r := range results {
		fmt.Println(r.Fingerprint())
		if r.Err != "" {
			failed++
		}
	}
	fmt.Printf("matrix: %d runs, %d workers, wall %.2fs\n", len(results), f.parallel, parWall.Seconds())
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "matrix: %d run(s) failed\n", failed)
		return 1
	}

	if f.verifySeq {
		start = time.Now()
		seq := latr.RunExperimentMatrix(specs, 1, o)
		seqWall := time.Since(start)
		mismatches := 0
		for i := range results {
			if results[i].Fingerprint() != seq[i].Fingerprint() {
				mismatches++
				fmt.Fprintf(os.Stderr, "DIVERGED run %d:\n  par: %s\n  seq: %s\n",
					i, results[i].Fingerprint(), seq[i].Fingerprint())
			}
		}
		speedup := seqWall.Seconds() / parWall.Seconds()
		fmt.Printf("verify-seq: sequential wall %.2fs, speedup %.2fx, mismatches %d\n",
			seqWall.Seconds(), speedup, mismatches)
		if mismatches > 0 {
			return 1
		}
	}
	return 0
}

// remoteFlags carries the -remote mode configuration.
type remoteFlags struct {
	machine, policy string
	cores           int
	duration        latr.Time
	seed            uint64
	check, dump     bool
	remoteFrames    int64
}

// remoteCores spreads n KV worker cores round-robin across NUMA nodes,
// skipping core 0 (the swapper's), so evictions shoot down cross-socket
// TLBs — the configuration the case study measures.
func remoteCores(spec latr.MachineSpec, n int) ([]latr.CoreID, error) {
	byNode := make([][]latr.CoreID, spec.NumNodes())
	for c := 0; c < spec.NumCores(); c++ {
		if c == 0 {
			continue
		}
		node := int(spec.NodeOf(latr.CoreID(c)))
		byNode[node] = append(byNode[node], latr.CoreID(c))
	}
	var out []latr.CoreID
	for idx := 0; len(out) < n; idx++ {
		progressed := false
		for _, cores := range byNode {
			if idx < len(cores) {
				out = append(out, cores[idx])
				progressed = true
				if len(out) == n {
					break
				}
			}
		}
		if !progressed {
			return nil, fmt.Errorf("machine has only %d usable cores, want %d", len(out), n)
		}
	}
	return out, nil
}

// remoteMemFrames shrinks each node's memory below the KV arena so the
// working set pages over the network — the Infiniswap precondition.
const remoteMemFrames = 1500

// runRemote executes the §6.2 Infiniswap case study once and prints the
// request-latency percentiles.
func runRemote(f remoteFlags) int {
	spec, err := parseMachine(f.machine)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	spec.MemPerNodeBytes = remoteMemFrames * 4096
	cores, err := remoteCores(spec, f.cores)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	sys := latr.NewSystem(latr.Config{
		Machine: spec,
		Policy:  latr.PolicyKind(f.policy),
		Seed:    f.seed,
		Swap: &latr.SwapConfig{
			LowWatermarkFrames:  300,
			HighWatermarkFrames: 500,
			ScanPeriod:          latr.Millisecond,
			BatchPages:          512,
		},
		SwapBackend:     latr.NewRemoteBackend(latr.RemoteBackendConfig{RemoteFrames: f.remoteFrames}),
		CheckInvariants: f.check,
	})
	cfg := latr.DefaultMemcachedConfig(cores)
	cfg.Seed = f.seed + 1
	w := latr.NewMemcached(cfg)
	w.Setup(sys.Kernel())
	sys.RegisterAllForNUMA()
	sys.Run(f.duration)
	if !w.Loaded() {
		fmt.Fprintln(os.Stderr, "remote: KV warm-up never finished; raise -duration")
		return 1
	}
	m := sys.Metrics()
	lat := w.Latency()
	fmt.Printf("machine=%s policy=%s workload=memcached/remote simulated=%v\n",
		spec.Name, f.policy, sys.Now())
	fmt.Printf("requests=%d req/s=%.0f\n", w.Requests(), float64(w.Requests())/f.duration.Seconds())
	fmt.Printf("latency p50=%v p90=%v p99=%v p99.9=%v\n", lat.P50(), lat.P90(), lat.P99(), lat.P999())
	fmt.Printf("swap out=%d in=%d dropped=%d\n",
		m.Counter("swap.out"), m.Counter("swap.in"), m.Counter("swap.dropped"))
	fmt.Printf("remote pool_full=%d inflight_waits=%d\n",
		m.Counter("remote.pool_full"), m.Counter("remote.inflight_waits"))
	if f.dump {
		fmt.Print(m.Dump())
	}
	return 0
}

// runTune runs the policy auto-tuner: the search + sensitivity table, or
// a counterfactual span diff when -tune-cf names a knob perturbation.
func runTune(cf, cell string, quick bool, seed uint64, parallel int) int {
	if cf == "" {
		tbl := latr.RunTuneExperiment(latr.ExperimentOptions{
			Quick:   quick,
			Seed:    seed,
			Workers: parallel,
		})
		fmt.Println(tbl)
		return 0
	}
	knob, raw, ok := strings.Cut(cf, "=")
	if !ok {
		fmt.Fprintf(os.Stderr, "latr-sim: -tune-cf wants Knob=value, got %q\n", cf)
		return 2
	}
	value, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		d, derr := time.ParseDuration(raw)
		if derr != nil {
			fmt.Fprintf(os.Stderr, "latr-sim: -tune-cf value %q is neither an integer nor a duration\n", raw)
			return 2
		}
		value = d.Nanoseconds()
	}
	wl, machine, ok := strings.Cut(cell, "@")
	if !ok {
		fmt.Fprintf(os.Stderr, "latr-sim: -tune-cell wants workload@machine, got %q\n", cell)
		return 2
	}
	diff, err := latr.RunCounterfactual(latr.CounterfactualConfig{
		Cell:  latr.TuneCell{Workload: wl, Machine: machine},
		Seed:  seed,
		Quick: quick,
		Knob:  knob,
		Value: value,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Print(diff.Render())
	return 0
}

// runVirt renders the virtualized two-level coherence table: the guest
// munmap microbenchmark plus a host balloon under every virt policy on
// both reference machines.
func runVirt(quick bool, seed uint64, parallel int) int {
	tbl, err := latr.RunExperiment("virt", latr.ExperimentOptions{
		Quick:   quick,
		Seed:    seed,
		Workers: parallel,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(tbl)
	return 0
}

// runPtrepl renders the page-table replication table: the replication
// policy axis crossed with eager vs LATR-lazy replica maintenance on both
// reference machines.
func runPtrepl(quick bool, seed uint64, parallel int) int {
	fmt.Println(latr.RunPtreplExperiment(latr.ExperimentOptions{
		Quick:   quick,
		Seed:    seed,
		Workers: parallel,
	}))
	return 0
}

// litmusFlags carries the -litmus mode configuration.
type litmusFlags struct {
	gen, virtGen                    int
	genSeed, seed                   uint64
	only, policies, machines, chaos string
	parallel                        int
	verbose                         bool
}

// runLitmus executes the handwritten (and optionally generated) litmus
// corpus through the differential oracle and reports PASS/FAIL.
func runLitmus(f litmusFlags) int {
	var scs []*latr.LitmusScenario
	if f.only != "" {
		sc := latr.LitmusScenarioByName(f.only)
		if sc == nil {
			fmt.Fprintf(os.Stderr, "unknown litmus scenario %q\n", f.only)
			return 1
		}
		scs = []*latr.LitmusScenario{sc}
	} else {
		scs = latr.LitmusScenarios()
	}
	if f.gen > 0 {
		scs = append(scs, latr.GenerateLitmus(f.genSeed, f.gen)...)
	}
	if f.virtGen > 0 {
		scs = append(scs, latr.GenerateVirtLitmus(f.genSeed, f.virtGen)...)
	}
	rep := latr.RunLitmusSuite(scs, latr.LitmusSuiteConfig{
		Policies: splitList(f.policies),
		Topos:    splitList(f.machines),
		Chaos:    splitList(f.chaos),
		Seed:     f.seed,
		Workers:  f.parallel,
	})
	if f.verbose {
		for i := range rep.Outcomes {
			o := &rep.Outcomes[i]
			switch {
			case o.Skipped:
				fmt.Printf("SKIP %s\n", o.Key())
			case len(o.Failures) > 0:
				fmt.Printf("FAIL %s (%d failure(s))\n", o.Key(), len(o.Failures))
			default:
				fmt.Printf("ok   %s\n", o.Key())
			}
		}
	}
	fmt.Println(rep.Summary())
	if rep.Failed() {
		fmt.Print(rep.RenderFailures(20))
		return 1
	}
	return 0
}
