// Command latr-bench regenerates the paper's evaluation: every table and
// figure of §6 plus the ablation studies.
//
// Usage:
//
//	latr-bench                      # run everything (can take minutes)
//	latr-bench -exp fig6,fig9       # run a subset
//	latr-bench -list                # list experiment ids
//	latr-bench -quick               # smaller runs, same shapes
//	latr-bench -ablations           # run the ablation studies
//	latr-bench -parallel 8          # fan each experiment's runs across 8 workers
//	latr-bench -exp remote -json    # also write BENCH_remote.json
//
// Regression gate: -compare re-runs each committed baseline's experiment
// with the baseline's recorded options and fails when any result cell
// drifts out of tolerance. The simulator is deterministic, so identical
// code reproduces every baseline exactly; drift means the model changed.
//
//	latr-bench -compare baselines/              # all BENCH_*.json in the dir
//	latr-bench -compare BENCH_table5.json       # one baseline
//	latr-bench -compare baselines/ -tolerance 0.02
//
// -cpuprofile and -memprofile write host profiles of the whole run, on
// every exit path:
//
//	latr-bench -quick -exp fig6 -cpuprofile cpu.prof -memprofile mem.prof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"latr"
	"latr/internal/profile"
)

func writeJSON(tbl *latr.ExperimentTable, o latr.ExperimentOptions, wall float64) error {
	data, err := latr.BenchJSONFromTable(tbl, o, wall).Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile("BENCH_"+tbl.ID+".json", data, 0o644)
}

// baselineFiles expands a -compare argument into baseline paths: a
// directory means every BENCH_*.json inside it, sorted for deterministic
// order; anything else is taken as one baseline file.
func baselineFiles(path string) ([]string, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return []string{path}, nil
	}
	files, err := filepath.Glob(filepath.Join(path, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("latr-bench: no BENCH_*.json baselines in %s", path)
	}
	sort.Strings(files)
	return files, nil
}

// harnessBaseline is the BENCH_harness.json schema written by
// BenchmarkHarnessMatrix: wall clock and speedup per worker count at a
// recorded GOMAXPROCS. It has no experiment id or result cells.
type harnessBaseline struct {
	GoMaxProcs int `json:"gomaxprocs"`
	Runs       int `json:"runs"`
	Entries    []struct {
		Workers int     `json:"workers"`
		WallSec float64 `json:"wall_sec"`
		Speedup float64 `json:"speedup"`
	} `json:"entries"`
}

// loadHarness reports whether path holds a harness wall-clock snapshot
// rather than a deterministic experiment baseline.
func loadHarness(path string) (*harnessBaseline, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var probe struct {
		ID string `json:"id"`
		harnessBaseline
	}
	if json.Unmarshal(data, &probe) != nil {
		return nil, false
	}
	if probe.ID != "" || probe.GoMaxProcs == 0 || len(probe.Entries) == 0 {
		return nil, false
	}
	return &probe.harnessBaseline, true
}

// runCompare executes the regression gate for every baseline and reports
// per-experiment PASS/FAIL. Any diff or error makes the exit code 1.
func runCompare(stdout, stderr io.Writer, path string, tol latr.BenchTolerance, workers int) int {
	files, err := baselineFiles(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	failed, gated := 0, 0
	for _, f := range files {
		if h, ok := loadHarness(f); ok {
			// BENCH_harness.json is a wall-clock snapshot from
			// BenchmarkHarnessMatrix, not a deterministic baseline — it
			// never gates. A copy recorded at GOMAXPROCS=1 additionally
			// gets a warning: single-core speedups describe a machine
			// where parallel dispatch can't show a regression.
			if h.GoMaxProcs == 1 {
				fmt.Fprintf(stdout, "warn harness  %s: recorded at GOMAXPROCS=1 — speedups are meaningless on one core; re-record per EXPERIMENTS.md (not gated)\n",
					filepath.Base(f))
			} else {
				fmt.Fprintf(stdout, "skip harness  %s: wall-clock snapshot (gomaxprocs=%d), not a deterministic baseline\n",
					filepath.Base(f), h.GoMaxProcs)
			}
			continue
		}
		gated++
		base, err := latr.LoadBenchJSON(f)
		if err != nil {
			fmt.Fprintln(stderr, err)
			failed++
			continue
		}
		// Re-run with the exact options the baseline recorded, so the
		// deterministic engine is expected to reproduce it cell for cell.
		o := latr.ExperimentOptions{Quick: base.Quick, Seed: base.Seed, Workers: workers}
		start := time.Now()
		tbl, err := latr.RunExperiment(base.ID, o)
		if err != nil {
			fmt.Fprintln(stderr, err)
			failed++
			continue
		}
		cur := latr.BenchJSONFromTable(tbl, o, time.Since(start).Seconds())
		diffs, err := latr.CompareBench(base, cur, tol)
		switch {
		case err != nil:
			fmt.Fprintf(stdout, "FAIL %-8s %s: %v\n", base.ID, filepath.Base(f), err)
			failed++
		case len(diffs) > 0:
			fmt.Fprintf(stdout, "FAIL %-8s %s: %d cell(s) out of tolerance\n", base.ID, filepath.Base(f), len(diffs))
			for _, d := range diffs {
				fmt.Fprintf(stdout, "     %s\n", d)
			}
			failed++
		default:
			fmt.Fprintf(stdout, "ok   %-8s %s (%.1fs)\n", base.ID, filepath.Base(f), cur.WallSec)
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "latr-bench: %d of %d baseline(s) failed the regression gate\n", failed, gated)
		return 1
	}
	fmt.Fprintf(stdout, "latr-bench: %d baseline(s) reproduced within tolerance\n", gated)
	return 0
}

// run is the testable body of the command.
func run(stdout, stderr io.Writer, args []string) (code int) {
	fs := flag.NewFlagSet("latr-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list      = fs.Bool("list", false, "list experiment ids and exit")
		exp       = fs.String("exp", "", "comma-separated experiment ids (default: all figures+tables)")
		quick     = fs.Bool("quick", false, "smaller runs (same shapes, less precision)")
		ablations = fs.Bool("ablations", false, "also run the ablation studies")
		seed      = fs.Uint64("seed", 1, "simulation seed")
		check     = fs.Bool("check", false, "enable the TLB reuse-invariant checker (slower)")
		parallel  = fs.Int("parallel", runtime.NumCPU(), "worker pool size for each experiment's independent runs (1 = sequential)")
		emitJSON  = fs.Bool("json", false, "also write BENCH_<id>.json for each experiment run")
		compare   = fs.String("compare", "", "regression gate: re-run the experiments recorded in this baseline file (or every BENCH_*.json in this directory) and fail on drift")
		tolRel    = fs.Float64("tolerance", 0, "compare: relative tolerance for scalar cells (0 = default 0.10)")
		tolPct    = fs.Float64("tolerance-pct", 0, "compare: absolute percentage-point tolerance for % cells (0 = default 5.0)")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stopProfiles, err := profile.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(stderr, err)
			if code == 0 {
				code = 1
			}
		}
	}()

	if *list {
		for _, id := range latr.Experiments() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}

	if *compare != "" {
		return runCompare(stdout, stderr, *compare, latr.BenchTolerance{Rel: *tolRel, Pct: *tolPct}, *parallel)
	}

	o := latr.ExperimentOptions{Quick: *quick, Seed: *seed, CheckInvariants: *check, Workers: *parallel}

	ids := latr.Experiments()
	if *exp != "" {
		ids = strings.Split(*exp, ",")
	} else if !*ablations {
		// Default set: the paper's tables, figures and case studies,
		// without ablations.
		ids = latr.PaperExperiments()
	}

	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		tbl, err := latr.RunExperiment(id, o)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		wall := time.Since(start).Seconds()
		fmt.Fprintln(stdout, tbl)
		fmt.Fprintf(stdout, "(wall time %.1fs)\n\n", wall)
		if *emitJSON {
			if err := writeJSON(tbl, o, wall); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
	}
	return 0
}

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}
