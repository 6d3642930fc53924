// Command latr-perfbench is the repository benchmark: it measures the
// simulator's own host cost on four workloads and checks every operation's
// output while it does.
//
//	go build -o latr-perfbench . && ./latr-perfbench --workload paper --seed 1 --seconds 10 --trace 0
//
// (perfbench/run.py builds it inside the checkout and runs it.) With
// --trace 0 the last stdout line is one JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of
// a separate traced run. Earlier "# ..." lines hold the reproducibility
// stamp and workload-specific extras. --compare A B diffs two result
// records written with --out and refuses records taken at different
// GOMAXPROCS. README.md describes the workloads and every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
)

// Metric is one named measurement with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the final stdout line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Stamp is what a result must be read against.
type Stamp struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GoMaxProcs int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

// Record is the full result file written by --out.
type Record struct {
	Stamp    Stamp             `json:"stamp"`
	Result   Result            `json:"result"`
	Extras   map[string]Metric `json:"extras,omitempty"`
	Failures []string          `json:"failures,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("latr-perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed; inputs are generated from it")
	seconds := fs.Float64("seconds", 10, "host seconds of timed repetitions (at least one runs)")
	traceOn := fs.Int("trace", 0, "1: print the per-layer metrics of a separate traced run")
	root := fs.String("root", ".", "repository root (holds baselines/)")
	buildDir := fs.String("build-dir", ".bench_build", "directory for span dumps")
	commit := fs.String("commit", "unknown", "source revision recorded in the stamp")
	out := fs.String("out", "", "also write the full result record (stamp, extras, failures) to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the timed repetitions to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	compare := fs.Bool("compare", false, "compare two result records given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "latr-perfbench: --compare needs two record files")
			return 2
		}
		if err := compareRecords(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "latr-perfbench:", err)
			return 1
		}
		return 0
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(stderr, "latr-perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "latr-perfbench: --seconds must be positive")
		return 2
	}
	w, err := newWorkload(*wl, *seed, *root)
	if err != nil {
		fmt.Fprintln(stderr, "latr-perfbench:", err)
		return 2
	}
	stamp := Stamp{
		Workload: *wl, Seed: *seed, Seconds: *seconds, Trace: *traceOn == 1,
		GoMaxProcs: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: *commit,
	}

	var stopProfile func()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "latr-perfbench:", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "latr-perfbench:", err)
			return 2
		}
		stopProfile = pprof.StopCPUProfile
	}

	m := measure(w, *seconds)
	if stopProfile != nil {
		stopProfile()
	}
	addExperimentExtras(w, m)
	var layers *layerReport
	if stamp.Trace {
		layers = traceLayers(w, *seed)
		if err := writeSpans(filepath.Join(*buildDir, "spans-"+*wl+".json"), layers.tracer); err != nil {
			fmt.Fprintln(stderr, "latr-perfbench: span dump:", err)
		}
	}

	rec := Record{Stamp: stamp, Extras: m.extras}
	rec.Result = Result{Attempted: m.attempted, Failed: m.failed}
	rec.Failures = m.failures
	if layers != nil {
		rec.Result.Attempted += layers.attempted
		rec.Result.Failed += layers.failed
		rec.Failures = append(rec.Failures, layers.failures...)
		rec.Result.Metrics = layers.metrics(m, rec.Result)
	} else {
		rec.Result.Metrics = m.endToEnd()
	}
	rec.Result.Correct = rec.Result.Failed == 0 && rec.Result.Attempted > 0

	if *memProfile != "" {
		if err := writeHeapProfile(*memProfile); err != nil {
			fmt.Fprintln(stderr, "latr-perfbench:", err)
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "latr-perfbench:", err)
			return 1
		}
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(stderr, "FAIL:", f)
	}
	printReport(stdout, rec)
	return 0
}

// printReport writes the stamp and extras as "# " lines, then the result
// object as the last line.
func printReport(w io.Writer, rec Record) {
	stamp, _ := json.Marshal(rec.Stamp)
	fmt.Fprintf(w, "# stamp %s\n", stamp)
	for _, name := range sortedKeys(rec.Extras) {
		v := rec.Extras[name]
		fmt.Fprintf(w, "# extra %s %.6g %s\n", name, v.Value, v.Unit)
	}
	line, _ := json.Marshal(rec.Result)
	fmt.Fprintf(w, "%s\n", line)
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// compareRecords prints each metric of b relative to a. Records taken at
// different GOMAXPROCS, on different workloads or in different modes are
// refused: their host times are not comparable.
func compareRecords(pathA, pathB string, w io.Writer) error {
	a, err := loadRecord(pathA)
	if err != nil {
		return err
	}
	b, err := loadRecord(pathB)
	if err != nil {
		return err
	}
	if a.Stamp.GoMaxProcs != b.Stamp.GoMaxProcs {
		return fmt.Errorf("records taken at GOMAXPROCS=%d and GOMAXPROCS=%d are not comparable",
			a.Stamp.GoMaxProcs, b.Stamp.GoMaxProcs)
	}
	if a.Stamp.Workload != b.Stamp.Workload || a.Stamp.Trace != b.Stamp.Trace {
		return fmt.Errorf("records are for %s/trace=%v and %s/trace=%v",
			a.Stamp.Workload, a.Stamp.Trace, b.Stamp.Workload, b.Stamp.Trace)
	}
	fmt.Fprintf(w, "%-32s %14s %14s %9s\n", "metric", "a", "b", "b/a")
	for _, name := range sortedKeys(a.Result.Metrics) {
		ma := a.Result.Metrics[name]
		mb, ok := b.Result.Metrics[name]
		if !ok {
			fmt.Fprintf(w, "%-32s %14.6g %14s %9s\n", name, ma.Value, "-", "-")
			continue
		}
		ratio := "-"
		if ma.Value != 0 {
			ratio = fmt.Sprintf("%.4f", mb.Value/ma.Value)
		}
		fmt.Fprintf(w, "%-32s %14.6g %14.6g %9s %s\n", name, ma.Value, mb.Value, ratio, ma.Unit)
	}
	return nil
}

func loadRecord(path string) (Record, error) {
	var r Record
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("parse %s: %w", path, err)
	}
	if r.Stamp.GoMaxProcs == 0 {
		return r, errors.New(path + " has no gomaxprocs stamp")
	}
	return r, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
