package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"latr"
	"latr/internal/experiments"
	"latr/internal/kernel"
	"latr/internal/numa"
)

// repoRoot is the repository root as seen from the package directory.
const repoRoot = ".."

// once runs a warm-up and a single timed repetition.
const once = 1e-9

// cheapPaperIDs are paper experiments with committed baselines that run
// in well under a second.
var cheapPaperIDs = []string{"table1", "table2", "table3", "table5", "mem", "ipi"}

// smallWorkloads are the four workloads at test size.
func smallWorkloads() map[string]workload {
	return map[string]workload{
		"paper":      &experimentsWorkload{ids: cheapPaperIDs, seed: 1, root: repoRoot},
		"extensions": &experimentsWorkload{ids: []string{"virt", "ptrepl"}, seed: 1, root: repoRoot},
		"scale120":   &scaleWorkload{seed: 3, iters: 10},
		"litmus":     &litmusWorkload{seed: 3, count: 3, policies: latr.LitmusPolicies()},
	}
}

func TestCleanWorkloadsHaveNoErrors(t *testing.T) {
	for name, w := range smallWorkloads() {
		m := measure(w, once)
		if m.attempted == 0 || m.failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", name, m.failed, m.attempted, m.failures)
		}
		if len(m.reps) != 1 || len(m.setups) != setupBatches {
			t.Errorf("%s: %d repetitions, %d set-ups", name, len(m.reps), len(m.setups))
		}
	}
}

func TestLitmusMutantFails(t *testing.T) {
	w := &litmusWorkload{seed: 1, count: 8, policies: append(latr.LitmusPolicies(), "mutant:early-free")}
	m := measure(w, once)
	if m.failed == 0 {
		t.Fatalf("mutant:early-free passed all %d litmus operations", m.attempted)
	}
}

func TestPerturbedBaselineFailsPaperOperation(t *testing.T) {
	base, err := latr.LoadBenchJSON(filepath.Join(repoRoot, "baselines", "BENCH_table5.json"))
	if err != nil {
		t.Fatal(err)
	}
	base.Rows[0][1] = "999.0ns"
	data, err := base.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := os.Mkdir(filepath.Join(root, "baselines"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "baselines", "BENCH_table5.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	m := measure(&experimentsWorkload{ids: []string{"table5"}, seed: 1, root: root}, once)
	if m.failed == 0 || !strings.Contains(strings.Join(m.failures, "\n"), "off baseline") {
		t.Fatalf("perturbed baseline not caught: %d/%d failed: %v", m.failed, m.attempted, m.failures)
	}
}

func TestTracedSimulationsMatchUntraced(t *testing.T) {
	corpus := append(latr.LitmusScenarios(), latr.GenerateLitmus(1, 10)...)
	specs := append(replicaSpecs(1), litmusReplicaSpecs(corpus, latr.LitmusPolicies(), 1)...)
	specs = append(specs, (&scaleWorkload{seed: 1, iters: 10}).specs()...)
	for _, spec := range specs {
		l := &layerReport{tracer: newTracer()}
		l.stats.munmapSum, l.stats.munmapCount = map[string]float64{}, map[string]float64{}
		plain, err := l.runUntraced(spec)
		if err != nil {
			t.Fatal(err)
		}
		traced, _, err := runTimed(spec, l.tracer)
		if err != nil {
			t.Fatal(err)
		}
		if !traced.sameAs(plain) || plain.events == 0 {
			t.Errorf("%s: traced %+v, untraced %+v", spec.name, traced, plain)
		}
		if p := plain.problems(spec); len(p) > 0 {
			t.Errorf("%s: %v", spec.name, p)
		}
		if l.tracer.layer("kernel.Run").Calls == 0 {
			t.Errorf("%s: no kernel.Run spans", spec.name)
		}
	}
}

func TestDecoratorForwardsExactlyTheOptionalInterfaces(t *testing.T) {
	names := append(experiments.PolicyNames(), experiments.VirtPolicyNames()...)
	for _, name := range names {
		inner, err := experiments.NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		outer := wrapPolicy(inner, newTracer())
		same := func(iface string, in, out bool) {
			if in != out {
				t.Errorf("%s: inner implements %s=%v, decorator %v", name, iface, in, out)
			}
		}
		_, in := inner.(kernel.Attacher)
		_, out := outer.(kernel.Attacher)
		same("Attacher", in, out)
		_, in = inner.(kernel.HostCoherent)
		_, out = outer.(kernel.HostCoherent)
		same("HostCoherent", in, out)
		_, in = inner.(numa.MigrationGater)
		_, out = outer.(numa.MigrationGater)
		same("MigrationGater", in, out)
		_, in = inner.(lazyReplicaSweeper)
		_, out = outer.(lazyReplicaSweeper)
		same("LazyReplicaSweeps", in, out)
		if outer.Name() != inner.Name() {
			t.Errorf("%s: decorator is named %q", name, outer.Name())
		}
	}
}

func TestSelfTimeExcludesChildSpans(t *testing.T) {
	tr := newTracer()
	tr.begin("outer")
	tr.begin("inner")
	for i := 0; i < 1e5; i++ {
		_ = i * i
	}
	tr.end()
	tr.end()
	outer, inner := tr.layer("outer"), tr.layer("inner")
	if outer.SelfNS != outer.TotalNS-inner.TotalNS || tr.spans[1].Parent != 0 {
		t.Fatalf("outer %+v inner %+v spans %+v", outer, inner, tr.spans)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tail(xs); p != 90 || v != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v, want 90 at p90", v, p)
	}
	if v, p := tail(xs[:15]); p != 100 || v != 15 {
		t.Fatalf("tail of 1..15 = %v at p%v, want the maximum", v, p)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}

func TestResultLineAndCompare(t *testing.T) {
	dir := t.TempDir()
	rec := Record{
		Stamp:  Stamp{Workload: "litmus", GoMaxProcs: 2, Seed: 4},
		Result: Result{Correct: true, Attempted: 3, Metrics: map[string]Metric{"wall_s": {1.5, "s"}}},
	}
	var buf bytes.Buffer
	printReport(&buf, rec)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Fatalf("last line keys: %s", lines[len(lines)-1])
	}

	write := func(name string, r Record) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", rec)
	rec.Result.Metrics["wall_s"] = Metric{1.2, "s"}
	b := write("b.json", rec)
	buf.Reset()
	if err := compareRecords(a, b, &buf); err != nil || !strings.Contains(buf.String(), "0.8000") {
		t.Fatalf("compare: %v\n%s", err, buf.String())
	}
	rec.Stamp.GoMaxProcs = 1
	c := write("c.json", rec)
	if err := compareRecords(a, c, &buf); err == nil {
		t.Fatal("records at different GOMAXPROCS compared")
	}
}
