package experiments

import (
	"fmt"
	"testing"

	"latr/internal/fan"
)

func TestFanPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i * 3
	}
	for _, workers := range []int{-1, 0, 1, 2, 7, 100, 1000} {
		got := fan.Run(workers, items, func(i int, v int) int { return v + i })
		for i, v := range got {
			if v != i*3+i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*3+i)
			}
		}
	}
}

func TestFanEmptyAndSingle(t *testing.T) {
	if got := fan.Run(4, nil, func(int, int) int { return 1 }); len(got) != 0 {
		t.Fatalf("empty fan returned %v", got)
	}
	if got := fan.Run(4, []int{9}, func(_ int, v int) int { return v * 2 }); len(got) != 1 || got[0] != 18 {
		t.Fatalf("single-item fan returned %v", got)
	}
}

func TestMatrixSpecsDeterministicOrder(t *testing.T) {
	m := DefaultMatrix(true)
	a, b := m.Specs(), m.Specs()
	want := len(m.Machines) * len(m.Workloads) * len(m.Policies) * len(m.Seeds)
	if len(a) != want {
		t.Fatalf("Specs() returned %d specs, want %d", len(a), want)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Specs() not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRunOneReportsErrors(t *testing.T) {
	cases := []RunSpec{
		{Policy: "nope", Workload: "micro", Machine: "2x8", Cores: 4, Seed: 1},
		{Policy: "linux", Workload: "nope", Machine: "2x8", Cores: 4, Seed: 1},
		{Policy: "linux", Workload: "micro", Machine: "weird", Cores: 4, Seed: 1},
		{Policy: "linux", Workload: "micro", Machine: "2x8", Cores: 999, Seed: 1},
		{Policy: "linux", Workload: "parsec:nope", Machine: "2x8", Cores: 4, Seed: 1},
	}
	for _, s := range cases {
		if r := RunOne(s, Options{Quick: true}); r.Err == "" {
			t.Errorf("RunOne(%+v) reported no error", s)
		}
	}
}

// TestMatrixParallelDeterminism is the tentpole regression test: the full
// quick matrix must produce byte-identical per-run fingerprint lines under
// a sequential execution and under 3 different parallel worker counts.
func TestMatrixParallelDeterminism(t *testing.T) {
	m := DefaultMatrix(true)
	m.Duration /= 4 // keep the test snappy; shape is what matters
	specs := m.Specs()
	o := Options{Quick: true}

	base := RunMatrix(specs, 1, o)
	if len(base) != len(specs) {
		t.Fatalf("sequential run returned %d results, want %d", len(base), len(specs))
	}
	for _, r := range base {
		if r.Err != "" {
			t.Fatalf("sequential run %s failed: %s", r.Spec.Name(), r.Err)
		}
		if r.Dispatched == 0 {
			t.Fatalf("sequential run %s dispatched no events", r.Spec.Name())
		}
	}
	for _, workers := range []int{2, 4, 8} {
		got := RunMatrix(specs, workers, o)
		for i := range base {
			want, have := base[i].Fingerprint(), got[i].Fingerprint()
			if want != have {
				t.Errorf("workers=%d: run %d diverged from sequential:\n  seq: %s\n  par: %s",
					workers, i, want, have)
			}
		}
	}
}

// TestFigureParallelMatchesSequential proves the figure runners render
// byte-identical tables regardless of the worker count.
func TestFigureParallelMatchesSequential(t *testing.T) {
	seq := quickTable(t, "fig6").String()
	par := Fig6(Options{Quick: true, Seed: quick.Seed, Workers: 4}).String()
	if seq != par {
		t.Fatalf("Fig6 diverged between 1 and 4 workers:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

func TestRunOneMicroCompletes(t *testing.T) {
	r := RunOne(RunSpec{
		Policy: "latr", Workload: "micro", Machine: "2x8",
		Cores: 4, Seed: 7, Iters: 20, Pages: 1, Duration: 0,
	}, Options{Quick: true})
	if r.Err != "" {
		t.Fatalf("RunOne failed: %s", r.Err)
	}
	if !r.Completed {
		t.Fatal("micro workload did not complete within the default duration")
	}
	if r.EngineFP == 0 || r.MetricsFP == 0 {
		t.Fatalf("missing fingerprints: %s", r.Fingerprint())
	}
}

func TestMachineByName(t *testing.T) {
	for _, name := range []string{"2x8", "8x15", "small", "large", "4x4"} {
		if _, err := MachineByName(name); err != nil {
			t.Errorf("MachineByName(%q) = %v", name, err)
		}
	}
	for _, name := range []string{"", "x", "0x4", "4x0", "axb"} {
		if _, err := MachineByName(name); err == nil {
			t.Errorf("MachineByName(%q) succeeded, want error", name)
		}
	}
}

func ExampleRunSpec_Name() {
	fmt.Println(RunSpec{Policy: "latr", Workload: "apache", Machine: "2x8", Cores: 8, Seed: 3}.Name())
	// Output: 2x8/apache/latr/c8/seed3
}
