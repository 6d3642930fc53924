package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// pinGOMAXPROCS matches the live setting to the one the committed
// fixtures were recorded at — the gate refuses cross-GOMAXPROCS
// comparison by design, and these tests exercise the *drift* paths.
func pinGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestList prints the experiment ids and exits 0.
func TestList(t *testing.T) {
	var out, errb strings.Builder
	if code := run(&out, &errb, []string{"-list"}); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errb.String())
	}
	for _, id := range []string{"fig6", "table5", "remote"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("-list output missing %q:\n%s", id, out.String())
		}
	}
}

// TestRunExperimentJSON runs one static experiment and archives it.
func TestRunExperimentJSON(t *testing.T) {
	t.Chdir(t.TempDir())
	var out, errb strings.Builder
	if code := run(&out, &errb, []string{"-quick", "-exp", "table1", "-json"}); code != 0 {
		t.Fatalf("-exp table1 exited %d: %s", code, errb.String())
	}
	if _, err := os.Stat("BENCH_table1.json"); err != nil {
		t.Fatalf("-json did not write the baseline: %v", err)
	}
}

// TestRunUnknownExperiment exits non-zero with a diagnostic.
func TestRunUnknownExperiment(t *testing.T) {
	var out, errb strings.Builder
	if code := run(&out, &errb, []string{"-exp", "nonesuch"}); code == 0 {
		t.Fatal("unknown experiment id exited 0")
	}
	if !strings.Contains(errb.String(), "nonesuch") {
		t.Errorf("diagnostic does not name the id: %s", errb.String())
	}
}

// repoBaselines locates the committed baselines directory relative to this
// package.
func repoBaselines(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("..", "..", "baselines"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("committed baselines missing: %v", err)
	}
	return dir
}

// TestCompareCommittedBaselinesPass is the positive regression-gate check:
// the deterministic engine must reproduce every committed baseline.
func TestCompareCommittedBaselinesPass(t *testing.T) {
	pinGOMAXPROCS(t, 1)
	var out, errb strings.Builder
	code := run(&out, &errb, []string{"-compare", repoBaselines(t), "-parallel", "1"})
	if code != 0 {
		t.Fatalf("committed baselines failed the gate (exit %d):\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "reproduced within tolerance") {
		t.Errorf("missing summary line:\n%s", out.String())
	}
}

// TestCompareSlowedBaselineFails is the negative check: a synthetically
// slowed baseline (testdata/slowed inflates the Linux shootdown cell by
// ~37%) must trip the gate with a non-zero exit.
func TestCompareSlowedBaselineFails(t *testing.T) {
	pinGOMAXPROCS(t, 1)
	var out, errb strings.Builder
	code := run(&out, &errb, []string{"-compare", filepath.Join("testdata", "slowed"), "-parallel", "1"})
	if code == 0 {
		t.Fatalf("slowed baseline passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "out of tolerance") {
		t.Errorf("failure output does not report the drifted cell:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "1210.0ns") {
		t.Errorf("failure output does not show the baseline cell:\n%s", out.String())
	}
}

// TestCompareSlowedBaselineWithinLooseTolerance: the same slowed baseline
// passes when the tolerance is explicitly widened past the drift.
func TestCompareSlowedBaselineWithinLooseTolerance(t *testing.T) {
	pinGOMAXPROCS(t, 1)
	var out, errb strings.Builder
	code := run(&out, &errb, []string{
		"-compare", filepath.Join("testdata", "slowed"), "-tolerance", "0.5", "-parallel", "1"})
	if code != 0 {
		t.Fatalf("slowed baseline failed despite 50%% tolerance (exit %d):\n%s%s",
			code, out.String(), errb.String())
	}
}

// TestCompareMissingPath exits non-zero.
func TestCompareMissingPath(t *testing.T) {
	var out, errb strings.Builder
	if code := run(&out, &errb, []string{"-compare", filepath.Join("testdata", "nonesuch")}); code == 0 {
		t.Fatal("missing baseline path exited 0")
	}
}

// writeHarness drops a harness-schema BENCH file (the BenchmarkHarnessMatrix
// snapshot format) into dir.
func writeHarness(t *testing.T, dir string, gomaxprocs int) string {
	t.Helper()
	path := filepath.Join(dir, "BENCH_harness.json")
	body := `{
  "gomaxprocs": ` + strconv.Itoa(gomaxprocs) + `,
  "runs": 40,
  "entries": [
    {"workers": 1, "wall_sec": 1.0, "speedup": 1.0},
    {"workers": 2, "wall_sec": 0.55, "speedup": 1.8}
  ]
}
`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareHarnessAtGOMAXPROCS1WarnsNotGates: a harness wall-clock
// snapshot recorded on one core must produce a warning but never fail the
// deterministic regression gate.
func TestCompareHarnessAtGOMAXPROCS1WarnsNotGates(t *testing.T) {
	dir := t.TempDir()
	writeHarness(t, dir, 1)
	var out, errb strings.Builder
	if code := run(&out, &errb, []string{"-compare", dir, "-parallel", "1"}); code != 0 {
		t.Fatalf("harness snapshot failed the gate (exit %d):\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "warn harness") || !strings.Contains(out.String(), "GOMAXPROCS=1") {
		t.Errorf("missing GOMAXPROCS=1 warning:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "0 baseline(s) reproduced") {
		t.Errorf("harness snapshot was counted as a gated baseline:\n%s", out.String())
	}
}

// TestCompareHarnessMultiCoreSkipsQuietly: the same file recorded at a
// real core count is skipped without the staleness warning.
func TestCompareHarnessMultiCoreSkipsQuietly(t *testing.T) {
	dir := t.TempDir()
	writeHarness(t, dir, 8)
	var out, errb strings.Builder
	if code := run(&out, &errb, []string{"-compare", dir, "-parallel", "1"}); code != 0 {
		t.Fatalf("harness snapshot failed the gate (exit %d):\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "skip harness") || strings.Contains(out.String(), "warn harness") {
		t.Errorf("multi-core harness snapshot not skipped quietly:\n%s", out.String())
	}
}

// TestCompareCommittedHarnessNotStale pins the satellite fix itself: the
// committed BENCH_harness.json must not be a GOMAXPROCS=1 recording, so
// running the gate over the repo root copy stays warning-free.
func TestCompareCommittedHarnessNotStale(t *testing.T) {
	path, err := filepath.Abs(filepath.Join("..", "..", "BENCH_harness.json"))
	if err != nil {
		t.Fatal(err)
	}
	h, ok := loadHarness(path)
	if !ok {
		t.Fatalf("%s is not a harness snapshot", path)
	}
	if h.GoMaxProcs == 1 {
		t.Fatalf("committed BENCH_harness.json still records gomaxprocs=1; re-record per EXPERIMENTS.md")
	}
}

// readProfile gunzips a pprof profile and walks its top-level protobuf
// fields. It returns how often each field number occurs and the string
// table, and fails on any malformed tag, varint or length.
func readProfile(path string) (fields map[uint64]int, strs []string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	fields = map[uint64]int{}
	for len(data) > 0 {
		tag, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, nil, fmt.Errorf("bad field tag at %d bytes from the end", len(data))
		}
		data = data[n:]
		switch tag & 7 {
		case 0: // varint
			if _, n = binary.Uvarint(data); n <= 0 {
				return nil, nil, fmt.Errorf("field %d: bad varint", tag>>3)
			}
		case 2: // length-delimited
			l, m := binary.Uvarint(data)
			if m <= 0 || uint64(len(data)-m) < l {
				return nil, nil, fmt.Errorf("field %d: bad length", tag>>3)
			}
			if tag>>3 == 6 { // string_table
				strs = append(strs, string(data[m:m+int(l)]))
			}
			n = m + int(l)
		default:
			return nil, nil, fmt.Errorf("field %d: unexpected wire type %d", tag>>3, tag&7)
		}
		data = data[n:]
		fields[tag>>3]++
	}
	return fields, strs, nil
}

// TestProfileFlags runs one quick experiment with -cpuprofile and
// -memprofile and checks that both files are well-formed, non-empty pprof
// profiles of the expected kinds.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	var out, errb strings.Builder
	if code := run(&out, &errb, []string{"-exp", "ipi", "-quick", "-cpuprofile", cpu, "-memprofile", heap}); code != 0 {
		t.Fatalf("-exp ipi exited %d: %s", code, errb.String())
	}
	for _, c := range []struct {
		path string
		want []string // strings the profile's sample types must name
	}{
		{cpu, []string{"cpu", "nanoseconds"}},
		{heap, []string{"alloc_space", "inuse_space"}},
	} {
		fields, strs, err := readProfile(c.path)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(c.path), err)
		}
		// Field 1 is sample_type, 11 period_type.
		if fields[1] == 0 || fields[11] == 0 {
			t.Errorf("%s: no sample or period type (fields %v)", filepath.Base(c.path), fields)
		}
		for _, w := range c.want {
			if !slices.Contains(strs, w) {
				t.Errorf("%s: string table lacks %q", filepath.Base(c.path), w)
			}
		}
	}
}

// TestProfileWrittenOnFailure: a failing -compare still writes its CPU
// profile.
func TestProfileWrittenOnFailure(t *testing.T) {
	cpu := filepath.Join(t.TempDir(), "cpu.prof")
	var out, errb strings.Builder
	if code := run(&out, &errb, []string{"-compare", filepath.Join(t.TempDir(), "missing"), "-cpuprofile", cpu}); code == 0 {
		t.Fatal("-compare of a missing path exited 0")
	}
	data, err := os.ReadFile(cpu)
	if err != nil {
		t.Fatalf("failed run left no profile: %v", err)
	}
	if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
		t.Fatalf("profile is not gzip data (%d bytes)", len(data))
	}
}
