package main

import (
	"strings"
	"testing"
)

// runSim runs the command in process and fails the test on a panic, so
// every case below also proves the input never reaches a panic.
func runSim(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("latr-sim %s panicked: %v", strings.Join(args, " "), r)
		}
	}()
	code = run(&out, &errb, args)
	return code, out.String(), errb.String()
}

// TestBadInputsExitNonZero: each bad flag value exits non-zero with a
// message naming the value, and prints nothing to stdout.
func TestBadInputsExitNonZero(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-cores", "40"}, "-cores 40"},
		{[]string{"-workload", "micro", "-cores", "0"}, "-cores 0"},
		{[]string{"-policy", "bogus"}, `"bogus"`},
		{[]string{"-machine", "0x4"}, `"0x4"`},
		{[]string{"-workload", "bogus"}, `"bogus"`},
		{[]string{"-workload", "parsec:bogus"}, `"bogus"`},
		{[]string{"-remote", "-policy", "bogus"}, `"bogus"`},
		{[]string{"-remote", "-machine", "0x4"}, `"0x4"`},
		{[]string{"-remote", "-cores", "0"}, "-cores 0"},
		{[]string{"-remote", "-cores", "40"}, "want 40"},
		{[]string{"-tune-cf", "QueueDepth"}, `"QueueDepth"`},
	} {
		code, stdout, stderr := runSim(t, tc.args...)
		if code == 0 {
			t.Errorf("%v exited 0", tc.args)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: stderr %q does not name %s", tc.args, stderr, tc.want)
		}
		if stdout != "" {
			t.Errorf("%v printed to stdout: %q", tc.args, stdout)
		}
	}
}

// TestExperimentFlagsRemoved: the experiment tables render only through
// latr-bench -exp, so their old latr-sim modes are unknown flags.
func TestExperimentFlagsRemoved(t *testing.T) {
	for _, flag := range []string{"-virt", "-ptrepl", "-tune"} {
		code, _, stderr := runSim(t, flag, "-quick")
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: "+flag) {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 and an unknown-flag error", flag, code, stderr)
		}
	}
}

// TestRemoteChecked runs the remote-paging case study under both policies
// with the reuse-invariant checker on.
func TestRemoteChecked(t *testing.T) {
	for _, policy := range []string{"latr", "linux"} {
		code, stdout, stderr := runSim(t, "-remote", "-policy", policy, "-duration", "100ms", "-check", "-dump=false")
		if code != 0 {
			t.Fatalf("-remote -policy %s exited %d: %s", policy, code, stderr)
		}
		if want := "policy=" + policy + " workload=memcached/remote"; !strings.Contains(stdout, want) {
			t.Errorf("-remote -policy %s: stdout lacks %q:\n%s", policy, want, stdout)
		}
	}
}

// TestCounterfactualRendersDiff: -tune-cf alone selects the counterfactual
// replay and prints the span diff.
func TestCounterfactualRendersDiff(t *testing.T) {
	code, stdout, stderr := runSim(t, "-tune-cf", "QueueDepth=4", "-seed", "7", "-quick")
	if code != 0 {
		t.Fatalf("-tune-cf exited %d: %s", code, stderr)
	}
	for _, want := range []string{"counterfactual cell=churn@2x8 seed=7", "knob QueueDepth: 64 -> 4", "phase totals"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("diff lacks %q:\n%s", want, stdout)
		}
	}
}

// TestSingleScenario runs one small micro scenario end to end.
func TestSingleScenario(t *testing.T) {
	code, stdout, stderr := runSim(t, "-workload", "micro", "-cores", "4", "-iters", "20", "-dump=false")
	if code != 0 {
		t.Fatalf("micro exited %d: %s", code, stderr)
	}
	if want := "machine=2-socket-16-core policy=latr workload=micro"; !strings.HasPrefix(stdout, want) {
		t.Errorf("stdout %q lacks prefix %q", stdout, want)
	}
}
