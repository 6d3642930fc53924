package litmus

import "testing"

// TestGenerateDeterminism: the same seed must always yield the same
// scenario, and nearby seeds must not collapse to one shape.
func TestGenerateDeterminism(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		a, b := Generate(seed), Generate(seed)
		if a.String() != b.String() {
			t.Fatalf("seed %d not deterministic:\n%s\nvs\n%s", seed, a, b)
		}
	}
	if Generate(1).String() == Generate(2).String() {
		t.Fatal("distinct seeds produced identical scenarios")
	}
}

// TestGeneratedSuite runs the randomized corpus — 200 seeds across every
// policy and both topologies — through the differential oracle. Every
// generated scenario is race-free by construction, so the full exact
// oracle applies: model match, cross-policy agreement, byte determinism.
func TestGeneratedSuite(t *testing.T) {
	count := 200
	if testing.Short() {
		count = 40
	}
	scs := GenerateMany(1000, count)
	cfg := SuiteConfig{Seed: 9}
	rep := RunSuite(scs, cfg)
	t.Log(rep.Summary())
	if rep.Failed() {
		t.Fatalf("generated suite failed:\n%s", rep.RenderFailures(10))
	}
	if want := count * 2 * len(DefaultPolicies); rep.Runs != want {
		t.Fatalf("ran %d policy runs, want %d", rep.Runs, want)
	}

	// Byte determinism: an identical re-run reproduces the digest.
	if rerun := RunSuite(scs, cfg); rerun.Digest != rep.Digest {
		t.Fatalf("generated suite digest not reproducible: %016x vs %016x", rep.Digest, rerun.Digest)
	}
}

// TestGenerateVirtDeterminism: same contract as the flat generator — one
// seed, one scenario — and every seed must actually be virtualized.
func TestGenerateVirtDeterminism(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		a, b := GenerateVirt(seed), GenerateVirt(seed)
		if a.String() != b.String() {
			t.Fatalf("seed %d not deterministic:\n%s\nvs\n%s", seed, a, b)
		}
		if !a.Virtualized() {
			t.Fatalf("seed %d produced a flat scenario:\n%s", seed, a)
		}
	}
	if GenerateVirt(1).String() == GenerateVirt(2).String() {
		t.Fatal("distinct seeds produced identical scenarios")
	}
}

// TestGeneratedVirtSuite runs the randomized two-level corpus through the
// differential oracle under every policy. Host-level balloons and
// migrations interleave freely with guest churn, yet the exact oracle
// holds: the flat model's prediction, cross-policy agreement on the
// architectural state, and byte determinism — at one worker and at four.
func TestGeneratedVirtSuite(t *testing.T) {
	count := 80
	if testing.Short() {
		count = 20
	}
	scs := GenerateManyVirt(5000, count)
	cfg := SuiteConfig{Seed: 9, Workers: 1}
	rep := RunSuite(scs, cfg)
	t.Log(rep.Summary())
	if rep.Failed() {
		t.Fatalf("generated virt suite failed:\n%s", rep.RenderFailures(10))
	}
	if want := count * 2 * len(DefaultPolicies); rep.Runs != want {
		t.Fatalf("ran %d policy runs, want %d", rep.Runs, want)
	}

	cfg.Workers = 4
	if rerun := RunSuite(scs, cfg); rerun.Digest != rep.Digest {
		t.Fatalf("virt suite digest differs across worker counts: %016x (1 worker) vs %016x (4 workers)", rep.Digest, rerun.Digest)
	}
}
