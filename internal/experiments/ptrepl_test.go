package experiments

import "testing"

// TestPtreplTableShape pins the replication table's headline claims: on
// the 8-socket machine adaptive replication cuts the mean walk cost
// against the single-master baseline, the single-master baseline is the
// only configuration paying remote walks at steady state, and the
// lazy-replica ablation undercuts eager maintenance on the munmap-heavy
// churn.
func TestPtreplTableShape(t *testing.T) {
	tb := quickTable(t, "ptrepl")
	if len(tb.Rows) != 16 {
		t.Fatalf("ptrepl table has %d rows, want 16", len(tb.Rows))
	}
	cell := map[[4]string][]string{}
	for _, row := range tb.Rows {
		cell[[4]string{row[0], row[1], row[2], row[3]}] = row
	}
	for _, mach := range []string{"2x8", "8x15"} {
		none := cell[[4]string{"latr", "none", "eager", mach}]
		adap := cell[[4]string{"latr", "adaptive", "eager", mach}]
		if nw, aw := num(t, none[4]), num(t, adap[4]); aw >= nw {
			t.Errorf("%s: adaptive walk %vns not below single-master %vns", mach, aw, nw)
		}
		eager := cell[[4]string{"latr", "replicate-all", "eager", mach}]
		lazy := cell[[4]string{"latr", "replicate-all", "lazy", mach}]
		if em, lm := num(t, eager[5]), num(t, lazy[5]); lm >= em {
			t.Errorf("%s: lazy replica munmap %vus not below eager %vus", mach, lm, em)
		}
		if parked := num(t, lazy[8]); parked == 0 {
			t.Errorf("%s: lazy maintenance parked nothing", mach)
		}
		if parked := num(t, eager[8]); parked != 0 {
			t.Errorf("%s: eager maintenance parked %v invalidations", mach, parked)
		}
	}
	// The linux lazy modes degrade to eager, so only latr rows may park —
	// and every linux row must still complete with zero parked entries.
	for key, row := range cell {
		if key[0] == "linux" && row[8] != "0" {
			t.Errorf("%v parked %s invalidations under an eager-only policy", key, row[8])
		}
	}
}

// TestPtreplDeterministicAcrossWorkers renders the table at several
// fan-out widths; output must be byte-identical.
func TestPtreplDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		return Ptrepl(Options{Quick: true, Seed: 7, Workers: workers}).String()
	}
	want := render(1)
	for _, w := range []int{2, 4, 8} {
		if got := render(w); got != want {
			t.Fatalf("workers=%d output diverges from sequential:\n%s\nvs\n%s", w, got, want)
		}
	}
}
