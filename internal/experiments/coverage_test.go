package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

// The tests here drive the remaining experiment surfaces in quick mode —
// the case-study figures, the ablation studies and the Perfetto figure
// exports — checking shape and the paper's qualitative claims rather than
// exact numbers (the regression gate in cmd/latr-bench pins those).

// TestAblationReclaimDelayGrowsPool: the §4.2 claim — the lazy pool grows
// with the reclamation delay.
func TestAblationReclaimDelayGrowsPool(t *testing.T) {
	tb := quickTable(t, "abl-delay")
	if len(tb.Rows) < 2 {
		t.Fatalf("reclaim-delay ablation rows = %d", len(tb.Rows))
	}
	first := num(t, tb.Rows[0][1])
	last := num(t, tb.Rows[len(tb.Rows)-1][1])
	if last < first {
		t.Errorf("peak lazy memory shrank as delay grew: %v MB -> %v MB", first, last)
	}
}

func TestFig3TimelineRenders(t *testing.T) {
	out := Fig3Timeline(quick)
	for _, want := range []string{"Fig 3", "latr"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig3 timeline missing %q", want)
		}
	}
}

// TestFigPerfettoExports: both figure exports are valid Chrome trace JSON
// with one process group per policy, and byte-deterministic per seed.
func TestFigPerfettoExports(t *testing.T) {
	fig2, err := Fig2Perfetto(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(fig2)) {
		t.Fatal("fig2 perfetto invalid JSON")
	}
	for _, want := range []string{"fig2 linux", "fig2 latr"} {
		if !strings.Contains(fig2, want) {
			t.Errorf("fig2 missing group %q", want)
		}
	}
	fig3, err := Fig3Perfetto(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(fig3)) {
		t.Fatal("fig3 perfetto invalid JSON")
	}
	if !strings.Contains(fig3, "AutoNUMA") {
		t.Error("fig3 missing AutoNUMA label")
	}
	again, err := Fig2Perfetto(quick)
	if err != nil || again != fig2 {
		t.Error("fig2 perfetto export not byte-deterministic")
	}
}
