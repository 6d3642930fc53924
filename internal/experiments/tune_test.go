package experiments

import (
	"strconv"
	"testing"

	"latr/internal/tune"
)

// TestTuneTable runs the quick-mode auto-tuning experiment end to end and
// pins the acceptance criterion: the searched genome must beat the paper
// defaults in at least one evaluation cell (score < 1.0).
func TestTuneTable(t *testing.T) {
	tb := quickTable(t, "tune")
	if tb.ID != "tune" {
		t.Fatalf("table id = %q", tb.ID)
	}
	if len(tb.Columns) < 3 {
		t.Fatalf("tune table has no cell columns: %v", tb.Columns)
	}

	// Collect the per-cell scores for the "default" and "tuned" rows.
	scores := func(config string) []float64 {
		t.Helper()
		for _, row := range tb.Rows {
			if row[0] != config || row[1] != "score" {
				continue
			}
			var out []float64
			for _, cell := range row[2:] {
				v, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					t.Fatalf("%s score cell %q: %v", config, cell, err)
				}
				out = append(out, v)
			}
			return out
		}
		t.Fatalf("no score row for config %q", config)
		return nil
	}
	def, tuned := scores("default"), scores("tuned")
	if len(def) != len(tuned) || len(def) == 0 {
		t.Fatalf("score rows disagree: default=%v tuned=%v", def, tuned)
	}
	for i, v := range def {
		if v != 1.0 {
			t.Errorf("default score in cell %d = %v, want exactly 1.0", i, v)
		}
		if tuned[i] > v {
			t.Errorf("tuned score in cell %d = %v, worse than defaults", i, tuned[i])
		}
	}
	better := false
	for i := range def {
		if tuned[i] < def[i] {
			better = true
		}
	}
	if !better {
		t.Error("tuned genome does not beat paper defaults in any cell")
	}

	// Sensitivity sweep: two probe rows (min, max) per parameter, after
	// the 2 configs x 4 objectives fitness block.
	space := tune.Space().Len()
	wantRows := 2*4 + 2*space
	if len(tb.Rows) != wantRows {
		t.Errorf("tune table rows = %d, want %d (8 fitness + %d sensitivity)",
			len(tb.Rows), wantRows, 2*space)
	}
}
