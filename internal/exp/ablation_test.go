package exp

import (
	"context"
	"os"
	"testing"
)

// TestAblations pins the rendered ablation table. The golden predates
// the arms' shared engine store, so it also proves the store changes
// no measurement.
func TestAblations(t *testing.T) {
	rows, err := Ablations(context.Background(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("%s: %s | %s", r.Name, r.With, r.Without)
	}
	want, err := os.ReadFile("testdata/ablations.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatAblations(rows); got != string(want) {
		t.Errorf("ablation table drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}
