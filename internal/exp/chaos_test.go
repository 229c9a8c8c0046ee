package exp

import (
	"context"
	"strings"
	"testing"
)

func TestChaosResilienceGrid(t *testing.T) {
	sc := tiny()
	sc.Apps = []string{"AndroFish"}
	rows, err := ChaosResilience(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(chaosProfiles) {
		t.Fatalf("rows = %d, want one per profile (%d)", len(rows), len(chaosProfiles))
	}
	for _, r := range rows {
		if r.Panics != 0 {
			t.Errorf("%s/%s: %d panics — fail-closed invariant broken", r.App, r.Profile, r.Panics)
		}
		if !r.ExactlyOnce {
			t.Errorf("%s/%s: delivered %d of %d unique detections", r.App, r.Profile, r.Delivered, r.Unique)
		}
	}
	if rows[0].Profile != "none" || rows[0].VMFaults != 0 || rows[0].Rejects != 0 {
		t.Errorf("clean baseline row injected faults: %+v", rows[0])
	}
	out := FormatChaos(rows)
	if !strings.Contains(out, "AndroFish") || !strings.Contains(out, "harsh+outage") {
		t.Errorf("format missing expected cells:\n%s", out)
	}
}
