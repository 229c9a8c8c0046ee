package main

import (
	"encoding/json"
	"fmt"
	"os"

	"bombdroid/internal/obs"
)

// writeMetrics merges the process-default registry (prepare spans)
// into the run registry, writes the JSON snapshot, and re-reads it to
// prove the file parses — the check TestRunMetricsSnapshot relies on.
func writeMetrics(path string, reg *obs.Registry) error {
	obs.Default().MergeInto(reg)
	b, err := reg.Snapshot().JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	written, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var round obs.Snapshot
	if err := json.Unmarshal(written, &round); err != nil {
		return fmt.Errorf("snapshot at %s does not round-trip: %w", path, err)
	}
	return nil
}
