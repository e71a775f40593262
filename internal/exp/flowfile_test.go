package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"floodgate/internal/workload"
)

// TestRunFlowFileRoundTrip exports a generated workload with
// workload.WriteSpecs and replays it through RunFlowFile: the replay
// must complete every flow, and — the export/replay fidelity check —
// a second replay of the same file renders byte-identical tables.
func TestRunFlowFileRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	o := Options{Scale: 0.1, Seed: 1, Parallelism: 1}.norm()
	tp := o.leafSpine()
	specs := burstSpecs(tp, o.Seed, incastSenders(tp))
	path := filepath.Join(t.TempDir(), "flows.ndjson")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteSpecs(f, specs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	tabs, err := RunFlowFile(path, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 1 || len(tabs[0].Rows) != 2 {
		t.Fatalf("unexpected table shape: %+v", tabs)
	}
	for _, row := range tabs[0].Rows {
		parts := strings.Split(row[1], "/")
		if len(parts) != 2 || parts[0] != parts[1] {
			t.Fatalf("scheme %s: incomplete replay %s", row[0], row[1])
		}
	}

	again, err := RunFlowFile(path, o)
	if err != nil {
		t.Fatal(err)
	}
	if renderAll(tabs) != renderAll(again) {
		t.Fatal("replaying the same flow file rendered different tables")
	}
}

// TestRunFlowFileErrors: an empty file and a missing file are errors,
// not empty tables.
func TestRunFlowFileErrors(t *testing.T) {
	o := Options{Scale: 0.1, Seed: 1, Parallelism: 1}.norm()
	empty := filepath.Join(t.TempDir(), "empty.ndjson")
	if err := os.WriteFile(empty, []byte("# nothing here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFlowFile(empty, o); err == nil {
		t.Fatal("empty flow file accepted")
	}
	if _, err := RunFlowFile(filepath.Join(t.TempDir(), "missing.ndjson"), o); err == nil {
		t.Fatal("missing flow file accepted")
	}

	// Endpoints that aren't hosts (node 0 is a switch) must be a clean
	// error naming the offending spec, not a mid-run panic.
	badEP := filepath.Join(t.TempDir(), "badep.ndjson")
	line := `{"src":0,"dst":4,"size":64000,"start_ps":0,"cat":1}` + "\n"
	if err := os.WriteFile(badEP, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := RunFlowFile(badEP, o)
	if err == nil {
		t.Fatal("non-host endpoint accepted")
	}
	if !strings.Contains(err.Error(), "not a host") || !strings.Contains(err.Error(), "spec 1") {
		t.Fatalf("endpoint error not descriptive: %v", err)
	}
}
