package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestValidateConcurrency pins the usage contract: an explicit -par
// whose par x shards product exceeds GOMAXPROCS — or a -shards count a
// single run cannot execute in parallel — is a usage error, while
// -par 0 defers to the executor's auto-sizing.
func TestValidateConcurrency(t *testing.T) {
	cases := []struct {
		name            string
		par, shards, mp int
		wantErr         string // "" = accept
	}{
		{"serial default", 0, 1, 8, ""},
		{"unsharded any par", 16, 1, 8, ""}, // run-level pool clamps itself; no shard goroutines
		{"auto par with shards", 0, 4, 8, ""},
		{"auto par absorbs any shard count", 0, 16, 8, ""}, // time-sliced but bit-exact (1-core CI)
		{"exact fit", 2, 4, 8, ""},
		{"serial run of wide shards", 1, 8, 8, ""},
		{"oversubscribed product", 4, 4, 8, "oversubscribes GOMAXPROCS=8"},
		{"barely oversubscribed", 3, 3, 8, "oversubscribes GOMAXPROCS=8"},
		{"explicit serial still oversubscribed", 1, 9, 8, "oversubscribes GOMAXPROCS=8"},
		{"zero shards falls back to serial", 4, 0, 2, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateConcurrency(tc.par, tc.shards, tc.mp)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateConcurrency(%d, %d, %d) = %v, want accept", tc.par, tc.shards, tc.mp, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateConcurrency(%d, %d, %d) accepted, want error containing %q", tc.par, tc.shards, tc.mp, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error = %q, want it to mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestValidateForensics pins the flag-pairing contract: -forensics is
// file output, so it is a usage error without an -obs directory, and
// the message must tell the user the fix.
func TestValidateForensics(t *testing.T) {
	cases := []struct {
		name      string
		forensics bool
		obsDir    string
		wantErr   string // "" = accept
	}{
		{"both off", false, "", ""},
		{"obs alone", false, "out", ""},
		{"forensics with obs", true, "out", ""},
		{"forensics without obs", true, "", "needs -obs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateForensics(tc.forensics, tc.obsDir)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateForensics(%t, %q) = %v, want accept", tc.forensics, tc.obsDir, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateForensics(%t, %q) accepted, want error containing %q", tc.forensics, tc.obsDir, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error = %q, want it to mention %q", err, tc.wantErr)
			}
			if !strings.Contains(err.Error(), "-obs out/") {
				t.Errorf("error = %q, want it to suggest the fix (-obs out/)", err)
			}
		})
	}
}

// TestRunCLI drives the whole CLI in-process: one real experiment per
// execution surface (sharded, obs+forensics, app plane, -topo preset,
// a single fault scenario) exits 0 with a table, every usage error
// exits 2 with a message naming the offending flag, and a run that
// cannot start (unknown experiment or scenario, missing flow file, a
// flow file with a bad line) exits 1 naming it. Every mode shares one Options value, so -obs
// reaches a -faults run too.
func TestRunCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	obs, faultObs := t.TempDir(), t.TempDir()
	missing := filepath.Join(t.TempDir(), "missing.ndjson")
	badCat := filepath.Join(t.TempDir(), "badcat.ndjson")
	if err := os.WriteFile(badCat, []byte(`{"src":3,"dst":71,"size":64000,"start_ps":0,"cat":1}`+"\n"+
		`{"src":3,"dst":71,"size":64000,"start_ps":0,"cat":9}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		args       []string
		wantCode   int
		wantStdout string // substring of stdout
		wantStderr string // substring of stderr
	}{
		{"sharded figure", []string{"-exp", "fig2", "-scale", "0.1", "-shards", "2"}, 0, "== Fig 2", ""},
		{"obs with forensics", []string{"-exp", "fig2", "-scale", "0.1", "-obs", obs, "-forensics"}, 0, "FCT time budget", ""},
		{"app plane", []string{"-exp", "sloincast", "-scale", "0.1"}, 0, "[sloincast done in", ""},
		{"topo preset", []string{"-exp", "scaleincast", "-topo", "clos"}, 0, "structural", ""},
		{"forensics without obs", []string{"-exp", "fig2", "-forensics"}, 2, "", "-forensics needs -obs"},
		{"obs with shards", []string{"-exp", "fig2", "-obs", obs, "-shards", "2"}, 2, "", "-obs does not compose with -shards"},
		{"unknown topo", []string{"-exp", "scaleincast", "-topo", "torus"}, 2, "", `unknown -topo "torus"`},
		{"removed scheduler knob", []string{"-exp", "fig2", "-sched", "heap"}, 2, "", "not defined: -sched"},
		{"scale above one", []string{"-exp", "fig2", "-scale", "5"}, 2, "", "-scale must be in (0, 1], got 5"},
		{"scale not a number", []string{"-exp", "fig2", "-scale", "NaN"}, 2, "", "-scale must be in (0, 1], got NaN"},
		{"negative par", []string{"-exp", "fig2", "-par", "-3"}, 2, "", "-par must be non-negative, got -3"},
		{"unknown experiment", []string{"-exp", "nope"}, 1, "", "nope"},
		{"fault scenario with obs", []string{"-faults", "none", "-scale", "0.1", "-obs", faultObs}, 0, "== Fault matrix", ""},
		{"unknown fault scenario", []string{"-faults", "bogus"}, 1, "", `unknown fault scenario "bogus"`},
		{"missing flow file", []string{"-flows-from", missing}, 1, "", "missing.ndjson"},
		{"flow file bad category", []string{"-flows-from", badCat}, 1, "", "flow file line 2: cat 9"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(tc.args, &stdout, &stderr); code != tc.wantCode {
				t.Fatalf("run(%q) = %d, want %d\nstderr: %s", tc.args, code, tc.wantCode, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.wantStdout) {
				t.Errorf("stdout lacks %q:\n%s", tc.wantStdout, stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.wantStderr, stderr.String())
			}
		})
	}
	reports, err := filepath.Glob(filepath.Join(obs, "fig2", "*.forensics.ndjson"))
	if err != nil || len(reports) == 0 {
		t.Fatalf("-obs -forensics wrote no %s/fig2/*.forensics.ndjson (err %v)", obs, err)
	}
	metrics, err := filepath.Glob(filepath.Join(faultObs, "adhoc", "*.metrics.ndjson"))
	if err != nil || len(metrics) == 0 {
		t.Fatalf("-faults none -obs wrote no %s/adhoc/*.metrics.ndjson (err %v)", faultObs, err)
	}
}
