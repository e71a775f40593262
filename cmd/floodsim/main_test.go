package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// validated runs the CLI on args against an unknown fault scenario, so
// it stops after option validation without simulating: exit 1 (the
// scenario lookup) means Options.Validate accepted the flags, exit 2
// that it refused them.
func validated(args ...string) (code int, stderr string) {
	var out, errb strings.Builder
	code = run(append(args, "-faults", "bogus"), &out, &errb)
	return code, errb.String()
}

// TestValidateConcurrency pins that floodsim holds no par x shards
// policy of its own: every non-negative -par/-shards pairing passes
// validation, oversubscribed or not (the executor clamps it, see
// TestShardOversubscriptionClamp), and only a negative count exits 2
// naming the field and the flag.
func TestValidateConcurrency(t *testing.T) {
	cases := []struct {
		name        string
		par, shards int
		wantErr     string // "" = accept
	}{
		{"serial default", 0, 1, ""},
		{"unsharded any par", 16, 1, ""},
		{"auto par with shards", 0, 4, ""},
		{"auto par absorbs any shard count", 0, 16, ""},
		{"exact fit", 2, 4, ""},
		{"serial run of wide shards", 1, 8, ""},
		{"oversubscribed product", 4, 4, ""},
		{"barely oversubscribed", 3, 3, ""},
		{"explicit serial still oversubscribed", 1, 9, ""},
		{"zero shards falls back to serial", 4, 0, ""},
		{"negative par", -1, 1, "Options.Parallelism (-par)"},
		{"negative shards", 2, -4, "Options.Shards (-shards)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stderr := validated("-par", fmt.Sprint(tc.par), "-shards", fmt.Sprint(tc.shards))
			if tc.wantErr == "" && (code != 1 || !strings.Contains(stderr, "unknown fault scenario")) {
				t.Fatalf("-par %d -shards %d: exit %d, want it accepted\nstderr: %s", tc.par, tc.shards, code, stderr)
			}
			if tc.wantErr != "" && (code != 2 || !strings.Contains(stderr, tc.wantErr)) {
				t.Fatalf("-par %d -shards %d: exit %d, stderr %q; want exit 2 naming %s", tc.par, tc.shards, code, stderr, tc.wantErr)
			}
		})
	}
}

// TestValidateForensics pins the flag pairing: -forensics runs with or
// without -obs (the attribution tables print either way), while
// -sample, which only sets the period of -obs files, needs -obs.
func TestValidateForensics(t *testing.T) {
	obs := t.TempDir()
	cases := []struct {
		name    string
		args    []string
		wantErr string // "" = accept
	}{
		{"both off", nil, ""},
		{"obs alone", []string{"-obs", obs}, ""},
		{"forensics with obs", []string{"-forensics", "-obs", obs}, ""},
		{"forensics without obs", []string{"-forensics"}, ""},
		{"sample without obs", []string{"-forensics", "-sample", "10us"}, "Options.Obs.Dir (-obs)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stderr := validated(tc.args...)
			if tc.wantErr == "" && (code != 1 || !strings.Contains(stderr, "unknown fault scenario")) {
				t.Fatalf("%q: exit %d, want it accepted\nstderr: %s", tc.args, code, stderr)
			}
			if tc.wantErr != "" && (code != 2 || !strings.Contains(stderr, tc.wantErr)) {
				t.Fatalf("%q: exit %d, stderr %q; want exit 2 naming %s", tc.args, code, stderr, tc.wantErr)
			}
		})
	}
}

// TestRunCLI drives the whole CLI in-process: one real experiment per
// execution surface (sharded, obs+forensics, app plane, -topo preset,
// a single fault scenario) exits 0 with a table, every usage error
// exits 2 with Options.Validate's message naming the field and the
// flag, and a run that cannot start (unknown experiment or scenario,
// missing flow file, a flow file with a bad line) exits 1 naming it.
// Every mode shares one Options value, so -obs reaches a -faults run
// too, and an -obs run writes the same files at -shards 2 as at 1.
func TestRunCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	obs, obsSharded, faultObs := t.TempDir(), t.TempDir(), t.TempDir()
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
		{"sharded figure", []string{"-exp", "fig2", "-scale", "0.1", "-shards", "2"}, 0, "== Fig 2", "barrier census"},
		{"obs with forensics", []string{"-exp", "fig2", "-scale", "0.1", "-obs", obs, "-forensics"}, 0, "FCT time budget", ""},
		{"app plane", []string{"-exp", "sloincast", "-scale", "0.1"}, 0, "[sloincast done in", ""},
		{"topo preset", []string{"-exp", "scaleincast", "-topo", "clos"}, 0, "structural", ""},
		{"forensics without obs", []string{"-exp", "fig2", "-scale", "0.1", "-forensics"}, 0, "FCT time budget", ""},
		{"negative sample", []string{"-exp", "fig2", "-obs", obs, "-sample", "-5us"}, 2, "", "Options.Obs.Period (-sample) must be non-negative, got -5us"},
		{"sample without obs", []string{"-exp", "fig2", "-sample", "10us"}, 2, "", "Options.Obs.Period (-sample) needs Options.Obs.Dir (-obs)"},
		{"obs with shards", []string{"-exp", "fig2", "-scale", "0.1", "-obs", obsSharded, "-forensics", "-shards", "2"}, 0, "FCT time budget", ""},
		{"default scale", []string{"-exp", "fig7", "-scale", "0"}, 0, "at scale 0.25]", ""},
		{"oversubscribed par x shards", []string{"-exp", "fig7", "-par", "2", "-shards", "64"}, 0, "[fig7 done in", "clamping to 1 concurrent runs"},
		{"unknown topo", []string{"-exp", "scaleincast", "-topo", "torus"}, 2, "", `unknown Options.Topo (-topo) "torus"`},
		{"removed scheduler knob", []string{"-exp", "fig2", "-sched", "heap"}, 2, "", "not defined: -sched"},
		{"removed app overlay", []string{"-exp", "faultmatrix", "-app"}, 2, "", "not defined: -app"},
		{"scale above one", []string{"-exp", "fig2", "-scale", "5"}, 2, "", "Options.Scale (-scale) must be in (0, 1], or 0 for the default 0.25; got 5"},
		{"scale below zero", []string{"-exp", "fig2", "-scale", "-1"}, 2, "", "Options.Scale (-scale) must be in (0, 1], or 0 for the default 0.25; got -1"},
		{"scale not a number", []string{"-exp", "fig2", "-scale", "NaN"}, 2, "", "Options.Scale (-scale) must be in (0, 1], or 0 for the default 0.25; got NaN"},
		{"negative par", []string{"-exp", "fig2", "-par", "-3"}, 2, "", "Options.Parallelism (-par) must be non-negative, got -3"},
		{"negative shards", []string{"-exp", "fig2", "-shards", "-2"}, 2, "", "Options.Shards (-shards) must be non-negative, got -2"},
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
	// -obs -shards 2 writes, byte for byte, the files of -shards 1.
	unsharded, sharded := readDir(t, filepath.Join(obs, "fig2")), readDir(t, filepath.Join(obsSharded, "fig2"))
	if len(unsharded) < 2 || len(sharded) != len(unsharded) {
		t.Fatalf("-obs -shards 2 wrote %d files, -shards 1 %d", len(sharded), len(unsharded))
	}
	for name, b := range unsharded {
		if sharded[name] != b {
			t.Errorf("%s differs between -obs -shards 2 and -shards 1", name)
		}
	}
}

// readDir maps each file name in dir to its content.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}
