package main

import (
	"slices"
	"strings"
	"testing"
)

// TestRunCLI drives the whole CLI in-process: the tree lints clean,
// and any target but the implied ./... is a usage error naming it.
func TestRunCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	cases := []struct {
		name       string
		args       []string
		wantCode   int
		wantStderr string // substring of stderr
	}{
		{"tree is clean", []string{"./..."}, 0, ""},
		{"missing directory", []string{"./no/such/dir"}, 2, `"./no/such/dir"`},
		{"one package", []string{"./internal/core"}, 2, `"./internal/core"`},
		{"target after the module", []string{"./...", "extra"}, 2, `"extra"`},
		{"undefined flag", []string{"-baseline"}, 2, "not defined: -baseline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(tc.args, &stdout, &stderr); code != tc.wantCode {
				t.Fatalf("run(%q) = %d, want %d\nstdout: %s\nstderr: %s", tc.args, code, tc.wantCode, stdout.String(), stderr.String())
			}
			if stdout.Len() > 0 {
				t.Errorf("stdout not empty:\n%s", stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.wantStderr, stderr.String())
			}
		})
	}
}

// TestRulesListing pins -rules: the thirteen rules, one a line, in
// registry order.
func TestRulesListing(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-rules"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-rules exited %d: %s", code, stderr.String())
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	want := []string{"walltime", "mathrand", "envread", "multiselect", "maprange", "pool", "hotpath",
		"unitsmix", "recover", "goroutine", "shardsafety", "ordering", "detwrite"}
	if !slices.Equal(got, want) {
		t.Errorf("-rules lists %v, want %v", got, want)
	}
}
