// Command floodlint runs the repository's custom static-analysis suite
// (see internal/lint): determinism, packet-pooling, hot-path
// allocation, units-hygiene, shard-safety and event-ordering
// invariants that ordinary vet/tests cannot express. It type-checks
// every package of the enclosing module with the standard library.
//
//	floodlint [./...]   lint the whole module (the only target)
//	floodlint -rules    list the rules
//
// Findings print as file:line: [rule] message, relative to the module
// root. Suppress one with //lint:allow <rule> <reason> on (or directly
// above) the offending line; an allow that matches nothing is itself a
// finding. Exit status: 0 clean, 1 any finding, 2 usage or load error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"floodgate/internal/lint"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole CLI behind an exit code, so the tests drive it
// in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("floodlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listRules := fs.Bool("rules", false, "list the rules and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *listRules {
		for _, r := range lint.Rules() {
			fmt.Fprintf(stdout, "%-12s %s\n", r.Name, r.Doc)
		}
		return 0
	}
	for _, arg := range fs.Args() {
		if arg != "./..." {
			fmt.Fprintf(stderr, "floodlint: cannot lint %q: the only target is the whole module (./...)\n", arg)
			return 2
		}
	}
	root, diags, err := lintModule()
	if err != nil {
		fmt.Fprintln(stderr, "floodlint:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d.Rel(root))
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "floodlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// lintModule lints the module enclosing the working directory.
func lintModule() (root string, diags []lint.Diagnostic, err error) {
	if root, err = moduleRoot(); err != nil {
		return "", nil, err
	}
	l, err := lint.NewLoader(root)
	if err != nil {
		return "", nil, err
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		return "", nil, err
	}
	return root, lint.Run(l, pkgs, lint.DefaultConfig(l.Module())), nil
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	for err == nil {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		if dir == filepath.Dir(dir) {
			return "", errors.New("no go.mod found above the working directory")
		}
		dir = filepath.Dir(dir)
	}
	return "", err
}
