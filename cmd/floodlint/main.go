// Command floodlint runs the repository's custom static-analysis suite
// (see internal/lint): determinism, packet-pooling, hot-path
// allocation, units-hygiene, shard-safety and event-ordering
// invariants that ordinary vet/tests cannot express. It type-checks
// every package of the enclosing module with the standard library.
//
//	floodlint ./...     lint the whole module (the argument is implied)
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
	"os"
	"path/filepath"

	"floodgate/internal/lint"
)

func main() {
	listRules := flag.Bool("rules", false, "list the rules and exit")
	flag.Parse()
	if *listRules {
		for _, r := range lint.Rules() {
			fmt.Printf("%-12s %s\n", r.Name, r.Doc)
		}
		return
	}
	root := check(moduleRoot())
	l := check(lint.NewLoader(root))
	pkgs := check(l.LoadModule())
	diags := lint.Run(l, pkgs, lint.DefaultConfig(l.Module()))
	for _, d := range diags {
		fmt.Println(d.Rel(root))
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "floodlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// check exits with status 2 on a load error.
func check[T any](v T, err error) T {
	if err != nil {
		fmt.Fprintln(os.Stderr, "floodlint:", err)
		os.Exit(2)
	}
	return v
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
