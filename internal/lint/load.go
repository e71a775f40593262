package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
)

// Package is one loaded, type-checked package of the module (or a test
// fixture). Files holds the non-test sources in filename order.
// TagFiles holds sources excluded by build constraints (e.g.
// //go:build simdebug, or a _windows.go name on Linux): they are parsed
// but not type-checked, and exist only so their //lint:allow comments
// are visible to the staleness report (which exempts them — their code
// is not linted).
type Package struct {
	Path     string // import path
	Dir      string
	Files    []*ast.File
	TagFiles []*ast.File
	Types    *types.Package
	Info     *types.Info
}

// Loader parses and type-checks packages using only the standard
// library: module-internal imports are resolved from source under the
// module root, everything else goes through the stdlib source
// importer. Loaded packages are memoized, so a Loader can serve the
// whole module plus any number of fixture directories cheaply.
type Loader struct {
	Fset *token.FileSet

	root    string // module root directory (holds go.mod)
	module  string // module path from go.mod
	stdlib  types.Importer
	pkgs    map[string]*Package // by import path
	sources map[string][]byte   // file contents, for allowlist column checks
	loading map[string]bool     // import cycle detection
}

// NewLoader returns a loader rooted at the directory containing go.mod.
func NewLoader(root string) (*Loader, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: %v", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	l := &Loader{
		Fset:    token.NewFileSet(),
		root:    root,
		module:  modPath,
		pkgs:    make(map[string]*Package),
		sources: make(map[string][]byte),
		loading: make(map[string]bool),
	}
	l.stdlib = importer.ForCompiler(l.Fset, "source", nil)
	return l, nil
}

// Module returns the module path from go.mod.
func (l *Loader) Module() string { return l.module }

// Source returns the raw bytes of a loaded file (empty if unknown).
func (l *Loader) Source(filename string) []byte { return l.sources[filename] }

// errNoGo marks a directory holding no file `go build` would compile.
var errNoGo = errors.New("no buildable Go files")

// LoadModule loads every package under the module root (skipping
// testdata and hidden directories) and returns them sorted by path.
func (l *Loader) LoadModule() ([]*Package, error) {
	var out []*Package
	err := filepath.WalkDir(l.root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != l.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(l.root, dir)
		if err != nil {
			return err
		}
		pkg, err := l.load(path.Join(l.module, filepath.ToSlash(rel)))
		switch {
		case errors.Is(err, errNoGo):
			return nil // not a package: `go build` compiles nothing here
		case err != nil:
			return err
		}
		out = append(out, pkg)
		return nil
	})
	if err != nil {
		return nil, err
	}
	slices.SortFunc(out, func(a, b *Package) int { return strings.Compare(a.Path, b.Path) })
	return out, nil
}

// LoadDir loads one directory outside the module layout (a test
// fixture) under the given synthetic import path. Its imports of
// module packages resolve against the module root.
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	if p, ok := l.pkgs[asPath]; ok {
		return p, nil
	}
	return l.check(asPath, dir)
}

// Import implements types.Importer: module packages load from source,
// the rest is delegated to the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.stdlib.Import(path)
}

// load type-checks a module package by import path, memoized.
func (l *Loader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	return l.check(path, dir)
}

func (l *Loader) check(path, dir string) (*Package, error) {
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	// go/build picks the files `go build` would: GOOS/GOARCH file-name
	// suffixes, //go:build lines with every release and platform tag.
	// Its errors are not fatal; a file that does not parse or
	// type-check fails below, by name.
	bp, _ := build.Default.ImportDir(dir, 0)
	if len(bp.GoFiles) == 0 {
		if _, err := os.Stat(dir); err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		return nil, fmt.Errorf("lint: %w in %s", errNoGo, dir)
	}
	var files, tagFiles []*ast.File
	for _, name := range bp.GoFiles {
		f, err := l.parse(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	// Excluded files are parsed for comments only, so //lint:allow
	// entries under a tag stay visible (and exempt from staleness). One
	// that does not parse — another platform's syntax — is skipped.
	for _, name := range bp.IgnoredGoFiles {
		if !strings.HasSuffix(name, "_test.go") {
			if f, err := l.parse(filepath.Join(dir, name)); err == nil {
				tagFiles = append(tagFiles, f)
			}
		}
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, err)
	}
	p := &Package{Path: path, Dir: dir, Files: files, TagFiles: tagFiles, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// parse reads and parses one file, keeping its bytes for the allow
// column check.
func (l *Loader) parse(filename string) (*ast.File, error) {
	src, err := os.ReadFile(filename)
	if err != nil {
		return nil, err
	}
	l.sources[filename] = src
	return parser.ParseFile(l.Fset, filename, src, parser.ParseComments)
}
