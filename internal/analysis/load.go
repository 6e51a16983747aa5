package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// A Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path, e.g. "repro/internal/core"
	Dir   string // directory the files were parsed from
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// TypeErrors collects non-fatal type-check problems. Analyzers run
	// anyway with whatever type information survived.
	TypeErrors []error
}

// LoadModule loads the packages selected by patterns from the Go module
// rooted at or above dir, with the module's packages they import.
// Supported patterns: "./..." (every package in the module) and directory
// paths relative to the module root ("./internal/core"). Test files
// (_test.go) and testdata directories are skipped: repllint checks
// production code.
func LoadModule(dir string, patterns []string) ([]*Package, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	importPath := func(d string) string {
		rel, _ := filepath.Rel(root, d)
		if rel == "." {
			return modPath
		}
		return modPath + "/" + filepath.ToSlash(rel)
	}
	var paths []string
	for _, p := range patterns {
		if p != "./..." && p != "..." {
			paths = append(paths, importPath(filepath.Join(root, p)))
			continue
		}
		err = filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
			if err != nil || !e.IsDir() {
				return err
			}
			name := e.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if names, err := goFiles(path); err != nil || len(names) > 0 {
				paths = append(paths, importPath(path))
				return err
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return load(paths, func(ip string) (string, bool) {
		if ip == modPath {
			return root, true
		}
		rel, ok := strings.CutPrefix(ip, modPath+"/")
		return filepath.Join(root, filepath.FromSlash(rel)), ok
	})
}

// LoadFromSrcRoot loads the named import paths from a GOPATH-style
// source tree: srcRoot/<importpath>/*.go. Local imports resolve against
// srcRoot; everything else goes to the standard library source
// importer. Used by the analysistest harness.
func LoadFromSrcRoot(srcRoot string, paths []string) ([]*Package, error) {
	return load(paths, func(ip string) (string, bool) {
		dir := filepath.Join(srcRoot, filepath.FromSlash(ip))
		st, err := os.Stat(dir)
		return dir, err == nil && st.IsDir()
	})
}

// load parses and type-checks the packages at paths and every local
// package they import, and returns the ones at paths. dirOf maps an
// import path to its source directory; ok is false for a path that is
// not local, which the standard library's source importer resolves.
func load(paths []string, dirOf func(ip string) (dir string, ok bool)) ([]*Package, error) {
	ld := newLoader()
	var add func(ip string) error
	add = func(ip string) error {
		if _, ok := ld.pkgs[ip]; ok {
			return nil
		}
		dir, ok := dirOf(ip)
		if !ok {
			return nil
		}
		files, err := parseDir(ld.fset, dir)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return fmt.Errorf("analysis: no Go files in %s", dir)
		}
		ld.add(ip, dir, files)
		for _, f := range files {
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if err := add(p); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, p := range paths {
		if _, ok := dirOf(p); !ok {
			return nil, fmt.Errorf("analysis: package not found: %s", p)
		}
		if err := add(p); err != nil {
			return nil, err
		}
	}
	if err := ld.typecheckAll(); err != nil {
		return nil, err
	}
	var out []*Package
	seen := map[string]bool{}
	for _, p := range paths {
		if !seen[p] {
			seen[p] = true
			out = append(out, ld.pkgs[p])
		}
	}
	return out, nil
}

type loader struct {
	fset  *token.FileSet
	pkgs  map[string]*Package
	order []string // insertion order; typecheckAll topo-sorts
}

func newLoader() *loader {
	return &loader{fset: token.NewFileSet(), pkgs: map[string]*Package{}}
}

// stdlib type-checks standard library packages from source. That is most
// of a load's cost and its result never changes, so every load in the
// process shares one importer, behind stdlibMu (the importer is not safe
// for concurrent use).
var (
	stdlibMu sync.Mutex
	stdlib   = importer.ForCompiler(token.NewFileSet(), "source", nil)
)

func (ld *loader) add(ip, dir string, files []*ast.File) {
	ld.pkgs[ip] = &Package{Path: ip, Dir: dir, Fset: ld.fset, Files: files}
	ld.order = append(ld.order, ip)
}

// Import implements types.Importer: local packages come from the loaded
// set (typecheckAll guarantees dependency order), the rest from the
// standard library's source importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	if p, ok := ld.pkgs[path]; ok {
		if p.Types == nil {
			return nil, fmt.Errorf("analysis: import cycle or unchecked package %s", path)
		}
		return p.Types, nil
	}
	stdlibMu.Lock()
	defer stdlibMu.Unlock()
	return stdlib.Import(path)
}

func (ld *loader) typecheckAll() error {
	// Topological order over local imports.
	marks := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var order []string
	var visit func(ip string) error
	visit = func(ip string) error {
		switch marks[ip] {
		case 1:
			return fmt.Errorf("analysis: import cycle through %s", ip)
		case 2:
			return nil
		}
		marks[ip] = 1
		for _, dep := range ld.localImports(ip) {
			if err := visit(dep); err != nil {
				return err
			}
		}
		marks[ip] = 2
		order = append(order, ip)
		return nil
	}
	sorted := append([]string(nil), ld.order...)
	sort.Strings(sorted)
	for _, ip := range sorted {
		if err := visit(ip); err != nil {
			return err
		}
	}
	ld.order = order

	for _, ip := range order {
		pkg := ld.pkgs[ip]
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		conf := types.Config{
			Importer: ld,
			Error: func(err error) {
				pkg.TypeErrors = append(pkg.TypeErrors, err)
			},
		}
		tpkg, err := conf.Check(ip, ld.fset, pkg.Files, info)
		if err != nil && tpkg == nil {
			return fmt.Errorf("analysis: type-checking %s: %w", ip, err)
		}
		pkg.Types = tpkg
		pkg.Info = info
	}
	return nil
}

func (ld *loader) localImports(ip string) []string {
	pkg := ld.pkgs[ip]
	seen := map[string]bool{}
	var deps []string
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if _, ok := ld.pkgs[p]; ok && !seen[p] {
				seen[p] = true
				deps = append(deps, p)
			}
		}
	}
	sort.Strings(deps)
	return deps
}

// goFiles lists the non-test Go files of one directory.
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			names = append(names, name)
		}
	}
	return names, nil
}

// parseDir parses the non-test Go files of one directory.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// findModule locates go.mod at or above dir and returns the module root
// and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("analysis: no go.mod at or above %s", abs)
		}
	}
}
