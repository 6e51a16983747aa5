package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check. Run inspects a single package
// through the Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	Name string // command-line and suppression name, e.g. "lockcheck"
	Doc  string // one-paragraph description
	Run  func(*Pass) error
}

// A Pass presents one package to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics (suppressed ones removed) sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		sup := collectSuppressions(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			var raw []Diagnostic
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				diags:     &raw,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range raw {
				if !sup.suppressed(pkg.Fset, d) {
					diags = append(diags, d)
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// suppression is one //lint:ignore directive: it silences the named
// analyzer either within a position range (a whole function, when the
// directive sits in the function's doc comment) or on a specific line
// (the directive's own line and the line below it, so both trailing and
// preceding placement work).
type suppression struct {
	analyzer string // "" means all analyzers
	file     string
	line     int       // 0 when range-based
	from, to token.Pos // valid when line == 0
}

type suppressions []suppression

// collectSuppressions scans the package for //lint:ignore directives.
//
//	//lint:ignore lockcheck reason...   — silences lockcheck here
//	//lint:ignore * reason...           — silences every analyzer here
//
// Placed in a function's doc comment the directive covers the whole
// function; anywhere else it covers its own line and the next one.
func collectSuppressions(fset *token.FileSet, files []*ast.File) suppressions {
	var sups suppressions
	for _, f := range files {
		// Function-doc directives cover the whole declaration.
		funcRange := map[*ast.CommentGroup][2]token.Pos{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Doc != nil {
				funcRange[fd.Doc] = [2]token.Pos{fd.Pos(), fd.End()}
			}
		}
		for _, cg := range f.Comments {
			rng, isFuncDoc := funcRange[cg]
			for _, c := range cg.List {
				name, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				if isFuncDoc {
					sups = append(sups, suppression{analyzer: name, from: rng[0], to: rng[1]})
					continue
				}
				pos := fset.Position(c.Pos())
				sups = append(sups, suppression{analyzer: name, file: pos.Filename, line: pos.Line})
			}
		}
	}
	return sups
}

// parseIgnore recognises "//lint:ignore <analyzer> <reason>"; a reason
// is mandatory, matching the staticcheck directive shape.
func parseIgnore(text string) (analyzer string, ok bool) {
	const prefix = "//lint:ignore "
	if !strings.HasPrefix(text, prefix) {
		return "", false
	}
	fields := strings.Fields(text[len(prefix):])
	if len(fields) < 2 { // analyzer + at least one reason word
		return "", false
	}
	return fields[0], true
}

func (s suppressions) suppressed(fset *token.FileSet, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	for _, sup := range s {
		if sup.analyzer != "*" && sup.analyzer != d.Analyzer {
			continue
		}
		if sup.line != 0 {
			if sup.file == pos.Filename && (sup.line == pos.Line || sup.line == pos.Line-1) {
				return true
			}
			continue
		}
		if d.Pos >= sup.from && d.Pos < sup.to {
			return true
		}
	}
	return false
}
