package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkIsPricedOnlyByTheMeter keeps the cost model behind
// cryptoutil.Meter: no non-test file of this package reads a CostModel
// field (x.Costs.Sign) or runs work on a sim.Resource itself (cpu.Use,
// cpu.Charge). A charge placed by hand is priced apart from its work,
// and nothing then notices when one goes missing or lands under a mutex.
func TestWorkIsPricedOnlyByTheMeter(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.SelectorExpr); ok && x.Sel.Name == "Costs" {
					t.Errorf("%s: reads the cost model's %s; price the work on the node's meter", fset.Position(n.Pos()), n.Sel.Name)
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Use" || sel.Sel.Name == "Charge") {
					t.Errorf("%s: charges a resource directly; price the work on the node's meter", fset.Position(n.Pos()))
				}
			}
			return true
		})
	}
}
