package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// Lockcheck enforces `// guarded by <mu>` field annotations: a struct
// field carrying that annotation (in its doc or trailing comment) may
// only be read or written while the named sibling mutex of the same
// receiver value is held. Holding is tracked through x.mu.Lock() /
// Unlock() / RLock() / RUnlock() and deferred unlocks, branch-aware
// (a path that unlocks and returns does not poison the fallthrough).
//
// Two escape hatches keep the check practical:
//   - functions whose name ends in "Locked" assert that the caller
//     holds the lock (the repo-wide naming convention);
//   - a `//lint:ignore lockcheck <reason>` directive, e.g. on the
//     constructor-only recovery paths that run before concurrency
//     starts.
var Lockcheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "check that fields annotated `// guarded by <mu>` are only accessed with the mutex held",
	Run:  runLockcheck,
}

// lockState is the set of held mutexes, keyed by owner object + path
// ("varobj:mu"). Branch merges intersect: a lock counts as held only
// when every surviving path holds it.
type lockState map[string]bool

type lockChecker struct {
	pass    *Pass
	guarded map[*types.Var]string // annotated field -> mutex field name
	// inLocked marks that the current function asserts the lock by name.
	inLocked bool
	pending  []*ast.FuncLit
}

func runLockcheck(pass *Pass) error {
	c := &lockChecker{pass: pass, guarded: collectGuarded(pass)}
	if len(c.guarded) == 0 {
		return nil
	}
	for _, fn := range funcDecls(pass.Files) {
		c.inLocked = strings.HasSuffix(fn.Name.Name, "Locked")
		c.checkBody(fn.Body)
	}
	return nil
}

// collectGuarded parses `guarded by <name>` annotations from struct
// field comments.
func collectGuarded(pass *Pass) map[*types.Var]string {
	out := map[*types.Var]string{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := guardAnnotation(field.Doc)
				if mu == "" {
					mu = guardAnnotation(field.Comment)
				}
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						out[v] = mu
					}
				}
			}
			return true
		})
	}
	return out
}

func guardAnnotation(cg *ast.CommentGroup) string {
	if cg == nil {
		return ""
	}
	for _, c := range cg.List {
		text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
		idx := strings.Index(text, "guarded by ")
		if idx < 0 {
			continue
		}
		rest := strings.Fields(text[idx+len("guarded by "):])
		if len(rest) > 0 {
			return strings.Trim(rest[0], ".,;:)")
		}
	}
	return ""
}

func (c *lockChecker) checkBody(body *ast.BlockStmt) {
	h := &flowHooks[lockState]{
		exec:  c.exec,
		expr:  c.checkAccess,
		exit:  func(*ast.ReturnStmt, lockState) {},
		clone: cloneLockState,
		merge: mergeLockState,
	}
	st, _ := h.walk(body.List, lockState{})
	_ = st
	for len(c.pending) > 0 {
		lit := c.pending[0]
		c.pending = c.pending[1:]
		// A literal runs on its own goroutine or later: no inherited
		// locks, and the Locked-name assertion does not extend into it.
		saved := c.inLocked
		c.inLocked = false
		c.checkBody(lit.Body)
		c.inLocked = saved
	}
}

func (c *lockChecker) exec(s ast.Stmt, st lockState) lockState {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if key, op, ok := c.lockOp(s.X); ok {
			switch op {
			case "Lock", "RLock":
				st[key] = true
			case "Unlock", "RUnlock":
				delete(st, key)
			}
			return st
		}
		return c.checkAccess(s.X, st)
	case *ast.DeferStmt:
		if key, op, ok := c.lockOp(s.Call); ok && (op == "Unlock" || op == "RUnlock") {
			// Deferred unlock: held for the rest of the function.
			_ = key
			return st
		}
		return c.checkAccess(s.Call, st)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			st = c.checkAccess(e, st)
		}
		for _, e := range s.Lhs {
			st = c.checkAccess(e, st)
		}
		return st
	case *ast.IncDecStmt:
		return c.checkAccess(s.X, st)
	case *ast.SendStmt:
		st = c.checkAccess(s.Chan, st)
		return c.checkAccess(s.Value, st)
	case *ast.GoStmt:
		return c.checkAccess(s.Call, st)
	case *ast.RangeStmt:
		return c.checkAccess(s.X, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						st = c.checkAccess(v, st)
					}
				}
			}
		}
		return st
	default:
		return st
	}
}

// lockOp recognises <expr>.Lock() / Unlock() / RLock() / RUnlock() and
// returns a canonical key for the mutex: base object + selector path.
func (c *lockChecker) lockOp(e ast.Expr) (key, op string, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	key = c.mutexKey(sel.X)
	if key == "" {
		return "", "", false
	}
	return key, sel.Sel.Name, true
}

// mutexKey canonicalises a mutex expression (m.mu, c.stamps.mu, mu) to
// "ownerObjPtr:path.to.mu".
func (c *lockChecker) mutexKey(e ast.Expr) string {
	var path []string
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := objOf(c.pass.TypesInfo, x)
			if obj == nil {
				return ""
			}
			for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
				path[i], path[j] = path[j], path[i]
			}
			return fmt.Sprintf("%p:%s", obj, strings.Join(path, "."))
		case *ast.SelectorExpr:
			path = append(path, x.Sel.Name)
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return ""
		}
	}
}

// checkAccess flags selector accesses to guarded fields when the
// owner's mutex is not held.
func (c *lockChecker) checkAccess(e ast.Expr, st lockState) lockState {
	if e == nil || c.inLocked {
		return st
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.pending = append(c.pending, n)
			return false
		case *ast.SelectorExpr:
			sel := c.pass.TypesInfo.Selections[n]
			if sel == nil {
				return true
			}
			field, isVar := sel.Obj().(*types.Var)
			if !isVar {
				return true
			}
			mu, guarded := c.guarded[field]
			if !guarded {
				return true
			}
			base := baseIdent(n.X)
			if base == nil {
				return true
			}
			obj := objOf(c.pass.TypesInfo, base)
			if obj == nil {
				return true
			}
			key := fmt.Sprintf("%p:%s", obj, mu)
			if !st[key] {
				c.pass.Reportf(n.Sel.Pos(), "field %s.%s is guarded by %s but accessed without holding it",
					fieldOwnerName(field), field.Name(), mu)
			}
		}
		return true
	})
	return st
}

func fieldOwnerName(v *types.Var) string {
	// The owner struct's name is not directly reachable from the field
	// var; fall back to the package-qualified field position.
	if v.Pkg() != nil {
		return v.Pkg().Name()
	}
	return "?"
}

func cloneLockState(st lockState) lockState {
	n := make(lockState, len(st))
	for k := range st {
		n[k] = true
	}
	return n
}

// mergeLockState intersects: held only if held on both joined paths.
func mergeLockState(a, b lockState) lockState {
	out := lockState{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}
