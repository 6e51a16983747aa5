package analysis

import (
	"go/ast"
	"go/types"
)

// flowHooks parameterise the branch-aware statement walker shared by
// the flow-sensitive analyzers. S is the analyzer's abstract state.
//
// The walker models intra-function control flow structurally: each
// branch of an if/switch/select is walked on its own copy of the state
// and the copies are joined with merge afterwards; paths that end in
// return/break/continue/goto drop out of the join. Loop bodies execute
// zero or more times, so the post-loop state is merge(entry, body
// exit). This is deliberately simple — no fixpoints — which is exactly
// enough for the lock and taint disciplines this repo follows (neither
// needs loop-carried facts to prove).
type flowHooks[S any] struct {
	exec  func(ast.Stmt, S) S // straight-line statement
	expr  func(ast.Expr, S) S // condition / tag expression (may be nil expr)
	exit  func(*ast.ReturnStmt, S)
	clone func(S) S
	merge func(S, S) S
}

// walk processes a statement list, returning the state at its end and
// whether every path through it terminated (returned or branched).
func (h *flowHooks[S]) walk(stmts []ast.Stmt, st S) (S, bool) {
	for _, s := range stmts {
		var term bool
		st, term = h.stmt(s, st)
		if term {
			return st, true
		}
	}
	return st, false
}

func (h *flowHooks[S]) stmt(s ast.Stmt, st S) (S, bool) {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		st = h.expr2(s.Results, st)
		h.exit(s, st)
		return st, true
	case *ast.BranchStmt:
		// break/continue/goto/fallthrough: path leaves this region.
		return st, true
	case *ast.LabeledStmt:
		return h.stmt(s.Stmt, st)
	case *ast.BlockStmt:
		return h.walk(s.List, st)
	case *ast.IfStmt:
		if s.Init != nil {
			st = h.exec(s.Init, st)
		}
		st = h.expr1(s.Cond, st)
		thenSt, thenTerm := h.walk(s.Body.List, h.clone(st))
		if s.Else == nil {
			if thenTerm {
				return st, false
			}
			return h.merge(st, thenSt), false
		}
		elseSt, elseTerm := h.stmt(s.Else, h.clone(st))
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return elseSt, false
		case elseTerm:
			return thenSt, false
		default:
			return h.merge(thenSt, elseSt), false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			st = h.exec(s.Init, st)
		}
		st = h.expr1(s.Cond, st)
		bodySt, term := h.walk(s.Body.List, h.clone(st))
		if s.Post != nil && !term {
			bodySt = h.exec(s.Post, bodySt)
		}
		if s.Cond == nil && s.Init == nil && allPathsReturn(s.Body.List) {
			// for { ... } with no way out: treat as terminating.
			return st, true
		}
		if term {
			return st, false
		}
		return h.merge(st, bodySt), false
	case *ast.RangeStmt:
		st = h.exec(s, st) // analyzer sees key/value binding
		bodySt, term := h.walk(s.Body.List, h.clone(st))
		if term {
			return st, false
		}
		return h.merge(st, bodySt), false
	case *ast.SwitchStmt:
		if s.Init != nil {
			st = h.exec(s.Init, st)
		}
		st = h.expr1(s.Tag, st)
		return h.clauses(s.Body.List, st, true)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st = h.exec(s.Init, st)
		}
		if s.Assign != nil {
			st = h.exec(s.Assign, st)
		}
		return h.clauses(s.Body.List, st, true)
	case *ast.SelectStmt:
		return h.clauses(s.Body.List, st, false)
	default:
		return h.exec(s, st), false
	}
}

// clauses joins the bodies of switch/select cases. withFallthrough
// distinguishes switches (which may fall through to after the switch
// when no case matches and there is no default) from selects (which
// always execute exactly one ready case).
func (h *flowHooks[S]) clauses(list []ast.Stmt, st S, withFallthrough bool) (S, bool) {
	var exits []S
	hasDefault := false
	for _, cl := range list {
		var body []ast.Stmt
		cur := h.clone(st)
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			cur = h.expr2(cl.List, cur)
			body = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			} else {
				cur = h.exec(cl.Comm, cur)
			}
			body = cl.Body
		}
		out, term := h.walk(body, cur)
		if !term {
			exits = append(exits, out)
		}
	}
	if withFallthrough && !hasDefault {
		exits = append(exits, st)
	}
	if len(exits) == 0 {
		return st, len(list) > 0
	}
	joined := exits[0]
	for _, e := range exits[1:] {
		joined = h.merge(joined, e)
	}
	return joined, false
}

func (h *flowHooks[S]) expr1(e ast.Expr, st S) S {
	if e == nil || h.expr == nil {
		return st
	}
	return h.expr(e, st)
}

func (h *flowHooks[S]) expr2(es []ast.Expr, st S) S {
	for _, e := range es {
		st = h.expr1(e, st)
	}
	return st
}

// allPathsReturn reports whether every path through stmts hits a
// return/branch — a coarse check used only for `for {}` loops.
func allPathsReturn(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch s := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		return allPathsReturn(s.List)
	default:
		return false
	}
}

// --- shared resolution helpers ---

// calleeName returns the bare name of the called function or method:
// Foo(...) -> "Foo", x.Bar(...) -> "Bar".
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// baseIdent strips parens, derefs, selectors, and indexes down to the
// base identifier: (*m.stats).X[i] -> m.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// objOf resolves an identifier to its object via Uses then Defs.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if info == nil || id == nil {
		return nil
	}
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// funcDecls yields every function declaration with a body in the
// package's files.
func funcDecls(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}
