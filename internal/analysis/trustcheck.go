package analysis

import (
	"go/ast"
	"go/types"
)

// Trustcheck is a shallow intra-function taint pass over the ingest
// paths: a value decoded from untrusted wire input must flow through a
// verification call before it reaches Apply/ApplyAt or is stored into
// long-lived state (a struct field or map). The source and sanitizer
// sets mirror the protocol: decoders of attacker-controlled frames
// taint, signature/proof verifiers clear.
var Trustcheck = &Analyzer{
	Name: "trustcheck",
	Doc:  "check that wire-decoded values are verified before they reach Apply or replica state",
	Run:  runTrustcheck,
}

// trustSources taint their results: each decodes a frame that arrived
// from the network. Deliberately excluded: store.DecodeOp /
// DecodeSnapshot (their callers operate on already-verified batch
// bodies) and certificate/reply decoders (their fields are only
// actionable after cert.Verify, which the protocol calls everywhere and
// which would be caught by the sink rules below when skipped on the
// replica ingest paths this analyzer targets).
var trustSources = map[string]bool{
	"DecodeStamp":        true,
	"DecodePledge":       true,
	"decodePledgeFrame":  true,
	"decodeBatchEntry":   true,
	"DecodeBatchUpdate":  true,
	"DecodeWriteRequest": true,
	"DecodeWriteWave":    true,
	"decodeBatchMessage": true,
	"DecodeProof":        true,
}

// trustSanitizers clear the taint of any value appearing as their
// receiver or argument (including &x and x.Field forms).
var trustSanitizers = map[string]bool{
	"Verify":             true,
	"VerifySig":          true,
	"VerifyMembers":      true,
	"verifyStamp":        true,
	"verifySnapshot":     true,
	"verify":             true,
	"AuthenticatesOp":    true,
	"ValidateOp":         true,
	"CheckPledgeAgainst": true,
}

// trustVerifiers decode and verify in one call: callers treat what they
// return as clean (they are not sources), so inside them a return is a
// sink — a decoded value may only leave through one after it has passed a
// sanitizer. DecodeStamp, decodeBatchEntry and the other sources stay
// tainting everywhere else.
var trustVerifiers = map[string]bool{
	"decodeStateTransfer": true,
}

// trustSinks are mutation entry points: a tainted argument here means
// unverified input reached the replica state machine.
var trustSinks = map[string]bool{
	"Apply":   true,
	"ApplyAt": true,
}

// trustState maps a variable to the taint root it derives from; a root
// present in the set is currently unverified.
type trustState struct {
	root    map[types.Object]types.Object
	tainted map[types.Object]bool
}

type trustChecker struct {
	pass    *Pass
	pending []*ast.FuncLit
	// longLived holds the current function's receiver and parameter
	// objects: a store into state reachable from them (s.lastStamp = x)
	// outlives the call and is a sink, unlike a store into a local
	// being assembled (bu.Ops, wrs[i]).
	longLived map[types.Object]bool
	// verifier is set while checking a trustVerifiers function.
	verifier bool
}

func runTrustcheck(pass *Pass) error {
	c := &trustChecker{pass: pass}
	for _, fn := range funcDecls(pass.Files) {
		c.longLived = map[types.Object]bool{}
		c.verifier = trustVerifiers[fn.decl.Name.Name]
		if fn.decl.Recv != nil {
			c.addParams(fn.decl.Recv)
		}
		c.addParams(fn.decl.Type.Params)
		c.checkBody(fn.decl.Body)
	}
	return nil
}

func (c *trustChecker) addParams(fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, f := range fl.List {
		for _, name := range f.Names {
			if obj := c.pass.TypesInfo.Defs[name]; obj != nil {
				c.longLived[obj] = true
			}
		}
	}
}

// storeTarget classifies an assignment LHS base object: stores through
// receivers/params/globals are sinks; anything else is local assembly.
func (c *trustChecker) storesLongLived(lhs ast.Expr) bool {
	id := baseIdent(lhs)
	if id == nil {
		return true // be conservative on exotic targets
	}
	obj := objOf(c.pass.TypesInfo, id)
	if obj == nil {
		return false
	}
	if c.longLived[obj] {
		return true
	}
	// Package-level variable.
	return obj.Parent() == c.pass.Pkg.Scope()
}

func (c *trustChecker) checkBody(body *ast.BlockStmt) {
	h := &flowHooks[trustState]{
		exec:  c.exec,
		expr:  c.scan,
		exit:  c.exit,
		clone: cloneTrustState,
		merge: mergeTrustState,
	}
	h.walk(body.List, trustState{root: map[types.Object]types.Object{}, tainted: map[types.Object]bool{}})
	for len(c.pending) > 0 {
		lit := c.pending[0]
		c.pending = c.pending[1:]
		// Closure params join the long-lived set; captured enclosing
		// params stay in it, which is what capture semantics want.
		c.addParams(lit.Type.Params)
		c.checkBody(lit.Body)
	}
}

// exit checks a return statement of a verifying decoder: nothing it hands
// back may still be tainted.
func (c *trustChecker) exit(ret *ast.ReturnStmt, st trustState) {
	if !c.verifier || ret == nil {
		return
	}
	for _, res := range ret.Results {
		c.reportTaintedIn(res, st, "returned from a verifying decoder")
	}
}

func (c *trustChecker) exec(s ast.Stmt, st trustState) trustState {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return c.assign(s, st)
	case *ast.ExprStmt:
		return c.scan(s.X, st)
	case *ast.DeferStmt:
		return c.scan(s.Call, st)
	case *ast.GoStmt:
		return c.scan(s.Call, st)
	case *ast.RangeStmt:
		// Ranging over a tainted slice taints the element vars.
		st = c.scan(s.X, st)
		if root, ok := c.taintRootOf(s.X, st); ok {
			for _, e := range []ast.Expr{s.Key, s.Value} {
				if id, isIdent := e.(*ast.Ident); isIdent {
					if obj := objOf(c.pass.TypesInfo, id); obj != nil {
						st.root[obj] = root
					}
				}
			}
		}
		return st
	case *ast.SendStmt:
		st = c.scan(s.Chan, st)
		return c.scan(s.Value, st)
	case *ast.IncDecStmt:
		return c.scan(s.X, st)
	default:
		return st
	}
}

func (c *trustChecker) assign(s *ast.AssignStmt, st trustState) trustState {
	st = c.scanMany(s.Rhs, st)

	// Taint propagation into plain variables.
	if len(s.Rhs) == 1 {
		if call, ok := s.Rhs[0].(*ast.CallExpr); ok && trustSources[calleeName(call)] {
			for _, lhs := range s.Lhs {
				id, isIdent := lhs.(*ast.Ident)
				if !isIdent || id.Name == "_" {
					continue
				}
				obj := objOf(c.pass.TypesInfo, id)
				if obj == nil || isErrorType(obj.Type()) {
					continue
				}
				st.root[obj] = obj
				st.tainted[obj] = true
			}
		} else if root, ok := c.taintRootOf(s.Rhs[0], st); ok {
			for _, lhs := range s.Lhs {
				if id, isIdent := lhs.(*ast.Ident); isIdent && id.Name != "_" {
					if obj := objOf(c.pass.TypesInfo, id); obj != nil {
						st.root[obj] = root
					}
				}
			}
		}
	} else {
		for i, rhs := range s.Rhs {
			if i >= len(s.Lhs) {
				break
			}
			if root, ok := c.taintRootOf(rhs, st); ok {
				if id, isIdent := s.Lhs[i].(*ast.Ident); isIdent {
					if obj := objOf(c.pass.TypesInfo, id); obj != nil {
						st.root[obj] = root
					}
				}
			}
		}
	}

	// Stores into fields/elements: a sink when the target outlives the
	// function, plain taint propagation when it is a local being built.
	for i, lhs := range s.Lhs {
		if _, plain := lhs.(*ast.Ident); plain {
			continue
		}
		if i >= len(s.Rhs) {
			continue
		}
		if c.storesLongLived(lhs) {
			c.reportTaintedIn(s.Rhs[i], st, "stored into replica state")
		} else if root, ok := c.taintRootIn(s.Rhs[i], st); ok {
			if id := baseIdent(lhs); id != nil {
				if obj := objOf(c.pass.TypesInfo, id); obj != nil {
					st.root[obj] = root
				}
			}
		}
	}
	return st
}

// taintRootIn finds a tainted root referenced anywhere in e (including
// inside call args like append(dst, tainted)).
func (c *trustChecker) taintRootIn(e ast.Expr, st trustState) (types.Object, bool) {
	var found types.Object
	ast.Inspect(e, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := objOf(c.pass.TypesInfo, id); obj != nil {
				if root, has := st.root[obj]; has && st.tainted[root] {
					found = root
				}
			}
		}
		return true
	})
	return found, found != nil
}

// scan processes calls inside an expression: sanitizers clear taint,
// sinks report it. Traversal skips nested function literals.
func (c *trustChecker) scan(e ast.Expr, st trustState) trustState {
	if e == nil {
		return st
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.pending = append(c.pending, n)
			return false
		case *ast.CallExpr:
			name := calleeName(n)
			if trustSanitizers[name] {
				// Clear every root reachable from receiver or args.
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					c.clearTaint(sel.X, st)
				}
				for _, a := range n.Args {
					c.clearTaint(a, st)
				}
				return true
			}
			if trustSinks[name] {
				for _, a := range n.Args {
					c.reportTaintedIn(a, st, "passed to "+name)
				}
			}
		}
		return true
	})
	return st
}

func (c *trustChecker) scanMany(es []ast.Expr, st trustState) trustState {
	for _, e := range es {
		st = c.scan(e, st)
	}
	return st
}

// taintRootOf resolves an expression to the taint root of its base
// variable, if that root is currently tainted.
func (c *trustChecker) taintRootOf(e ast.Expr, st trustState) (types.Object, bool) {
	id := baseIdent(e)
	if id == nil {
		return nil, false
	}
	obj := objOf(c.pass.TypesInfo, id)
	if obj == nil {
		return nil, false
	}
	root, ok := st.root[obj]
	if !ok || !st.tainted[root] {
		return nil, false
	}
	return root, true
}

func (c *trustChecker) clearTaint(e ast.Expr, st trustState) {
	if root, ok := c.taintRootOf(e, st); ok {
		delete(st.tainted, root)
	}
}

// reportTaintedIn reports every tainted variable referenced by e,
// looking through composite literals, unary ops, and call args like
// append(dst, tainted...).
func (c *trustChecker) reportTaintedIn(e ast.Expr, st trustState, what string) {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := objOf(c.pass.TypesInfo, id)
		if obj == nil {
			return true
		}
		if root, has := st.root[obj]; has && st.tainted[root] {
			c.pass.Reportf(id.Pos(), "unverified wire-decoded value %s %s before verification", id.Name, what)
			delete(st.tainted, root) // one report per root is enough
		}
		return true
	})
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

func cloneTrustState(st trustState) trustState {
	nr := make(map[types.Object]types.Object, len(st.root))
	for k, v := range st.root {
		nr[k] = v
	}
	nt := make(map[types.Object]bool, len(st.tainted))
	for k, v := range st.tainted {
		nt[k] = v
	}
	return trustState{root: nr, tainted: nt}
}

// mergeTrustState unions: tainted if tainted on either path.
func mergeTrustState(a, b trustState) trustState {
	for k, v := range b.root {
		a.root[k] = v
	}
	for k := range b.tainted {
		a.tainted[k] = true
	}
	return a
}
