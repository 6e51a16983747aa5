package analysis

import (
	"go/ast"
	"go/types"
	"maps"
	"strings"
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

// trustSanitizers clear the taint of a value appearing as their receiver
// or argument: a whole value (x, &x, x[i]) is cleared, a field (x.F, &x.F)
// is marked checked and the value it belongs to stays tainted.
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

// trustNeeds names, per sanitizer, the field that must be checked before
// it clears anything: VerifyMembers proves a batch's ops against its
// stamp, which proves nothing until the stamp itself has verified.
var trustNeeds = map[string]string{
	"VerifyMembers": "Stamp",
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
// present in the set is currently unverified. checked holds the fields of
// tainted roots that passed their own check (bu.Stamp after
// verifyStamp(&bu.Stamp)): they read as clean, their root stays tainted.
type trustState struct {
	root    map[types.Object]types.Object
	tainted map[types.Object]bool
	checked map[checkedField]bool
}

// checkedField is a selector path ("Stamp", "Pledge.Stamp") under a root.
type checkedField struct {
	root types.Object
	path string
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
		c.verifier = trustVerifiers[fn.Name.Name]
		if fn.Recv != nil {
			c.addParams(fn.Recv)
		}
		c.addParams(fn.Type.Params)
		c.checkBody(fn.Body)
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
	h.walk(body.List, trustState{root: map[types.Object]types.Object{}, tainted: map[types.Object]bool{}, checked: map[checkedField]bool{}})
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
		if _, root := c.taintedRef(s.X, st); root != nil {
			c.derive(s.Key, root, st)
			c.derive(s.Value, root, st)
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
				for f := range st.checked {
					if f.root == obj {
						delete(st.checked, f)
					}
				}
			}
		} else if _, root := c.taintedRef(s.Rhs[0], st); root != nil {
			for _, lhs := range s.Lhs {
				c.derive(lhs, root, st)
			}
		}
	} else {
		for i, rhs := range s.Rhs {
			if _, root := c.taintedRef(rhs, st); root != nil && i < len(s.Lhs) {
				c.derive(s.Lhs[i], root, st)
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
		} else if _, root := c.taintedRef(s.Rhs[i], st); root != nil {
			if id := baseIdent(lhs); id != nil {
				if obj := objOf(c.pass.TypesInfo, id); obj != nil {
					st.root[obj] = root
				}
			}
		}
	}
	return st
}

// derive records that the plain variable lhs now holds data from root.
// An error result carries no data.
func (c *trustChecker) derive(lhs ast.Expr, root types.Object, st trustState) {
	id, isIdent := lhs.(*ast.Ident)
	if !isIdent || id.Name == "_" {
		return
	}
	if obj := objOf(c.pass.TypesInfo, id); obj != nil && !isErrorType(obj.Type()) {
		st.root[obj] = root
	}
}

// taintedRef finds an identifier in e whose root is tainted, and the
// root. Data flows through field reads, indexing, arithmetic and call
// results alike; checked fields, sanitizer results and function literals
// are not looked into.
func (c *trustChecker) taintedRef(e ast.Expr, st trustState) (ref *ast.Ident, root types.Object) {
	ast.Inspect(e, func(n ast.Node) bool {
		if root != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			return !trustSanitizers[calleeName(n)]
		case *ast.SelectorExpr:
			if id, path, ok := fieldPath(n); ok {
				if r, tainted := c.rootOf(id, st); tainted && st.checked[checkedField{r, path}] {
					return false
				}
			}
		case *ast.Ident:
			if r, tainted := c.rootOf(n, st); tainted {
				ref, root = n, r
			}
		}
		return true
	})
	return ref, root
}

// fieldPath splits a chain of field selectors x.a.b into x and "a.b".
func fieldPath(e ast.Expr) (*ast.Ident, string, bool) {
	path := ""
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, path, path != ""
		case *ast.SelectorExpr:
			path = strings.TrimSuffix(x.Sel.Name+"."+path, ".")
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil, "", false
		}
	}
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
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					c.clearTaint(sel.X, st, name)
				}
				for _, a := range n.Args {
					c.clearTaint(a, st, name)
				}
				return true
			}
			if trustSinks[name] {
				for _, a := range n.Args {
					if c.reportTaintedIn(a, st, "passed to "+name) {
						break
					}
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

// rootOf resolves an identifier to its taint root, if that root is
// currently tainted.
func (c *trustChecker) rootOf(id *ast.Ident, st trustState) (types.Object, bool) {
	root, ok := st.root[objOf(c.pass.TypesInfo, id)]
	return root, ok && st.tainted[root]
}

// clearTaint applies sanitizer name to e: a field of a tainted root is
// marked checked, a whole root is cleared (once trustNeeds is met).
func (c *trustChecker) clearTaint(e ast.Expr, st trustState, name string) {
	if u, ok := e.(*ast.UnaryExpr); ok {
		e = u.X
	}
	if id, path, ok := fieldPath(e); ok {
		if root, tainted := c.rootOf(id, st); tainted {
			st.checked[checkedField{root, path}] = true
		}
		return
	}
	id := baseIdent(e)
	if id == nil {
		return
	}
	root, tainted := c.rootOf(id, st)
	if !tainted {
		return
	}
	if need := trustNeeds[name]; need == "" || st.checked[checkedField{root, need}] {
		delete(st.tainted, root)
	}
}

// reportTaintedIn reports the first tainted value e refers to, looking
// through composite literals, arithmetic and call arguments, and says
// whether it found one.
func (c *trustChecker) reportTaintedIn(e ast.Expr, st trustState, what string) bool {
	id, _ := c.taintedRef(e, st)
	if id != nil {
		c.pass.Reportf(id.Pos(), "unverified wire-decoded value %s %s before verification", id.Name, what)
	}
	return id != nil
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

func cloneTrustState(st trustState) trustState {
	return trustState{root: maps.Clone(st.root), tainted: maps.Clone(st.tainted), checked: maps.Clone(st.checked)}
}

// mergeTrustState joins two paths: tainted if tainted on either, checked
// only if checked on both.
func mergeTrustState(a, b trustState) trustState {
	for k, v := range b.root {
		a.root[k] = v
	}
	for k := range b.tainted {
		a.tainted[k] = true
	}
	for k := range a.checked {
		if !b.checked[k] {
			delete(a.checked, k)
		}
	}
	return a
}
