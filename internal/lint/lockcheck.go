package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// AnalyzerLockcheck enforces `// guarded by <mu>` field annotations: a
// field so annotated may only be read with the named sibling mutex (or
// its read half) held in the same function, and only be written with
// the write lock held. This is the class of bug behind the PR 9 race in
// Outbox.SendTo (since deleted), where the bound-check and the stamp
// were split across two critical sections.
var AnalyzerLockcheck = &Analyzer{
	Name: "lockcheck",
	Doc: "fields annotated `// guarded by mu` must be accessed with the named " +
		"sibling mutex held in the same function (reads need RLock or Lock, " +
		"writes need Lock); catches check-then-act splits like the PR 9 SendTo race. " +
		"Functions named *Locked declare the caller-holds-the-lock contract and are skipped",
	Run: runLockcheck,
}

// guardedRe extracts the mutex name from a field annotation. Only a
// bare identifier is enforced (the mutex must be a sibling field);
// qualified names like "shard.mu" document cross-object guards the
// checker cannot see and are skipped.
var guardedRe = regexp.MustCompile(`guarded by ([A-Za-z0-9_.]+)`)

// Lock levels: how strongly a mutex is held on the current path.
const (
	lockNone  = 0
	lockRead  = 1
	lockWrite = 2
)

func runLockcheck(p *Pass) error {
	lc := &lockChecker{p: p, guards: collectGuards(p)}
	if len(lc.guards) == 0 {
		return nil
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				continue // caller-holds-the-lock contract, declared by name
			}
			st := &lockState{held: map[string]int{}, fresh: map[types.Object]bool{}}
			lc.stmt(fd.Body, st)
		}
	}
	return nil
}

// guardInfo records one annotated field: which sibling mutex guards it
// and whether that mutex has a read half.
type guardInfo struct {
	mu     string
	rwLock bool
}

// collectGuards finds every `// guarded by mu` annotation whose named
// mutex is a sibling field of the same struct with a sync.Mutex or
// sync.RWMutex type. Annotations naming a missing or non-mutex sibling
// are reported: a typo there silently disables the invariant.
func collectGuards(p *Pass) map[types.Object]guardInfo {
	guards := make(map[types.Object]guardInfo)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			// Index sibling mutex fields by name.
			mutexes := make(map[string]bool) // name -> isRW
			present := make(map[string]bool)
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					present[name.Name] = true
					if rw, isMu := mutexType(p.Info.Types[fld.Type].Type); isMu {
						mutexes[name.Name] = rw
						present[name.Name] = true
					}
				}
			}
			for _, fld := range st.Fields.List {
				text := ""
				if fld.Comment != nil {
					text += fld.Comment.Text()
				}
				if fld.Doc != nil {
					text += " " + fld.Doc.Text()
				}
				m := guardedRe.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				muName := m[1]
				if containsDot(muName) {
					continue // cross-object guard: documented, not enforced
				}
				rw, isMu := mutexes[muName]
				if !isMu {
					kind := "is not a sync.Mutex/RWMutex"
					if !present[muName] {
						kind = "is not a field of this struct"
					}
					p.Reportf(fld.Pos(), "guarded-by annotation names %q, which %s; the guard is unenforceable (typo?)", muName, kind)
					continue
				}
				for _, name := range fld.Names {
					if obj := p.Info.Defs[name]; obj != nil {
						guards[obj] = guardInfo{mu: muName, rwLock: rw}
					}
				}
			}
			return true
		})
	}
	return guards
}

// mutexType reports whether t is sync.Mutex or sync.RWMutex (or a
// pointer to one); rw distinguishes the RWMutex.
func mutexType(t types.Type) (rw, ok bool) {
	if t == nil {
		return false, false
	}
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false, false
	}
	switch named.Obj().Name() {
	case "Mutex":
		return false, true
	case "RWMutex":
		return true, true
	}
	return false, false
}

func containsDot(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '.' {
			return true
		}
	}
	return false
}

// lockState is the checker's abstract state along one path: which
// mutexes are held (keyed by the printed base expression plus the
// mutex field, e.g. "o.mu") and which local objects are freshly
// constructed in this function and therefore unshared.
type lockState struct {
	held  map[string]int
	fresh map[types.Object]bool
}

func (st *lockState) clone() *lockState {
	h := make(map[string]int, len(st.held))
	for k, v := range st.held {
		h[k] = v
	}
	fr := make(map[types.Object]bool, len(st.fresh))
	for k, v := range st.fresh {
		fr[k] = v
	}
	return &lockState{held: h, fresh: fr}
}

// lockChecker walks one function body in source order, tracking lock
// state linearly. Branch bodies are analyzed on cloned state and the
// pre-branch state continues after them — the usual early-return
// unlock pattern stays precise, and the few conditional-locking shapes
// this misjudges take a //wwlint:allow.
type lockChecker struct {
	p      *Pass
	guards map[types.Object]guardInfo
}

func (lc *lockChecker) stmt(s ast.Stmt, st *lockState) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, inner := range s.List {
			lc.stmt(inner, st)
		}
	case *ast.ExprStmt:
		lc.expr(s.X, st, false)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			lc.expr(rhs, st, false)
		}
		lc.trackFresh(s, st)
		for _, lhs := range s.Lhs {
			lc.expr(lhs, st, true)
		}
	case *ast.IncDecStmt:
		lc.expr(s.X, st, true)
	case *ast.DeferStmt:
		// A deferred unlock keeps the mutex held to function end; any
		// other deferred call runs with unknowable lock state, so walk
		// it against a snapshot of the current state.
		if lc.lockOp(s.Call, nil) {
			return
		}
		lc.exprs(s.Call.Args, st, false)
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			if deferredUnlockOnly(fl) {
				return
			}
			lc.stmt(fl.Body, st.clone())
		}
	case *ast.GoStmt:
		lc.exprs(s.Call.Args, st, false)
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			// The goroutine runs after the current critical section:
			// it holds nothing.
			lc.stmt(fl.Body, &lockState{held: map[string]int{}, fresh: st.clone().fresh})
		}
	case *ast.IfStmt:
		lc.stmt(s.Init, st)
		lc.expr(s.Cond, st, false)
		lc.stmt(s.Body, st.clone())
		lc.stmt(s.Else, st.clone())
	case *ast.ForStmt:
		lc.stmt(s.Init, st)
		if s.Cond != nil {
			lc.expr(s.Cond, st, false)
		}
		body := st.clone()
		lc.stmt(s.Body, body)
		lc.stmt(s.Post, body)
	case *ast.RangeStmt:
		lc.expr(s.X, st, false)
		body := st.clone()
		if s.Key != nil {
			lc.expr(s.Key, body, true)
		}
		if s.Value != nil {
			lc.expr(s.Value, body, true)
		}
		lc.stmt(s.Body, body)
	case *ast.SwitchStmt:
		lc.stmt(s.Init, st)
		if s.Tag != nil {
			lc.expr(s.Tag, st, false)
		}
		for _, clause := range s.Body.List {
			lc.stmt(clause, st.clone())
		}
	case *ast.TypeSwitchStmt:
		lc.stmt(s.Init, st)
		lc.stmt(s.Assign, st)
		for _, clause := range s.Body.List {
			lc.stmt(clause, st.clone())
		}
	case *ast.CaseClause:
		lc.exprs(s.List, st, false)
		for _, inner := range s.Body {
			lc.stmt(inner, st)
		}
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			lc.stmt(clause, st.clone())
		}
	case *ast.CommClause:
		lc.stmt(s.Comm, st)
		for _, inner := range s.Body {
			lc.stmt(inner, st)
		}
	case *ast.SendStmt:
		lc.expr(s.Chan, st, false)
		lc.expr(s.Value, st, false)
	case *ast.ReturnStmt:
		lc.exprs(s.Results, st, false)
	case *ast.LabeledStmt:
		lc.stmt(s.Stmt, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					lc.exprs(vs.Values, st, false)
					lc.trackFreshSpec(vs, st)
				}
			}
		}
	}
}

// trackFresh marks := targets whose initializer constructs a new value
// (composite literal, &composite, or new(T)) as unshared: accesses to
// their guarded fields before publication need no lock.
func (lc *lockChecker) trackFresh(s *ast.AssignStmt, st *lockState) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, lhs := range s.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		obj := lc.p.Info.Defs[id]
		if obj == nil {
			obj = lc.p.Info.Uses[id]
		}
		if obj == nil {
			continue
		}
		if isFreshExpr(s.Rhs[i]) {
			st.fresh[obj] = true
		} else {
			delete(st.fresh, obj)
		}
	}
}

func (lc *lockChecker) trackFreshSpec(vs *ast.ValueSpec, st *lockState) {
	if len(vs.Values) != len(vs.Names) {
		return
	}
	for i, name := range vs.Names {
		if obj := lc.p.Info.Defs[name]; obj != nil && isFreshExpr(vs.Values[i]) {
			st.fresh[obj] = true
		}
	}
}

// isFreshExpr reports an expression that constructs a brand-new value.
func isFreshExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, comp := e.X.(*ast.CompositeLit)
		return e.Op.String() == "&" && comp
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// deferredUnlockOnly reports a func literal whose entire body is
// mutex-release calls, the `defer func() { mu.Unlock() }()` idiom.
func deferredUnlockOnly(fl *ast.FuncLit) bool {
	for _, s := range fl.Body.List {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Unlock" && sel.Sel.Name != "RUnlock") {
			return false
		}
	}
	return len(fl.Body.List) > 0
}

func (lc *lockChecker) exprs(es []ast.Expr, st *lockState, write bool) {
	for _, e := range es {
		lc.expr(e, st, write)
	}
}

// lockOp applies the state effect of a mutex call. With st == nil it
// only classifies (used for defer).
func (lc *lockChecker) lockOp(call *ast.CallExpr, st *lockState) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	var effect int
	switch sel.Sel.Name {
	case "Lock":
		effect = lockWrite
	case "RLock":
		effect = lockRead
	case "Unlock", "RUnlock":
		effect = lockNone
	default:
		return false
	}
	tv, ok := lc.p.Info.Types[sel.X]
	if !ok {
		return false
	}
	if _, isMu := mutexType(tv.Type); !isMu {
		return false
	}
	if st != nil {
		key := types.ExprString(sel.X)
		if effect == lockNone {
			delete(st.held, key)
		} else {
			st.held[key] = effect
		}
	}
	return true
}

func (lc *lockChecker) expr(e ast.Expr, st *lockState, write bool) {
	switch e := e.(type) {
	case nil:
	case *ast.SelectorExpr:
		lc.checkAccess(e, st, write)
		lc.expr(e.X, st, false)
	case *ast.CallExpr:
		if lc.lockOp(e, st) {
			return
		}
		lc.expr(e.Fun, st, false)
		lc.exprs(e.Args, st, false)
	case *ast.FuncLit:
		// A closure may run while the current locks are held (called
		// inline) — inherit a snapshot. Goroutines are handled at the
		// go statement and start clean.
		lc.stmt(e.Body, st.clone())
	case *ast.UnaryExpr:
		lc.expr(e.X, st, e.Op.String() == "&" || write)
	case *ast.StarExpr:
		lc.expr(e.X, st, write)
	case *ast.ParenExpr:
		lc.expr(e.X, st, write)
	case *ast.BinaryExpr:
		lc.expr(e.X, st, false)
		lc.expr(e.Y, st, false)
	case *ast.IndexExpr:
		lc.expr(e.X, st, write)
		lc.expr(e.Index, st, false)
	case *ast.IndexListExpr:
		lc.expr(e.X, st, write)
		lc.exprs(e.Indices, st, false)
	case *ast.SliceExpr:
		lc.expr(e.X, st, false)
		lc.expr(e.Low, st, false)
		lc.expr(e.High, st, false)
		lc.expr(e.Max, st, false)
	case *ast.TypeAssertExpr:
		lc.expr(e.X, st, false)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				lc.expr(kv.Key, st, false)
				lc.expr(kv.Value, st, false)
				continue
			}
			lc.expr(elt, st, false)
		}
	}
}

// checkAccess reports a guarded-field access without its mutex held.
func (lc *lockChecker) checkAccess(sel *ast.SelectorExpr, st *lockState, write bool) {
	selInfo, ok := lc.p.Info.Selections[sel]
	if !ok || selInfo.Kind() != types.FieldVal {
		return
	}
	g, guarded := lc.guards[selInfo.Obj()]
	if !guarded {
		return
	}
	if base := firstIdent(sel.X); base != nil {
		if obj := lc.p.Info.Uses[base]; obj != nil && st.fresh[obj] {
			return // freshly constructed, not yet shared
		}
	}
	key := types.ExprString(sel.X) + "." + g.mu
	held := st.held[key]
	need := lockRead
	verb := "read"
	if write {
		need = lockWrite
		verb = "write"
	}
	if held >= need {
		return
	}
	field := types.ExprString(sel)
	switch {
	case held == lockRead && write:
		lc.p.Reportf(sel.Pos(), "write of %s (guarded by %s) with only %s.RLock held; writes need the write lock", field, g.mu, key)
	default:
		lc.p.Reportf(sel.Pos(), "%s of %s (guarded by %s) without %s held in this function; lock-check-act must be one critical section (the PR 9 SendTo race class)", verb, field, g.mu, key)
	}
}
