package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// AnalyzerNowait guards the rule the receive path rests on: a frame is
// delivered, and its acknowledgement read, by the transport's receive
// goroutine, and timers fire on goroutines nothing else waits for, so
// code run there must not wait — least of all for the window, whose
// acknowledgement only the receive goroutine reads. It is a test-only
// analyzer: TestNothingWaitsOnReceivePath runs it over the module, and
// TestAnalyzerFixtures over its fixture.
var AnalyzerNowait = &Analyzer{
	Name: "nowait",
	Doc: "code reachable from a transport sink, a receive observer, an inline inbox, a timer callback, " +
		"an svc handler, a Quiesce func or a //wwlint:nowait function must not call Reliable.AwaitWindow, " +
		"Reliable.SendWait, another module package's context-first functions, core's and relay's waiting sends and receives, " +
		"or sync.Cond.Wait, or receive from a channel without a default",
	Run: runNowait,
}

// nowaitRoots are the calls whose function argument runs where nothing
// may wait: on a runtime timer, or on a transport's receive goroutine —
// an inline inbox's func, an svc handler table's handlers — or while
// every sender of a dapplet waits for it (Quiesce's func). Callees are matched
// by package name, so a fixture module can stand in for the real
// packages.
var nowaitRoots = []struct {
	pkg, recv, name string
	arg             int
}{
	{"time", "", "AfterFunc", 1},
	{"transport", "", "NewReliable", 2},
	{"core", "Dapplet", "OnRecv", 0},
	{"core", "Dapplet", "NewInlineInbox", 0},
	{"core", "Dapplet", "HandleInline", 1},
	{"core", "Dapplet", "Quiesce", 0},
	{"svc", "", "Serve", 2},
}

// exportedWaits are the calls into other packages that wait on the
// network with no context, matched by package name and receiver: for a
// window (the transport's window waits, SendEncoded, an outbox send, a
// rumour's origination, a tree flood) or an arrival (the blocking inbox
// receives). The scan does not enter other packages, so it knows their
// waits from this list and from their signatures: an exported function
// of another package of the module whose first parameter is a
// context.Context waits, since the context is how its caller bounds the
// wait (for a reply, an arrival, a lock held elsewhere).
var exportedWaits = []struct {
	pkg, recv string
	names     []string
	why       string // what the wait is for, when the name does not say
}{
	{"transport", "Reliable", []string{"AwaitWindow", "SendWait"}, " for acknowledgements only the receive goroutine reads"},
	{"core", "Dapplet", []string{"SendEncoded"}, ""},
	{"core", "Outbox", []string{"Send"}, ""},
	{"core", "Inbox", []string{"Receive", "ReceiveEnvelope"}, ""},
	{"relay", "Relay", []string{"Multicast"}, " for each neighbour's window"},
}

// nowaitDirective, in a function's doc comment, makes the function a
// root of its own: it runs where nothing may wait but is reached in a
// way the analyzer cannot follow (the receive loop's go statement).
const nowaitDirective = "//wwlint:nowait"

// handoffDirective, in a function's doc comment, says that the function
// values it is handed run later on a thread that may wait, not on its
// caller's goroutine (the failure detector's posted verdict work): the
// scan checks the function's own body but does not follow them.
const handoffDirective = "//wwlint:handoff"

// waitScan walks the code of one package reachable from the roots. It
// follows static calls within the package, function values passed to
// functions of the package, the elements of a composite literal passed
// so (a handler table), and function literals called or deferred; it
// stops at go statements, interface and function-value calls and at
// other packages, whose waits it knows by signature and by name
// (exportedWaits).
type waitScan struct {
	p      *Pass
	decls  map[*types.Func]*ast.FuncDecl
	locals map[*types.Var]ast.Expr // a local bound once to a function value
	seen   map[ast.Node]bool
}

func runNowait(p *Pass) error {
	w := &waitScan{p: p, decls: make(map[*types.Func]*ast.FuncDecl), locals: make(map[*types.Var]ast.Expr), seen: make(map[ast.Node]bool)}
	var files []*ast.File
	for _, f := range p.Files {
		if !p.InTestFile(f.Pos()) {
			files = append(files, f)
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if fn, ok := p.Info.Defs[n.Name].(*types.Func); ok && n.Body != nil {
					w.decls[fn] = n
				}
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						if v, ok := p.Info.Defs[identOf(lhs)].(*types.Var); ok {
							w.locals[v] = n.Rhs[i]
						}
					}
				}
			}
			return true
		})
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil && hasDirective(fd, nowaitDirective) {
				w.visit(fd, fd.Name.Name)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				fn := w.callee(call)
				for _, r := range nowaitRoots {
					if fn != nil && fn.Name() == r.name && fn.Pkg() != nil && fn.Pkg().Name() == r.pkg &&
						recvName(fn) == r.recv && r.arg < len(call.Args) {
						w.follow(call.Args[r.arg], r.pkg+"."+r.name+" callback")
					}
				}
			}
			return true
		})
	}
	return nil
}

// hasDirective reports whether fd's doc comment carries directive.
func hasDirective(fd *ast.FuncDecl, directive string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, directive) {
			return true
		}
	}
	return false
}

func identOf(e ast.Expr) *ast.Ident {
	id, _ := e.(*ast.Ident)
	return id
}

// recvName is the name of fn's receiver type, or "" for a function.
func recvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// callee is the function or method a call names statically, or nil.
func (w *waitScan) callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := w.p.Info.Uses[id].(*types.Func)
	return fn
}

// follow visits the code a function value stands for, when it is this
// package's: a literal, a function or method of the package, or a local
// bound to one of those; or, for a composite literal, each function
// value among its elements.
func (w *waitScan) follow(e ast.Expr, path string) {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		w.visit(e, path)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			w.follow(elt, path)
		}
	case *ast.Ident, *ast.SelectorExpr:
		var id *ast.Ident
		if sel, ok := e.(*ast.SelectorExpr); ok {
			id = sel.Sel
		} else {
			id = e.(*ast.Ident)
		}
		switch obj := w.p.Info.Uses[id].(type) {
		case *types.Func:
			if name, why, ok := w.waits(obj); ok {
				w.report(e.Pos(), name+" handed on as a function waits"+why, path)
			} else if fd := w.decls[obj.Origin()]; fd != nil {
				w.visit(fd, path+" → "+fd.Name.Name)
			}
		case *types.Var:
			if rhs, ok := w.locals[obj]; ok {
				w.follow(rhs, path)
			}
		}
	}
}

// visit checks one function's body, once, and what it calls.
func (w *waitScan) visit(fn ast.Node, path string) {
	if w.seen[fn] {
		return
	}
	w.seen[fn] = true
	var body *ast.BlockStmt
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		body = fn.Body
	case *ast.FuncLit:
		body = fn.Body
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt, *ast.FuncLit:
			return false // another goroutine's, or run only where it is called
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				hasDefault = hasDefault || c.(*ast.CommClause).Comm == nil
			}
			if !hasDefault {
				w.report(n.Pos(), "a select without a default waits", path)
			}
			for _, c := range n.Body.List {
				for _, s := range c.(*ast.CommClause).Body {
					ast.Inspect(s, walk)
				}
			}
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.report(n.Pos(), "a channel receive waits", path)
			}
		case *ast.RangeStmt:
			if _, ok := underlying(w.p.Info.Types[n.X].Type).(*types.Chan); ok {
				w.report(n.Pos(), "a range over a channel waits", path)
			}
		case *ast.CallExpr:
			w.call(n, path)
		}
		return true
	}
	ast.Inspect(body, walk)
}

// call checks one call: a wait primitive is reported, a call into this
// package is visited, with the function values it is handed.
func (w *waitScan) call(call *ast.CallExpr, path string) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		w.visit(lit, path)
		return
	}
	fn := w.callee(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if fn.Name() == "Wait" && recvName(fn) == "Cond" && fn.Pkg().Path() == "sync" {
		w.report(call.Pos(), "sync.Cond.Wait waits", path)
		return
	}
	if name, why, ok := w.waits(fn); ok {
		w.report(call.Pos(), name+" waits"+why, path)
		return
	}
	fd := w.decls[fn.Origin()]
	if fd == nil {
		return
	}
	w.visit(fd, path+" → "+fd.Name.Name)
	if hasDirective(fd, handoffDirective) {
		return
	}
	for _, arg := range call.Args {
		if _, ok := underlying(w.p.Info.Types[arg].Type).(*types.Signature); ok {
			w.follow(arg, path+" → "+fd.Name.Name+" argument")
		}
	}
}

// waits reports whether fn, called from the scanned package, waits: it
// is another module package's exported context-first function, or one
// of exportedWaits. It names fn Recv.Name (pkg.Name for a function) and
// says what it waits for.
func (w *waitScan) waits(fn *types.Func) (name, why string, ok bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", "", false
	}
	recv := recvName(fn)
	if recv == "" {
		name = pkg.Name() + "." + fn.Name()
	} else {
		name = recv + "." + fn.Name()
	}
	for _, e := range exportedWaits {
		if e.pkg == pkg.Name() && e.recv == recv && slices.Contains(e.names, fn.Name()) {
			return name, e.why, true
		}
	}
	mod := w.p.Module
	if pkg != w.p.Pkg && fn.Exported() && (pkg.Path() == mod || strings.HasPrefix(pkg.Path(), mod+"/")) && contextFirst(fn) {
		return name, " until its context ends", true
	}
	return "", "", false
}

// contextFirst reports whether fn's first parameter is a context.Context.
func contextFirst(fn *types.Func) bool {
	params := fn.Type().(*types.Signature).Params()
	if params.Len() == 0 {
		return false
	}
	named, ok := types.Unalias(params.At(0).Type()).(*types.Named)
	return ok && named.Obj().Name() == "Context" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "context"
}

// underlying is t's underlying type; nil for nil.
func underlying(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func (w *waitScan) report(pos token.Pos, what, path string) {
	w.p.Reportf(pos, "%s, reached from %s, where nothing may wait (see DESIGN.md \"Flow control, and who waits\")", what, path)
}
