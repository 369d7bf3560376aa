package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// longLivedPackages are the packages whose goroutines outlive a single
// call: service hosts, detector loops, directory reconcile loops,
// relays, and the transport. A looping goroutine launched there must be able to
// observe shutdown.
var longLivedPackages = map[string]bool{
	"svc":       true,
	"failure":   true,
	"relay":     true,
	"transport": true,
	"directory": true,
}

// AnalyzerGoleak is the goroutine-leak gate: inside a long-lived
// service package, a goroutine whose body loops must select on a
// done/ctx/close channel (or otherwise receive from a channel, or poll
// ctx.Err) inside the loop, so Close/Stop can actually terminate it.
var AnalyzerGoleak = &Analyzer{
	Name: "goleak",
	Doc: "a looping goroutine launched in a long-lived service package (svc, " +
		"failure, relay, transport, directory) must observe shutdown " +
		"inside the loop: a select/receive on a done/ctx/close channel or a " +
		"ctx.Err poll; otherwise Close leaks it",
	Run: runGoleak,
}

func runGoleak(p *Pass) error {
	if !longLivedPackages[p.Pkg.Name()] || p.XTest {
		return nil
	}
	// Named functions launched via `go f()` / `go r.loop()` in this
	// package: resolve to their bodies so loops inside them are held to
	// the same rule as literals.
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := p.Info.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	checked := make(map[*ast.FuncDecl]bool)
	for _, f := range p.Files {
		if p.InTestFile(f.Pos()) {
			continue // test goroutines are fenced by the tests themselves
		}
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			switch fun := g.Call.Fun.(type) {
			case *ast.FuncLit:
				p.checkGoroutineBody(fun.Body)
			default:
				var callee *ast.Ident
				switch fn := fun.(type) {
				case *ast.Ident:
					callee = fn
				case *ast.SelectorExpr:
					callee = fn.Sel
				}
				if callee == nil {
					return true
				}
				obj := p.Info.Uses[callee]
				if fd := decls[obj]; fd != nil && !checked[fd] {
					checked[fd] = true
					p.checkGoroutineBody(fd.Body)
				}
			}
			return true
		})
	}
	return nil
}

// checkGoroutineBody flags every unbounded loop in a goroutine body
// that has no shutdown escape inside it. A loop with a condition (or a
// range) terminates when its condition settles and hands control back
// to the enclosing loop's escape, so only condition-free `for {` loops
// are held to the rule.
func (p *Pass) checkGoroutineBody(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false // nested goroutines are their own launch sites
		case *ast.ForStmt:
			if n.Cond == nil && !p.loopObservesShutdown(n.Body) {
				p.Reportf(n.Pos(), "goroutine loop has no shutdown escape: no select, channel receive, or ctx.Err check inside the loop, so Close/Stop cannot terminate it")
			}
		}
		return true
	})
}

// loopObservesShutdown reports whether a loop body can notice shutdown:
// it selects, receives from a channel, ranges over a channel (which
// escapes on close), or polls ctx.Err(). Subtrees under a nested go
// statement belong to another goroutine and do not count.
func (p *Pass) loopObservesShutdown(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			found = true
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
				return false
			}
		case *ast.RangeStmt:
			if tv, ok := p.Info.Types[n.X]; ok {
				if _, isCh := tv.Type.Underlying().(*types.Chan); isCh {
					found = true
					return false
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Err" || sel.Sel.Name == "Done" || sel.Sel.Name == "Wait") {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
