package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerCtxcheck enforces the context-first service API that PR 5
// threaded through the repo: exported blocking functions take a
// context.Context as their first parameter, and code paths that already
// have a context propagate it instead of minting context.Background().
var AnalyzerCtxcheck = &Analyzer{
	Name: "ctxcheck",
	Doc: "exported blocking functions must take context.Context first; " +
		"context.Background()/TODO() are banned outside package main and tests " +
		"(annotate detached background work with a reason)",
	Run: runCtxcheck,
}

// ctxExemptMethods are conventional shutdown entry points that stay
// context-free: they must not block on the caller's schedule.
var ctxExemptMethods = map[string]bool{
	"Close": true,
	"Stop":  true,
}

func runCtxcheck(p *Pass) error {
	isMain := p.Pkg.Name() == "main"
	bs := newBlockScan(p)
	for _, f := range p.Files {
		inTest := p.InTestFile(f.Pos())
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if !inTest && !isMain {
				p.checkCtxSignature(fd, bs)
			}
			if fd.Body == nil {
				continue
			}
			if isMain || inTest {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if pkgPath, name := p.pkgFuncCall(call); pkgPath == "context" && (name == "Background" || name == "TODO") {
					p.Reportf(call.Pos(), "context.%s outside main/tests: propagate the caller's ctx, or annotate genuinely detached background work with its lifetime", name)
				}
				return true
			})
		}
	}
	return nil
}

// checkCtxSignature flags an exported function whose context parameter
// is not first, and an exported blocking function with no context at
// all.
func (p *Pass) checkCtxSignature(fd *ast.FuncDecl, bs *blockScan) {
	if !fd.Name.IsExported() || fd.Type.Params == nil {
		return
	}
	if fd.Recv != nil && !exportedRecv(fd.Recv) {
		return
	}
	ctxAt := p.ctxParam(fd)
	if ctxAt > 0 {
		p.Reportf(fd.Pos(), "%s takes context.Context at position %d; the context parameter comes first", fd.Name.Name, ctxAt)
		return
	}
	if ctxAt < 0 && !ctxExemptMethods[fd.Name.Name] && fd.Body != nil && bs.blocks(fd) {
		p.Reportf(fd.Pos(), "exported %s blocks on a channel but takes no context.Context; blocking public APIs are context-first (see DESIGN.md \"Service framework\")", fd.Name.Name)
	}
}

// ctxParam returns the index of fd's first context.Context parameter, or
// -1 when it takes none.
func (p *Pass) ctxParam(fd *ast.FuncDecl) int {
	idx := 0
	for _, fld := range fd.Type.Params.List {
		if isCtxType(p.Info.Types[fld.Type].Type) {
			return idx
		}
		idx += max(len(fld.Names), 1)
	}
	return -1
}

// isCtxType reports the context.Context interface type.
func isCtxType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func exportedRecv(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// blockScan decides which functions of one package block the caller's
// goroutine: on a channel operation in their own body, or through a call
// to a context-free function of the same package that does (an exported
// Request over an unexported call loop).
type blockScan struct {
	p     *Pass
	decls map[*types.Func]*ast.FuncDecl
	memo  map[*ast.FuncDecl]bool
}

func newBlockScan(p *Pass) *blockScan {
	bs := &blockScan{p: p, decls: make(map[*types.Func]*ast.FuncDecl), memo: make(map[*ast.FuncDecl]bool)}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					bs.decls[fn] = fd
				}
			}
		}
	}
	return bs
}

// blocks reports whether fd blocks. A function on a call cycle counts
// as non-blocking until its own body says otherwise.
func (bs *blockScan) blocks(fd *ast.FuncDecl) bool {
	if b, seen := bs.memo[fd]; seen {
		return b
	}
	bs.memo[fd] = false
	b := bs.blocksIn(fd.Body)
	bs.memo[fd] = b
	return b
}

// callee returns the same-package, context-free function a call invokes
// statically, or nil.
func (bs *blockScan) callee(call *ast.CallExpr) *ast.FuncDecl {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := bs.p.Info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	fd := bs.decls[fn.Origin()]
	if fd == nil || bs.p.ctxParam(fd) >= 0 {
		return nil
	}
	return fd
}

// blocksIn reports whether a function body performs an unbounded
// blocking channel operation on the caller's goroutine — a receive or
// send outside any select with a default, or a select without default —
// or calls a same-package context-free function that does. Work inside
// nested function literals and go statements belongs to other goroutines
// and does not count.
func (bs *blockScan) blocksIn(body *ast.BlockStmt) bool {
	blocking := false
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if blocking {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			hasDefault := false
			for _, clause := range n.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				blocking = true
				return false
			}
			// Non-blocking poll: the comm clauses don't block, but
			// their bodies may.
			for _, clause := range n.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok {
					for _, s := range cc.Body {
						ast.Inspect(s, walk)
					}
				}
			}
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				blocking = true
				return false
			}
		case *ast.SendStmt:
			blocking = true
			return false
		case *ast.CallExpr:
			if fd := bs.callee(n); fd != nil && bs.blocks(fd) {
				blocking = true
				return false
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	return blocking
}
