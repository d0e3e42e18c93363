package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Ctxflow keeps request contexts flowing: hedging, per-attempt timeouts
// and traceback cancellation all die silently when a layer mints a fresh
// context.Background() instead of threading the caller's. In library
// packages (everything except package main) every context.Background()
// or context.TODO() call is reported unless:
//
//   - the enclosing function is annotated //sw:ctxroot — a documented
//     process-lifetime root (scheduler construction) or
//     a context-free convenience wrapper whose doc says so, or
//   - the call sits inside an `if ctx == nil { ... }` default for a
//     context parameter the function already accepts.
var Ctxflow = &Analyzer{
	Name: "ctxflow",
	Doc:  "forbid context.Background/TODO in request-scoped library paths",
	Run:  runCtxflow,
}

func runCtxflow(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if HasDirective(FuncDirectives(fn), "ctxroot") {
				continue
			}
			checkCtxFunc(pass, fn)
		}
	}
	return nil
}

func checkCtxFunc(pass *Pass, fn *ast.FuncDecl) {
	defaults := nilDefaultRanges(pass.Info, fn)
	exempt := func(pos token.Pos) bool {
		for _, r := range defaults {
			if r.Pos() <= pos && pos < r.End() {
				return true
			}
		}
		return false
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, name := range [...]string{"Background", "TODO"} {
			if IsPkgFunc(pass.Info, call, "context", name) && !exempt(call.Pos()) {
				pass.Reportf(call.Pos(), "context.%s() in library path; thread the caller's context (or annotate //sw:ctxroot)", name)
			}
		}
		return true
	})
}

// nilDefaultRanges finds `if ctx == nil { ... }` bodies where ctx is a
// context.Context-typed variable: the idiomatic optional-context default,
// where minting Background is the point.
func nilDefaultRanges(info *types.Info, fn *ast.FuncDecl) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		cond, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || cond.Op != token.EQL {
			return true
		}
		x, y := cond.X, cond.Y
		if !isNilExpr(info, y) {
			x, y = y, x
		}
		if isNilExpr(info, y) && isContextExpr(info, x) {
			out = append(out, ifs.Body)
		}
		return true
	})
	return out
}

func isContextExpr(info *types.Info, expr ast.Expr) bool {
	return IsNamedType(info.TypeOf(expr), "context", "Context")
}
