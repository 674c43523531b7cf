package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ctxflowRootBan lists the package suffixes where minting a fresh root
// context (context.Background / context.TODO) is banned outright, not just
// inside ctx-bearing functions: these packages sit on the request and run
// paths — the serving layer, the scheduler, the cycle loop, the cell
// harness and the instruction-stream sources — where a detached root
// context severs the cancellation chain the serve layer's never-torn /
// never-cached abort guarantees depend on. Entry points (cmd/, examples/)
// legitimately mint roots and are not listed.
var ctxflowRootBan = []string{
	"internal/serve",
	"internal/runner",
	"internal/core",
	"internal/experiment",
	"internal/trace",
}

// Ctxflow enforces the context-threading contract: a function that
// receives a context.Context must thread it — no fresh roots, no dropping
// it when the callee has a ctx-aware variant, and no blocking select that
// cannot be interrupted by ctx.Done(). Deliberate lifetime decoupling (a
// coalesced flight outliving its first subscriber, a ctx-less
// compatibility wrapper) carries a //lint:allow proof.
var Ctxflow = &Analyzer{
	Name: "ctxflow",
	Doc:  "enforces context threading: no fresh roots in run paths, ctx-aware callee variants taken, blocking selects watch ctx.Done()",
	Run:  runCtxflow,
}

func runCtxflow(pass *Pass) {
	strict := false
	for _, suffix := range ctxflowRootBan {
		if strings.HasSuffix(pass.ImportPath, suffix) {
			strict = true
			break
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			hasCtx := false
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				hasCtx = sigHasContext(obj.Type().(*types.Signature))
			}
			ctxflowBody(pass, fd.Body, hasCtx, strict)
		}
	}
}

// ctxflowBody checks one function body. hasCtx reports whether a
// context.Context is in scope — a parameter of this function or of an
// enclosing one (closures capture their parent's ctx).
func ctxflowBody(pass *Pass, body *ast.BlockStmt, hasCtx, strict bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			lit := hasCtx
			if tv, ok := pass.TypesInfo.Types[v]; ok {
				if sig, ok := tv.Type.(*types.Signature); ok && sigHasContext(sig) {
					lit = true
				}
			}
			ctxflowBody(pass, v.Body, lit, strict)
			return false
		case *ast.CallExpr:
			ctxflowCall(pass, v, hasCtx, strict)
		case *ast.SelectStmt:
			if hasCtx {
				ctxflowSelect(pass, v)
			}
		}
		return true
	})
}

func ctxflowCall(pass *Pass, call *ast.CallExpr, hasCtx, strict bool) {
	fn := calleeFunc(pass, call.Fun)
	if fn == nil {
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "context" && (fn.Name() == "Background" || fn.Name() == "TODO") {
		switch {
		case hasCtx:
			pass.Reportf(call.Pos(), "context.%s inside a function that already receives a Context severs the cancellation chain; derive from the caller's ctx (or //lint:allow with the lifetime proof)", fn.Name())
		case strict:
			pass.Reportf(call.Pos(), "context.%s mints a fresh root in a run/request-path package; accept a ctx from the caller and thread it (or //lint:allow with the lifetime proof)", fn.Name())
		}
		return
	}
	if !hasCtx {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sigHasContext(sig) {
		return
	}
	variant := ctxVariant(fn)
	if variant == nil {
		return
	}
	pass.Reportf(call.Pos(), "call to %s drops the in-scope ctx; %s accepts one (or //lint:allow with why cancellation must not propagate here)", fn.Name(), variant.Name())
}

// ctxVariant returns fn's ctx-aware sibling — the function or method named
// <Name>Ctx with a context.Context parameter — or nil.
func ctxVariant(fn *types.Func) *types.Func {
	name := fn.Name() + "Ctx"
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var cand *types.Func
	if recv := sig.Recv(); recv != nil {
		cand = methodByName(recv.Type(), name)
	} else if fn.Pkg() != nil {
		if obj, ok := fn.Pkg().Scope().Lookup(name).(*types.Func); ok {
			cand = obj
		}
	}
	if cand == nil {
		return nil
	}
	if csig, ok := cand.Type().(*types.Signature); ok && sigHasContext(csig) {
		return cand
	}
	return nil
}

// ctxflowSelect flags a select that can block indefinitely — at least one
// channel case, no default — without any case watching a ctx.Done().
func ctxflowSelect(pass *Pass, sel *ast.SelectStmt) {
	hasComm, hasDefault, hasDone := false, false, false
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			hasDefault = true
			continue
		}
		hasComm = true
		if commWatchesDone(pass, cc.Comm) {
			hasDone = true
		}
	}
	if hasComm && !hasDefault && !hasDone {
		pass.Reportf(sel.Pos(), "blocking select in a ctx-bearing function has no case on ctx.Done(); an abandoned caller would strand this goroutine (or //lint:allow with the wakeup proof)")
	}
}

// commWatchesDone reports whether a select comm clause receives from the
// Done channel of a context-typed value.
func commWatchesDone(pass *Pass, comm ast.Stmt) bool {
	var recv ast.Expr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		recv = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			recv = s.Rhs[0]
		}
	}
	un, ok := recv.(*ast.UnaryExpr)
	if !ok || un.Op.String() != "<-" {
		return false
	}
	call, ok := un.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	return ok && isContextType(tv.Type)
}

// --- shared type helpers (used by ctxflow, goroleak, lockdisc) ----------

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// sigHasContext reports whether any parameter is a context.Context.
func sigHasContext(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// calleeFunc resolves a call expression's target to its types.Func, or nil
// for builtins, conversions and func-typed variables.
func calleeFunc(pass *Pass, fun ast.Expr) *types.Func {
	var id *ast.Ident
	switch v := fun.(type) {
	case *ast.Ident:
		id = v
	case *ast.SelectorExpr:
		id = v.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// methodByName finds a method on t (pointer receivers and named interfaces
// included), or nil.
func methodByName(t types.Type, name string) *types.Func {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == name {
			return m
		}
	}
	if iface, ok := named.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			if m := iface.Method(i); m.Name() == name {
				return m
			}
		}
	}
	return nil
}
