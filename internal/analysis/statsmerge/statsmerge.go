// Package statsmerge makes "a new counter silently dropped in shard
// aggregation" a lint failure instead of a parity-debugging session.
//
// The hazard class is real: PR 5 shipped two fixes of exactly this
// shape (per-shard slowdown fields dropped by ShardedResult.Aggregate,
// solver counters lost across a per-worker merge the serial solver no
// longer has). The analyzer checks that designated fold functions touch
// every field of the struct they fold. A function is checked when it
// matches one of:
//
//   - auto-aggregate: a function named Aggregate in a sim-critical
//     package returning exactly one struct value — the cross-shard
//     summary shape (Result.Aggregate, ShardedResult.Aggregate);
//   - annotated: any function whose doc comment carries
//     `//pfsim:mergeall T` (or `pkg.T` for an imported type).
//
// "Touch" means a field selection on a value of the target type or a
// keyed entry in a composite literal of it. Fields that are genuinely
// not foldable carry //pfsim:nomerge on their declaration (honoured
// when the struct is declared in the analyzed package).
package statsmerge

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"pfsim/internal/analysis/framework"
)

// Analyzer enforces exhaustive field coverage in merge/aggregate
// functions.
var Analyzer = &framework.Analyzer{
	Name: "statsmerge",
	Doc:  "requires Aggregate functions (and any function annotated //pfsim:mergeall T) to touch every field of the folded struct, so new counters cannot be silently dropped in shard aggregation (exempt fields with //pfsim:nomerge)",
	Run:  run,
}

// target is one function obligated to cover every field of typ.
type target struct {
	fn   *ast.FuncDecl
	typ  *types.Named
	rule string // rule noun for the diagnostic message
}

func run(pass *framework.Pass) (any, error) {
	critical := framework.SimCritical(pass.Pkg.Path())
	var targets []target
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if critical {
				if typ := aggregateTarget(pass, fn); typ != nil {
					targets = append(targets, target{fn, typ, "aggregate function"})
				}
			}
			for _, arg := range framework.DocDirectives(fn.Doc, "mergeall") {
				typ, err := resolveType(pass, arg)
				if err != nil {
					pass.Reportf(fn.Name.Pos(), "//pfsim:mergeall %s: %v", arg, err)
					continue
				}
				targets = append(targets, target{fn, typ, "annotated fold"})
			}
		}
	}
	for _, tg := range targets {
		checkTarget(pass, tg)
	}
	return nil, nil
}

// aggregateTarget reports the struct an Aggregate-shaped function
// produces: exactly one result, a named struct.
func aggregateTarget(pass *framework.Pass, fn *ast.FuncDecl) *types.Named {
	if fn.Name.Name != "Aggregate" {
		return nil
	}
	sig := signature(pass, fn)
	if sig == nil || sig.Results().Len() != 1 {
		return nil
	}
	return namedStruct(sig.Results().At(0).Type())
}

func signature(pass *framework.Pass, fn *ast.FuncDecl) *types.Signature {
	obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
	if !ok {
		return nil
	}
	return obj.Type().(*types.Signature)
}

// namedStruct unwraps pointers and reports the named struct type, or
// nil if t is anything else.
func namedStruct(t types.Type) *types.Named {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// resolveType resolves a //pfsim:mergeall argument: "T" in the package
// scope, or "pkg.T" through the package's imports (matched by package
// name).
func resolveType(pass *framework.Pass, arg string) (*types.Named, error) {
	var obj types.Object
	if pkgName, typeName, ok := strings.Cut(arg, "."); ok {
		for _, imp := range pass.Pkg.Imports() {
			if imp.Name() == pkgName {
				obj = imp.Scope().Lookup(typeName)
				break
			}
		}
	} else {
		obj = pass.Pkg.Scope().Lookup(arg)
	}
	if obj == nil {
		return nil, fmt.Errorf("type not found")
	}
	named := namedStruct(obj.Type())
	if named == nil {
		return nil, fmt.Errorf("%s is not a struct type", arg)
	}
	return named, nil
}

// checkTarget verifies the function touches every required field of
// the target struct.
func checkTarget(pass *framework.Pass, tg target) {
	st := tg.typ.Underlying().(*types.Struct)
	exempt := exemptFields(pass, tg.typ)
	foreign := tg.typ.Obj().Pkg() != pass.Pkg
	touched := touchedFields(pass, tg.fn, tg.typ)
	var missing []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		// Unexported fields of an imported struct cannot be folded from
		// here; their coverage is the defining package's obligation.
		if f.Name() == "_" || exempt[f.Name()] || touched[f] || (foreign && !f.Exported()) {
			continue
		}
		missing = append(missing, f.Name())
	}
	if len(missing) == 0 {
		return
	}
	pass.Reportf(tg.fn.Name.Pos(),
		"%s %q does not touch field(s) %s of %s; a field missing from the fold is silently dropped — merge it, or annotate the field //pfsim:nomerge",
		tg.rule, tg.fn.Name.Name, strings.Join(missing, ", "), typeLabel(tg.typ))
}

func typeLabel(typ *types.Named) string {
	if p := typ.Obj().Pkg(); p != nil {
		return p.Name() + "." + typ.Obj().Name()
	}
	return typ.Obj().Name()
}

// exemptFields collects //pfsim:nomerge annotations from the struct's
// declaration when it lives in the analyzed package. For imported
// targets the declaration is not in this pass, so no exemptions apply.
func exemptFields(pass *framework.Pass, typ *types.Named) map[string]bool {
	exempt := map[string]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if pass.TypesInfo.Defs[ts.Name] != typ.Obj() {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return false
			}
			for _, field := range st.Fields.List {
				if len(framework.DocDirectives(field.Doc, "nomerge")) == 0 &&
					len(framework.DocDirectives(field.Comment, "nomerge")) == 0 {
					continue
				}
				for _, name := range field.Names {
					exempt[name.Name] = true
				}
			}
			return false
		})
	}
	return exempt
}

// touchedFields collects the fields of typ the function body mentions,
// via field selection or keyed composite literal entries.
func touchedFields(pass *framework.Pass, fn *ast.FuncDecl, typ *types.Named) map[*types.Var]bool {
	st := typ.Underlying().(*types.Struct)
	owns := map[types.Object]*types.Var{}
	for i := 0; i < st.NumFields(); i++ {
		owns[st.Field(i)] = st.Field(i)
	}
	touched := map[*types.Var]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if sel := pass.TypesInfo.Selections[n]; sel != nil && sel.Kind() == types.FieldVal {
				if f, ok := owns[sel.Obj()]; ok {
					touched[f] = true
				}
			}
		case *ast.CompositeLit:
			tv, ok := pass.TypesInfo.Types[n]
			if !ok || namedStruct(tv.Type) == nil || !types.Identical(namedStruct(tv.Type), typ) {
				return true
			}
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok {
					if f, ok := owns[pass.TypesInfo.Uses[key]]; ok {
						touched[f] = true
					}
				}
			}
		}
		return true
	})
	return touched
}
