// Package clonesafe defines an analyzer that machine-checks the clone
// contract: a Clone method must account for every mutable field of its
// receiver type.
//
// The server clones one pristine model per search and per engine
// evaluator and relies on the clones being independent except for
// deliberately shared immutable state (DESIGN.md §5.7). That contract
// silently breaks when a struct grows a field its Clone forgets, or
// shallow-copies a buffer two goroutines then scribble over. For every
// type with a Clone method the analyzer classifies each field: immutable
// values (numbers, strings, bools, pure-value structs) need nothing;
// mutable fields (slices, maps, pointers, chans, interfaces, or structs
// containing them) must either be rebuilt in the method body (fresh
// make/append/Clone call — any non-aliasing mention counts), or be
// annotated `//lint:shared <reason>` on the field declaration stating
// why sharing is safe. A field that is merely aliased (`f: src.f`, or
// swept in by a whole-struct copy) or never mentioned at all is
// reported.
package clonesafe

import (
	"go/ast"
	"go/token"
	"go/types"

	"mheta/internal/analysis/lintkit"
)

// Analyzer verifies Clone methods deep-copy or explicitly share every
// mutable field.
var Analyzer = &lintkit.Analyzer{
	Name: "clonesafe",
	Doc: "verify Clone methods account for every mutable field\n\n" +
		"Each slice/map/pointer/chan/interface field (or struct containing one) must be\n" +
		"deep-copied in the method body or carry a //lint:shared <reason> marker on its\n" +
		"declaration documenting immutable sharing; forgetting a newly added field is an error.",
	Run: run,
}

func run(pass *lintkit.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			if fd.Name.Name != "Clone" {
				continue
			}
			checkMethod(pass, fd)
		}
	}
	return nil, nil
}

func checkMethod(pass *lintkit.Pass, fd *ast.FuncDecl) {
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return
	}
	var recvObj types.Object
	if names := fd.Recv.List[0].Names; len(names) > 0 && names[0].Name != "_" {
		recvObj = pass.TypesInfo.Defs[names[0]]
	}
	switch u := named.Underlying().(type) {
	case *types.Struct:
		checkStructClone(pass, fd, named, u, recvObj)
	case *types.Slice, *types.Map:
		checkRefClone(pass, fd, named, recvObj)
	}
}

// checkRefClone handles Clone on slice- or map-kinded named types: the
// method must not hand back the receiver (or a reslice of it), which
// would share the backing storage.
func checkRefClone(pass *lintkit.Pass, fd *ast.FuncDecl, named *types.Named, recvObj types.Object) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			res = ast.Unparen(res)
			aliases := false
			if id, ok := res.(*ast.Ident); ok && recvObj != nil && pass.ObjectOf(id) == recvObj {
				aliases = true
			}
			if sl, ok := res.(*ast.SliceExpr); ok && recvObj != nil && pass.RootObject(sl.X) == recvObj {
				aliases = true
			}
			if aliases {
				pass.Reportf(ret.Pos(), "%s.%s returns the receiver, sharing its backing storage with the clone — copy with append or make+copy", named.Obj().Name(), fd.Name.Name)
			}
		}
		return true
	})
}

// checkStructClone verifies every mutable field of the receiver struct
// is rebuilt, or marked shared, by the method body.
func checkStructClone(pass *lintkit.Pass, fd *ast.FuncDecl, named *types.Named, st *types.Struct, recvObj types.Object) {
	markers := fieldMarkers(pass, named)
	wholeCopy := copiesWholeStruct(pass, fd.Body, recvObj)
	for i := 0; i < st.NumFields(); i++ {
		field := st.Field(i)
		if !mutableType(field.Type(), 0) {
			continue
		}
		if markers[field.Name()] {
			continue
		}
		aliased, handled := classifyMentions(pass, fd.Body, recvObj, field)
		tname := named.Obj().Name()
		switch {
		case handled:
			// Rebuilt (or at least transformed) in the body; trust it.
		case aliased:
			pass.Reportf(fd.Name.Pos(), "%s.%s shares mutable field %s with the original — deep-copy it or mark the field //lint:shared <reason>", tname, fd.Name.Name, field.Name())
		case wholeCopy:
			pass.Reportf(fd.Name.Pos(), "%s.%s copies the whole struct, aliasing mutable field %s — deep-copy it after the copy or mark the field //lint:shared <reason>", tname, fd.Name.Name, field.Name())
		default:
			pass.Reportf(fd.Name.Pos(), "%s.%s never mentions mutable field %s, so the clone's copy is zero — copy it or mark the field //lint:shared <reason>", tname, fd.Name.Name, field.Name())
		}
	}
}

// fieldMarkers returns the set of field names carrying a //lint:shared
// marker on (or immediately above) their declaration line.
func fieldMarkers(pass *lintkit.Pass, named *types.Named) map[string]bool {
	markers := make(map[string]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if pass.TypesInfo.Defs[ts.Name] != named.Obj() {
				return true
			}
			stAST, ok := ts.Type.(*ast.StructType)
			if !ok {
				return false
			}
			for _, field := range stAST.Fields.List {
				if !pass.DirectiveAt(field.Pos(), "shared") {
					continue
				}
				if len(field.Names) == 0 {
					// Embedded field: its name is the type's base name.
					if obj := pass.RootObject(field.Type); obj != nil {
						markers[obj.Name()] = true
					}
					continue
				}
				for _, name := range field.Names {
					markers[name.Name] = true
				}
			}
			return false
		})
	}
	return markers
}

// copiesWholeStruct reports whether the body copies the receiver's
// entire struct value (`c := *recv`, `c = *recv`, or for value
// receivers `c := recv` / `return recv`), which aliases every mutable
// field at once.
func copiesWholeStruct(pass *lintkit.Pass, body *ast.BlockStmt, recvObj types.Object) bool {
	if recvObj == nil {
		return false
	}
	isRecv := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if st, ok := e.(*ast.StarExpr); ok {
			e = ast.Unparen(st.X)
		}
		id, ok := e.(*ast.Ident)
		return ok && pass.ObjectOf(id) == recvObj
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				if isRecv(rhs) {
					found = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if isRecv(res) {
					found = true
				}
			}
		case *ast.ValueSpec:
			for _, v := range n.Values {
				if isRecv(v) {
					found = true
				}
			}
		case *ast.UnaryExpr:
			// &T{...} is not a copy; &*recv would be, but the parser
			// simplifies that away. Nothing to do.
		}
		return !found
	})
	return found
}

// classifyMentions scans the body for constructive references to field —
// places that set the clone's copy of it. It reports aliased (a shallow
// share exists: `f: recv.f` or `dst.f = recv.f`) and handled (a rebuild
// exists: a composite-literal entry or assignment with any non-aliasing
// right-hand side, or a copy() into the field). Plain reads of the
// source field (`recv.f.Len()` etc.) count as neither, so they cannot
// mask a forgotten deep copy.
func classifyMentions(pass *lintkit.Pass, body *ast.BlockStmt, recvObj types.Object, field *types.Var) (aliased, handled bool) {
	// isField reports whether e is a selector resolving to the field;
	// onRecv additionally requires the receiver as the base, which is
	// the aliasing direction.
	isField := func(e ast.Expr) (sel *ast.SelectorExpr, onRecv bool) {
		s, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil, false
		}
		selection, ok := pass.TypesInfo.Selections[s]
		if !ok || selection.Obj() != field {
			return nil, false
		}
		return s, recvObj != nil && pass.RootObject(s.X) == recvObj
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.KeyValueExpr:
			key, ok := n.Key.(*ast.Ident)
			if !ok || pass.TypesInfo.Uses[key] != field {
				return true
			}
			if _, onRecv := isField(n.Value); onRecv {
				aliased = true
			} else {
				handled = true
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if sel, _ := isField(lhs); sel == nil {
					continue
				}
				if i < len(n.Rhs) {
					if _, onRecv := isField(n.Rhs[i]); onRecv && n.Tok == token.ASSIGN {
						aliased = true
						continue
					}
				}
				handled = true
			}
		case *ast.CallExpr:
			// copy(dst.f, src) rebuilds the field's contents in place.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) > 0 {
				if b, ok := pass.ObjectOf(id).(*types.Builtin); ok && b.Name() == "copy" {
					if sel, onRecv := isField(n.Args[0]); sel != nil && !onRecv {
						handled = true
					}
				}
			}
		}
		return true
	})
	return aliased, handled
}

// mutableType reports whether a value of type t reaches shared mutable
// state when shallow-copied: slices, maps, pointers, chans, interfaces,
// and aggregates containing them. Strings and function values are
// treated as immutable.
func mutableType(t types.Type, depth int) bool {
	if depth > 16 {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer, *types.Chan, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if mutableType(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Array:
		return mutableType(u.Elem(), depth+1)
	}
	return false
}
