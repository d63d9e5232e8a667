package divscrape_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Every exported function, method and type under internal/ must have a
// caller outside tests: a name that only its own tests reach is code the
// program carries and never runs. Non-test files anywhere in the module
// count as callers, and so do those under bench/, which is a module of its
// own that compiles against these packages. What stays without a caller on
// purpose is listed in unusedExportsAllowed with the reason; an entry that
// names nothing any more, or that has gained a caller, fails too, so the
// list only shrinks.
//
// The scan reads syntax only (go/parser, go/ast). A function or type is
// referenced by its qualified name from another package or its bare name
// in its own; a method by any selector of its name, so two methods that
// share a name keep each other. References from inside the declaration
// itself do not count, nor, for a type, those from its own methods.
//
// That is the scan's blind spot: a method whose only callers are tests
// passes whenever any non-test code calls another method of the same
// name. Common names (Walk, Len, SnapshotInto, RestoreFrom, EvictBefore)
// hide test-only methods this way — iprep.DB's were found by reading,
// not by this test — so check such a method's callers by hand.

// unusedExportsAllowed names the exports kept without a non-test caller,
// keyed "<dir under internal>.<Name>" or "<dir>.<Type>.<Method>".
var unusedExportsAllowed = map[string]string{
	// Test support: packages and calls that exist for tests to drive.
	"clockwork.NewClock":                  "simulated clock that tests inject in place of the wall clock",
	"clockwork.Clock.Advance":             "moves the injected test clock",
	"clockwork.Clock.AdvanceTo":           "moves the injected test clock",
	"faultinject.Enable":                  "arms a fault point from a chaos test",
	"faultinject.Disable":                 "disarms a fault point from a chaos test",
	"faultinject.Reset":                   "disarms every fault point between chaos tests",
	"faultinject.SetSleep":                "replaces the fault plane's sleep so delay faults need no wall clock",
	"faultinject.Point.Enabled":           "lets a chaos test see whether its fault point is armed",
	"statecodec/codectest.FuzzRestore":    "shared restore fuzz harness of the snapshot tests",
	"statecodec/codectest.RejectRewrites": "shared corrupt-input check of the snapshot tests",
	"statecodec/codectest.NamedAt":        "fixture builder of the snapshot tests",
	"statecodec/codectest.BadIDLists":     "fixture builder of the snapshot tests",
	"statecodec/codectest.StringCounts":   "fixture builder of the snapshot tests",
	"cluster.MemNetwork.Partition":        "in-process network fault a cluster test injects",
	"cluster.MemNetwork.Heal":             "in-process network fault a cluster test lifts",
	"cluster.MemNetwork.Isolate":          "in-process network fault a cluster test injects",
	"cluster.MemNetwork.HealAll":          "in-process network fault a cluster test lifts",
	"cluster.MemNetwork.InFlight":         "lets a cluster test wait for delayed frames to drain",
	"detector.ReasonsOf":                  "builds expected reason lists in adjudication and pipeline tests",

	// Oracles: the readable implementations fast paths are held to.
	"evaluate.NewROC": "exact ROC, the oracle of TestGridROCAgreesWithExact",

	// Inspection accessors that model and state tests assert through.
	"sessions.Store.Peek":              "reads a record without touching it, for the store's model tests",
	"sessions.Store.Evictions":         "eviction count the store's model and eviction tests assert",
	"shard.Shard.RestorePoint":         "reads a side's packed restore point in the failure tests",
	"mitigate.Engine.EscalationFrozen": "fail-closed freeze state the cluster and digest tests assert",
	"trace.Tracer.MergeStalls":         "merge-stall count the tracing tests and the root benchmark read",
	"report.Table.Rows":                "row count the experiment tests and the root benchmarks assert",

	// Called by the standard library, or kept for planned work.
	"workload.actorHeap.Less":     "container/heap calls it through sort.Interface",
	"pipeline.Pipeline.RunReader": "from-bytes entry a log-bytes benchmark builds on",
	"cluster.Node.SetPeers":       "live membership change, the cluster plane's re-partition call",
}

func TestInternalExportsHaveCallers(t *testing.T) {
	exports, err := scanInternalExports(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(exports) == 0 {
		t.Fatal("scan found no exported names under internal/")
	}
	keys := make([]string, 0, len(exports))
	for k := range exports {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := exports[k]
		if !e.used && unusedExportsAllowed[k] == "" {
			t.Errorf("%s (%s): exported, but no non-test file refers to it; delete it or list it in unusedExportsAllowed with the reason", k, e.pos)
		}
	}
	allowed := make([]string, 0, len(unusedExportsAllowed))
	for k := range unusedExportsAllowed {
		allowed = append(allowed, k)
	}
	sort.Strings(allowed)
	for _, k := range allowed {
		e, ok := exports[k]
		switch {
		case !ok:
			t.Errorf("unusedExportsAllowed[%q] names no exported function, method or type under internal/; drop the entry", k)
		case e.used:
			t.Errorf("unusedExportsAllowed[%q]: %s now has a non-test caller; drop the entry", k, e.pos)
		case strings.TrimSpace(unusedExportsAllowed[k]) == "":
			t.Errorf("unusedExportsAllowed[%q] gives no reason", k)
		}
	}
}

// export is one exported declaration under internal/.
type export struct {
	pos  string
	used bool
}

// decl is an export with what a reference must fall outside of to count.
type decl struct {
	key    string
	pkg    string // import path of the declaring package
	name   string
	method bool
	own    [][2]token.Pos // the declaration, and a type's methods
}

func scanInternalExports(root string) (map[string]*export, error) {
	const module = "divscrape"
	fset := token.NewFileSet()
	type file struct {
		dir string // slash-separated, relative to root
		f   *ast.File
	}
	var files []file
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		files = append(files, file{dir: filepath.ToSlash(rel), f: f})
		return nil
	})
	if err != nil {
		return nil, err
	}
	importPath := func(dir string) string {
		if dir == "." {
			return module
		}
		return module + "/" + dir
	}

	// Declarations, and the spans of each type's methods.
	var decls []*decl
	methodSpans := map[string][][2]token.Pos{} // "<pkg>.<Type>"
	for _, fl := range files {
		pkg := importPath(fl.dir)
		for _, d := range fl.f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			if recv := receiverType(fd); recv != "" {
				methodSpans[pkg+"."+recv] = append(methodSpans[pkg+"."+recv], [2]token.Pos{fd.Pos(), fd.End()})
			}
		}
		if fl.dir != "internal" && !strings.HasPrefix(fl.dir, "internal/") {
			continue
		}
		rel := strings.TrimPrefix(fl.dir, "internal/")
		for _, d := range fl.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				span := [][2]token.Pos{{d.Pos(), d.End()}}
				if d.Recv == nil {
					decls = append(decls, &decl{key: rel + "." + d.Name.Name, pkg: pkg, name: d.Name.Name, own: span})
					continue
				}
				recv := receiverType(d)
				decls = append(decls, &decl{key: rel + "." + recv + "." + d.Name.Name, pkg: pkg, name: d.Name.Name, method: true, own: span})
			case *ast.GenDecl:
				for _, s := range d.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					decls = append(decls, &decl{key: rel + "." + ts.Name.Name, pkg: pkg, name: ts.Name.Name, own: [][2]token.Pos{{ts.Pos(), ts.End()}}})
				}
			}
		}
	}
	for _, d := range decls {
		if !d.method {
			d.own = append(d.own, methodSpans[d.pkg+"."+d.name]...)
		}
	}

	// References.
	qualified := map[string][]token.Pos{} // "<import path>.<Name>"
	selected := map[string][]token.Pos{}  // "<Name>" after any dot
	for _, fl := range files {
		pkg := importPath(fl.dir)
		imports := map[string]string{}
		for _, is := range fl.f.Imports {
			p, err := strconv.Unquote(is.Path.Value)
			if err != nil {
				return nil, err
			}
			local := path.Base(p)
			if is.Name != nil {
				local = is.Name.Name
			}
			imports[local] = p
		}
		skip := map[*ast.Ident]bool{}
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				skip[n.Name] = true
				if n.Recv != nil {
					for _, f := range n.Recv.List {
						ast.Inspect(f.Type, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								skip[id] = true
							}
							return true
						})
					}
				}
			case *ast.TypeSpec:
				skip[n.Name] = true
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.ValueSpec:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					skip[id] = true
				}
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						skip[x] = true
						qualified[p+"."+n.Sel.Name] = append(qualified[p+"."+n.Sel.Name], n.Sel.Pos())
						return true
					}
				}
				selected[n.Sel.Name] = append(selected[n.Sel.Name], n.Sel.Pos())
			case *ast.ImportSpec:
				return false
			}
			return true
		})
		ast.Inspect(fl.f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !skip[id] && id.IsExported() {
				qualified[pkg+"."+id.Name] = append(qualified[pkg+"."+id.Name], id.Pos())
			}
			return true
		})
	}

	out := make(map[string]*export, len(decls))
	for _, d := range decls {
		refs := qualified[d.pkg+"."+d.name]
		if d.method {
			refs = selected[d.name]
		}
		used := false
		for _, at := range refs {
			if !within(at, d.own) {
				used = true
				break
			}
		}
		out[d.key] = &export{pos: fset.Position(d.own[0][0]).String(), used: used}
	}
	return out, nil
}

// receiverType is the name of a method's receiver type, pointer and type
// parameters dropped.
func receiverType(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

func within(at token.Pos, spans [][2]token.Pos) bool {
	for _, s := range spans {
		if at >= s[0] && at < s[1] {
			return true
		}
	}
	return false
}
