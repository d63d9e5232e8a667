package divscrape_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// One decision core judges every stream: internal/shard owns the enricher
// a host's requests are enriched by, and every host — the pipeline, the
// guard, the facade's DetectorSet, the experiments that replay through the
// pipeline — wraps a shard. A host that builds its own enricher has forked
// that core. This scan fails when a non-test file in the module calls
// detector.NewEnricher outside the functions listed in enricherAllowed,
// each with the reason it stays on its own path; an entry that no longer
// calls it fails too, so the list only shrinks. bench/, a module of its
// own that times the layers one by one, is not scanned.

// enricherAllowed names the functions that build an enricher of their own,
// keyed "<dir under internal>.<Func>" or "<dir>.<Type>.<Method>".
var enricherAllowed = map[string]string{
	"shard.New": "the decision core itself: every host's shard owns the one enricher its requests are enriched by",
	"bayes.Train": "trains the model the bayes side judges with: it reads labelled sessions, " +
		"so it has no detector and nothing to judge",
	"trajectory.Train": "trains the site-walk model the trajectory side judges with: it reads labelled sessions, " +
		"so it has no detector and nothing to judge",
	"experiments.ExecuteTopologies": "E7's serial cascades skip the second detector on what the first decided, " +
		"by design; a shard runs every side on every request",
	"experiments.executeMitigationPass": "E12's k-out-of-2 adjudicator feeds the ladder an assessment that " +
		"shard.Judge (ensemble.Assess) does not produce",
}

func TestEnrichersOnlyInTheDecisionCore(t *testing.T) {
	calls, err := scanEnricherCalls(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) == 0 {
		t.Fatal("scan found no detector.NewEnricher call: not even internal/shard's")
	}
	keys := make([]string, 0, len(calls))
	for k := range calls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if enricherAllowed[k] == "" {
			t.Errorf("%s (%s) builds its own enricher; judge through internal/shard (pipeline.Run, a shard.Shard) "+
				"or list it in enricherAllowed with the reason", k, calls[k])
		}
	}
	allowed := make([]string, 0, len(enricherAllowed))
	for k := range enricherAllowed {
		allowed = append(allowed, k)
	}
	sort.Strings(allowed)
	for _, k := range allowed {
		if _, ok := calls[k]; !ok {
			t.Errorf("enricherAllowed[%q] names no function that calls detector.NewEnricher; drop the entry", k)
		}
	}
}

// scanEnricherCalls returns the position of the first detector.NewEnricher
// call in every non-test function under root that makes one, keyed as
// enricherAllowed is.
func scanEnricherCalls(root string) (map[string]string, error) {
	const detectorPkg = "divscrape/internal/detector"
	fset := token.NewFileSet()
	calls := map[string]string{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				filepath.Dir(p) == root && name == "bench") {
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
		dir := strings.TrimPrefix(filepath.ToSlash(rel), "internal/")
		local := ""
		for _, is := range f.Imports {
			if path, err := strconv.Unquote(is.Path.Value); err == nil && path == detectorPkg {
				local = "detector"
				if is.Name != nil {
					local = is.Name.Name
				}
			}
		}
		for _, decl := range f.Decls {
			key := dir + ".<package scope>"
			if fd, ok := decl.(*ast.FuncDecl); ok {
				key = dir + "." + fd.Name.Name
				if fd.Recv != nil {
					key = dir + "." + receiverType(fd) + "." + fd.Name.Name
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var hit bool
				switch fn := call.Fun.(type) {
				case *ast.SelectorExpr:
					x, ok := fn.X.(*ast.Ident)
					hit = ok && local != "" && x.Name == local && fn.Sel.Name == "NewEnricher"
				case *ast.Ident:
					hit = dir == "detector" && fn.Name == "NewEnricher"
				}
				if hit {
					if _, seen := calls[key]; !seen {
						calls[key] = fset.Position(call.Pos()).String()
					}
				}
				return true
			})
		}
		return nil
	})
	return calls, err
}
