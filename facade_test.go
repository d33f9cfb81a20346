package mcss_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// facadeFiles are the files that make up the public mcss package.
var facadeFiles = []string{"mcss.go", "planner.go", "deploy.go"}

// facadeKeep lists the exported facade names that no example or command
// names and no kept declaration mentions, each with the rule that keeps it.
var facadeKeep = map[string]string{
	// Types a kept type's exported fields or methods return, so a caller
	// can name what it gets.
	"SubID":              "reached: Workload.Subscribers",
	"VM":                 "reached: Allocation.VMs",
	"TopicPlacement":     "reached: VM.Placements",
	"Utilization":        "reached: Allocation.ComputeUtilization",
	"MigrationStats":     "reached: DeployDiff.Stats, Provisioner.UpdateIncremental",
	"RepairStats":        "reached: Provisioner.RepairCrashContext",
	"ElasticEpochReport": "reached: ElasticRunReport.Epochs",
	"BillingLedger":      "reached: ElasticRunReport.Ledger",
	"Rental":             "reached: BillingLedger.Rentals",
	"DeployDiff":         "reached: DeployPlan.Diff",
	"DeployStepOp":       "reached: DeployStep.Op",
	// Errors a kept call can return.
	"ErrBadOption":         "error: NewPlanner",
	"ErrInfeasible":        "error: Planner.Solve",
	"ErrInvalidPlan":       "error: Planner.Plan, SnapshotPlan, SavePlan, LoadPlan",
	"ErrAborted":           "error: Apply under WithStepObserver",
	"ErrInvalidTimeline":   "error: SaveTimeline, LoadTimeline",
	"ErrInvalidSpotMarket": "error: SaveSpotMarket, LoadSpotMarket",
	"ErrInvalidTopology":   "error: NewTopology",
	// The one constructor of a type a kept call takes and nothing kept
	// returns.
	"SelectionFromPairs": "constructor: Selection for a custom SolverConfig.Stage1",
	"NewTopology":        "constructor: Topology for WithTopology",
	// Half of a save/load pair whose other half stays.
	"LoadTrace":      "pair: SaveTrace",
	"SaveSpotMarket": "pair: LoadSpotMarket",
}

// TestFacadeNamesHaveCallers pins the facade's rule: every exported
// top-level name is named as mcss.X by non-test code under examples/ or
// cmd/, is mentioned by the declaration of another such name (a function
// signature, a Planner method signature, a struct field), or is listed in
// facadeKeep with the rule that keeps it.
func TestFacadeNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	mentions := map[string][]string{} // exported name → facade names its declaration mentions
	for _, name := range facadeFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				owner := d.Name.Name
				if d.Recv != nil {
					if !d.Name.IsExported() {
						continue
					}
					owner = receiverName(d.Recv.List[0].Type)
				}
				if ast.IsExported(owner) {
					mentions[owner] = append(mentions[owner], identsIn(d.Type)...)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							mentions[s.Name.Name] = append(mentions[s.Name.Name], identsIn(s.Type)...)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								mentions[n.Name] = append(mentions[n.Name], identsIn(s.Type)...)
							}
						}
					}
				}
			}
		}
	}

	passing := map[string]bool{}
	var queue []string
	pass := func(name string) {
		if _, ok := mentions[name]; ok && !passing[name] {
			passing[name] = true
			queue = append(queue, name)
		}
	}
	closure := func() {
		for len(queue) > 0 {
			name := queue[0]
			queue = queue[1:]
			for _, m := range mentions[name] {
				pass(m)
			}
		}
	}
	for _, name := range callerNames(t) {
		pass(name)
	}
	closure()
	for name := range facadeKeep {
		if _, ok := mentions[name]; !ok {
			t.Errorf("facadeKeep lists %s, which the facade does not declare", name)
		} else if passing[name] {
			t.Errorf("facadeKeep lists %s, which a caller or a kept declaration already reaches", name)
		}
	}
	for name := range facadeKeep {
		pass(name)
	}
	closure()

	var orphans []string
	for name := range mentions {
		if !passing[name] {
			orphans = append(orphans, name)
		}
	}
	if len(orphans) > 0 {
		slices.Sort(orphans)
		t.Errorf("%d exported facade names have no caller in examples/ or cmd/, no kept declaration mentioning them and no rule in facadeKeep:\n%s",
			len(orphans), strings.Join(orphans, "\n"))
	}
}

// receiverName returns the type name of a method receiver (T or *T).
func receiverName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// identsIn returns the unqualified identifiers in n: core.X names
// another package's X, so a selector's right-hand side is skipped.
func identsIn(n ast.Node) []string {
	if n == nil {
		return nil
	}
	var out []string
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			out = append(out, identsIn(n.X)...)
			return false
		case *ast.Ident:
			out = append(out, n.Name)
		}
		return true
	})
	return out
}

// callerNames returns every X that non-test Go code under examples/ and
// cmd/ names as mcss.X, under whatever name the file imports the module.
func callerNames(t *testing.T) []string {
	t.Helper()
	const module = "github.com/pubsub-systems/mcss"
	var names []string
	for _, root := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			local := ""
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == module {
					local = "mcss"
					if imp.Name != nil {
						local = imp.Name.Name
					}
				}
			}
			if local == "" {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
						names = append(names, sel.Sel.Name)
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}
