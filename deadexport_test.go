package main_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadExportAllow exempts exported functions and methods the scan below
// cannot see called, each with the reason it stays. A bare method name
// exempts it on every type; Type.Method exempts one method.
var deadExportAllow = map[string]string{
	// Called through interfaces the standard library owns.
	"String":    "fmt.Stringer, called by fmt",
	"Error":     "error, called by fmt and errors",
	"ServeHTTP": "http.Handler, called by net/http",
	// Kept for a named ROADMAP item. Tests in other packages call each of
	// them, which an export_test.go cannot serve.
	"Replica.SyncFrom":        "anti-entropy: ROADMAP item 18 calls it on restart, on peer-up and on a detected gap",
	"Network.LinkDelayFactor": "ROADMAP item 2: the message-granular delay fault composes with a standing spike",
	"Engine.Running":          "ROADMAP item 2: the fault generator runs scenarios back to back on one engine",
	// Test support: the in-process node set the cluster, core and httpapi
	// tests share.
	"StartNodes": "clustertest: each caller is a test of another package",
	// mdcc's executor, which Replica and Coordinator embed: tests of other
	// packages read an actor's crash state.
	"actor.Crashed": "chaos, chaos-soak and httpapi chaos tests check that a crash took and a restart healed",
	// The multi-process agreement audit: multinet's process tests call it.
	"Client.NetDecisions": "multinet's kill -9 tests compare the nodes' verdicts through it",
	// Type-aware findings (typedFindings), keyed pkg.Type.Member.
	// PLANET's documented application API.
	"planet.Txn.ReadInt":       "README's quickstart reads with it",
	"planet.Session.Run":       "PROTOCOL.md documents Session.Run/RunCtx retries",
	"planet.Handle.Likelihood": "DESIGN.md's programming model: the likelihood read between callbacks",
	// A mode kept for a named ROADMAP item.
	"experiments.Config.EarlyAbort": "ROADMAP item 6: before/after runs flip EarlyAbort here, then it turns on by default",
	// Called only by tests of other packages.
	"planet.Handle.Done":             "chaos tests wait on a handle from a select",
	"planet.DB.Predictor":            "httpapi tests read a region's predictor",
	"mdcc.Replica.Snapshot":          "the chaos soak's replay-equality audit and cluster tests compare replicas",
	"chaos.Engine.Wait":              "httpapi and chaos tests wait out a scenario",
	"httpapi.Client.Trace":           "multinet's cross-process trace gates fetch traces",
	"httpapi.Client.Attribution":     "multinet's attribution smoke test",
	"latency.Recorder.Quantile":      "predictor tests read RTT windows",
	"predictor.Predictor.AcceptProb": "core's likelihood determinism test probes it",
	"metrics.Counter.Add":            "registry tests; completes the counter API beside Inc",
	"obs.Gauge.Add":                  "registry tests; completes the gauge API beside Set",
}

// TestNoDeadExports fails on an exported function or method whose name
// appears in no non-test Go file of internal/, cmd/, examples/ or benchmark/
// except as its own declaration. That plain name scan counts a call of any
// function or method with the same name as a use, so it then type-checks
// the same files (typedFindings) and also fails on an exported method whose
// own *types.Func nothing uses, and on a field of an exported *Config
// struct that nothing writes. An export only tests call belongs in an
// export_test.go; one kept for later needs a deadExportAllow entry.
// benchmark/ is only read, as a caller: its own exports are not checked.
func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	uses := make(map[string]int)
	declared := make(map[string][]string) // Type.Method or Func → declaration sites
	for _, root := range []string{"internal", "cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			decl := make(map[*ast.Ident]bool)
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				decl[fd.Name] = true
				if fd.Name.IsExported() && root != "benchmark" {
					key := fd.Name.Name
					if fd.Recv != nil {
						key = recvType(fd.Recv.List[0].Type) + "." + key
					}
					declared[key] = append(declared[key], fset.Position(fd.Pos()).String())
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !decl[id] {
					uses[id.Name]++
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var dead []string
	for key, sites := range declared {
		name := key[strings.LastIndexByte(key, '.')+1:]
		if uses[name] == 0 && deadExportAllow[key] == "" && deadExportAllow[name] == "" {
			for _, site := range sites {
				dead = append(dead, site+": "+key)
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is exported, but no non-test code calls it (delete it, move it to an export_test.go, or allowlist it with a reason)", d)
	}
	for _, d := range typedFindings(t) {
		t.Errorf("%s (delete it, move it to an export_test.go, or allowlist it with a reason)", d)
	}
}

// recvType names a method's receiver type: T for T, *T, T[P] and *T[P].
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
