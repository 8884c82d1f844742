package triclust

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

// reachAllowed names the functions that no shipped (non-test) file mentions
// and that stay anyway, each with the reason. Keys are "pkgdir.Func" or
// "pkgdir.Type.Method"; a key ending in ".*" covers every method of the type.
var reachAllowed = map[string]string{
	// The scripted filesystem fake the daemon's, the store's and the
	// journal's fault tests drive (crash-point matrix, degraded mode).
	"internal/fault.NewScript": "the fault tests' scripted fake filesystem",
	"internal/fault.Script.*":  "the fault tests' scripted fake filesystem",
	"internal/fault.AsCrash":   "how those tests tell a scripted crash from an I/O error",

	// References and fixture builders of other functions' tests.
	"internal/mat.FromRows":                   "literal fixtures in the mat, sparse and core tests",
	"internal/mat.Product":                    "allocating reference for ProductInto and the core update tests",
	"internal/mat.Gram":                       "allocating reference for GramInto",
	"internal/mat.Dense.Frobenius":            "norms the core update tests compare",
	"internal/mat.Dense.IsFinite":             "the solver tests' no-NaN assertion",
	"internal/mat.Dense.Trace":                "reference for Dot (TestDotMatchesTraceIdentity)",
	"internal/sparse.FromDenseRows":           "literal fixtures in the sparse, baseline and core tests",
	"internal/sparse.CSR.ToDense":             "dense reference in the sparse, text, tgraph and core tests",
	"internal/sparse.CSR.ResidualFrobeniusSq": "reference for ResidualFrobeniusSqWS and the core update tests' loss",
	"internal/sparse.LaplacianMulDense":       "reference for LaplacianMulDenseInto",
	"internal/sparse.DegreeMulDense":          "reference for DegreeMulDenseInto",
	"internal/sparse.Symmetrize":              "graph fixtures in the sparse and core tests",
	"internal/sparse.DropDiagonal":            "graph fixtures of the Laplacian tests",
	"internal/sparse.CSR.ScaleRows":           "the core scale-invariance test's fixture",
	"internal/sparse.CSR.RowNNZ":              "row-shape assertions in the text tests",
	"internal/core.Online.HistoryLen":         "how the retention and state tests see the solver's memory",
	"internal/tgraph.CategorizeUsers":         "reference the synth tests hold the generator's user churn to",
	"internal/tgraph.WriteCSV":                "round-trip partner in ReadCSV's tests",

	// Public options of the library no shipped command sets.
	"triclust.WithConformance": "public option",
	"triclust.WithTokenizer":   "public option",
	"triclust.WithWeighting":   "public option",

	// Reached by their own tests only, and kept by this list alone: each
	// goes with its test, a few tests a change (PR 22 took what it could).
	"internal/baseline.LexiconVoteUsers": "self-tested only; with it go LexiconVote and AggregateUserFromTweets",
	"internal/core.FoldInUsers":          "self-tested only",
	"internal/eval.PairwiseF1":           "self-tested only",
	"internal/lexicon.Lexicon.Coverage":  "self-tested only",
	"internal/mat.Dense.Hadamard":        "self-tested only",
	"internal/mat.Dense.NormalizeColsL2": "self-tested only",
	"internal/sparse.FromTriplets":       "self-tested only",
	"internal/sparse.CSR.MaxAbs":         "self-tested only",
	"internal/sparse.CSR.SelectRows":     "self-tested only",
	"internal/sparse.CSR.MulTDenseInto":  "self-tested and benchmarked only (core.Problem's cached transposes replaced it)",
}

// TestEveryFunctionIsReached fails, naming the function, when a top-level
// function or method outside bench/ is mentioned by no non-test file. The
// scan is by name: a mention is any identifier or selector of that name
// outside the function's own declaration, in any non-test file of the
// repository (bench/ included: the benchmark is a caller). Methods the
// runtime or the standard library calls through an interface are matched
// against implicitMethods.
func TestEveryFunctionIsReached(t *testing.T) {
	type decl struct{ key, name string }
	var decls []decl
	mentioned := map[string]bool{}

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		inBench := strings.HasPrefix(filepath.ToSlash(path), "bench/")
		pkg := filepath.ToSlash(filepath.Dir(path))
		if pkg == "." {
			pkg = "triclust"
		}
		for _, d := range f.Decls {
			fn, isFunc := d.(*ast.FuncDecl)
			self := ""
			if isFunc {
				self = fn.Name.Name
				if !inBench && !implicitFunc(fn) {
					decls = append(decls, decl{pkg + "." + recvPrefix(fn) + self, self})
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name != self {
					mentioned[id.Name] = true
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	used := map[string]bool{}
	var dead []string
	for _, d := range decls {
		if mentioned[d.name] {
			continue
		}
		if k := allowKey(d.key); k != "" {
			used[k] = true
			continue
		}
		dead = append(dead, d.key)
	}
	sort.Strings(dead)
	for _, k := range dead {
		t.Errorf("%s is mentioned by no non-test file: delete it (with its own test), or call it", k)
	}
	for k := range reachAllowed {
		if !used[k] {
			t.Errorf("reachAllowed[%q] excuses nothing: the function is gone or reached, drop the entry", k)
		}
	}
}

// allowKey returns the reachAllowed entry covering key, or "".
func allowKey(key string) string {
	if _, ok := reachAllowed[key]; ok {
		return key
	}
	if i := strings.LastIndexByte(key, '.'); i >= 0 {
		if _, ok := reachAllowed[key[:i]+".*"]; ok {
			return key[:i] + ".*"
		}
	}
	return ""
}

// recvPrefix returns "Type." for a method and "" for a function.
func recvPrefix(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	e := fn.Recv.List[0].Type
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name + "."
	}
	return ""
}

// implicitMethods are called through standard-library interfaces, never by
// name: error, fmt.Stringer, io.*, sort.Interface, http.Handler and
// RoundTripper, the JSON hooks, errors.Is/As/Unwrap.
var implicitMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "Is": true,
	"Read": true, "Write": true, "Close": true,
	"Len": true, "Less": true, "Swap": true,
	"ServeHTTP": true, "RoundTrip": true, "Flush": true,
	"Int63": true, "Uint64": true, "Seed": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

// implicitFunc reports declarations the toolchain calls itself.
func implicitFunc(fn *ast.FuncDecl) bool {
	if fn.Recv == nil {
		return fn.Name.Name == "main" || fn.Name.Name == "init"
	}
	return implicitMethods[fn.Name.Name]
}
