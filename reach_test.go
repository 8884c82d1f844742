package triclust

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reachAllowed names the functions that no shipped (non-test) file uses and
// that stay anyway, each with the reason. Keys are "pkgdir.Func" or
// "pkgdir.Type.Method"; a key ending in ".*" covers every method of the
// type, and "triclust: exported" every exported function and method of the
// library.
var reachAllowed = map[string]string{
	"triclust: exported": "public API, whether or not a shipped command calls it",

	// The scripted filesystem fake the daemon's, the store's and the
	// journal's fault tests drive (crash-point matrix, degraded mode), and
	// the manual clock of the loop tests.
	"internal/fault.NewScript": "the fault tests' scripted fake filesystem",
	"internal/fault.Script.*":  "the fault tests' scripted fake filesystem",
	"internal/fault.AsCrash":   "how those tests tell a scripted crash from an I/O error",
	"internal/fault.NewClock":  "the manual clock the detector and cluster tests advance",
	"internal/fault.Clock.*":   "the manual clock the detector and cluster tests advance",

	// References and fixture builders of other functions' tests.
	"internal/mat.FromRows":              "literal fixtures in the mat, sparse and core tests",
	"internal/mat.Equal":                 "the comparison every matrix test asserts with",
	"internal/mat.Dense.T":               "dense reference for MulATB, MulABT, CSR.T and core.Problem's cached transposes",
	"internal/mat.Dense.Frobenius":       "norms the core update tests compare",
	"internal/mat.Dense.IsFinite":        "the solver tests' no-NaN assertion",
	"internal/mat.Dense.Trace":           "reference for Dot (TestDotMatchesTraceIdentity)",
	"internal/sparse.FromDenseRows":      "literal fixtures in the sparse, baseline and core tests",
	"internal/sparse.CSR.ToDense":        "dense reference in the sparse, text, tgraph and core tests",
	"internal/sparse.Symmetrize":         "graph fixtures in the sparse and core tests",
	"internal/sparse.DropDiagonal":       "graph fixtures of the Laplacian tests",
	"internal/sparse.CSR.ScaleRows":      "the core scale-invariance test's fixture",
	"internal/sparse.CSR.RowNNZ":         "row-shape assertions in the text tests",
	"internal/sparse.CSR.At":             "entry lookups the sparse and text tests assert with",
	"internal/journal.Writer.Append":     "record-at-a-time fixture of the journal tests (the store appends pre-encoded frames)",
	"internal/core.Online.HistoryLen":    "how the retention and state tests see the solver's memory",
	"internal/tgraph.CategorizeUsers":    "reference the synth tests hold the generator's user churn to",
	"internal/tgraph.Corpus.ActiveUsers": "what those tests feed CategorizeUsers",
	"internal/tgraph.WriteCSV":           "round-trip partner in ReadCSV's tests",
	"internal/lexicon.Lexicon.Len":       "public through the triclust.Lexicon alias; how the lexicon tests see a lexicon is not empty",
}

// loadRepo type-checks the repository once for the reach and architecture tests.
var loadRepo = sync.OnceValues(typeCheckRepo)

func typeCheckRepo() (*repoImporter, error) {
	imp := &repoImporter{
		fset:  token.NewFileSet(),
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	// The source importer reads go/build's default context: without cgo it
	// type-checks the pure-Go files of net and os/user and needs no C compiler.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	imp.std = importer.ForCompiler(imp.fset, "source", nil)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
			return filepath.SkipDir
		}
		_, err = imp.Import(importPath(path))
		return err
	})
	return imp, err
}

// TestEveryFunctionIsReached fails, naming the function, when no non-test
// file uses a top-level function or method declared outside bench/. The
// non-test files of every package (bench/ included: the benchmark is a
// caller) are type-checked, and a use is an identifier the checker resolved
// to that very function outside its own declaration — so a method is not
// excused by a namesake on another type. A method also counts as used when
// its receiver implements an interface of this repository that declares it;
// methods the runtime or the standard library calls through an interface
// of theirs are matched against implicitMethods.
func TestEveryFunctionIsReached(t *testing.T) {
	imp, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}

	type decl struct {
		key string
		fn  *types.Func
	}
	var decls []decl
	var ifaces []*types.Interface
	used := map[*types.Func]bool{}
	for path, files := range imp.files {
		pkg := strings.TrimPrefix(path, "triclust/") // the root stays "triclust"
		for _, f := range files {
			for _, d := range f.Decls {
				var self *types.Func
				if fn, ok := d.(*ast.FuncDecl); ok {
					self = imp.info.Defs[fn.Name].(*types.Func)
					if pkg != "bench" && !implicitFunc(fn) {
						decls = append(decls, decl{pkg + "." + recvPrefix(fn) + fn.Name.Name, self})
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if fn, ok := imp.info.Uses[id].(*types.Func); ok && fn.Origin() != self {
						used[fn.Origin()] = true
					}
					if tn, ok := imp.info.Defs[id].(*types.TypeName); ok {
						if it, ok := tn.Type().Underlying().(*types.Interface); ok {
							ifaces = append(ifaces, it)
						}
					}
					return true
				})
			}
		}
	}

	excused := map[string]bool{}
	var dead []string
	for _, d := range decls {
		if used[d.fn] || implementsRepoInterface(d.fn, ifaces) {
			continue
		}
		if k := allowKey(d.key, d.fn); k != "" {
			excused[k] = true
			continue
		}
		dead = append(dead, d.key)
	}
	sort.Strings(dead)
	for _, k := range dead {
		t.Errorf("%s is used by no non-test file: delete it (with its own test), or call it", k)
	}
	for k := range reachAllowed {
		if !excused[k] {
			t.Errorf("reachAllowed[%q] excuses nothing: the function is gone or reached, drop the entry", k)
		}
	}
}

// repoImporter type-checks the repository's own packages from their
// non-test source, once each and into one shared types.Info, and leaves
// every other import path to the standard library's source importer.
type repoImporter struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	info  *types.Info
}

// importPath maps a directory of the repository to its import path; bench/
// is a module of its own whose path keeps the triclust/ prefix.
func importPath(dir string) string {
	if dir == "." {
		return "triclust"
	}
	return "triclust/" + filepath.ToSlash(dir)
}

func (r *repoImporter) Import(path string) (*types.Package, error) {
	if path != "triclust" && !strings.HasPrefix(path, "triclust/") {
		return r.std.Import(path)
	}
	if p, ok := r.pkgs[path]; ok {
		return p, nil
	}
	dir := "." + strings.TrimPrefix(path, "triclust")
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(r.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		r.pkgs[path] = nil // a directory that holds no package
		return nil, nil
	}
	p, err := (&types.Config{Importer: r}).Check(path, r.fset, files, r.info)
	if err != nil {
		return nil, err
	}
	r.pkgs[path], r.files[path] = p, files
	return p, nil
}

// implementsRepoInterface reports whether fn is a method some interface
// declared in this repository declares too and fn's receiver implements:
// such a method is called through the interface, never by its own name.
func implementsRepoInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && types.Implements(recv.Type(), it) {
				return true
			}
		}
	}
	return false
}

// allowKey returns the reachAllowed entry covering fn, declared as key, or "".
func allowKey(key string, fn *types.Func) string {
	if _, ok := reachAllowed[key]; ok {
		return key
	}
	if fn.Pkg().Path() == "triclust" && fn.Exported() {
		return "triclust: exported"
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
// name: error, fmt.Stringer, io.*, http.Handler and RoundTripper,
// rand.Source64, the JSON hooks, errors.Is/As/Unwrap.
var implicitMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "Is": true,
	"Read": true, "Write": true, "Close": true,
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
