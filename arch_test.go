package triclust

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"strings"
	"testing"
)

// arch checks the architecture rules on the type-checked non-test files
// (loadRepo). A rule counts resolved objects, not spellings, so neither a
// rename nor an aliased import gets past it; want names each site's file:line.
type arch struct {
	t *testing.T
	r *repoImporter
}

func newArch(t *testing.T) arch {
	r, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	return arch{t, r}
}

// match reports whether n, inside top-level function fun ("f", "T.m" or ""), counts.
type match func(n ast.Node, fun string) bool

// obj returns path.name or, given a member, that field or method of type path.name.
func (a arch) obj(path, name string, member ...string) types.Object {
	var o types.Object
	if p, _ := a.r.Import(path); p != nil {
		o = p.Scope().Lookup(name)
		for i := 0; o != nil && i < len(member); i++ {
			o, _, _ = types.LookupFieldOrMethod(o.Type(), true, p, member[i])
		}
	}
	if o == nil {
		a.t.Fatalf("%s.%s%q is gone: update the rule that names it", path, name, member)
	}
	return o
}

// ref returns the object an identifier or a qualified identifier resolves to.
func (a arch) ref(e ast.Expr) types.Object {
	if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		e = s.Sel
	}
	id, _ := ast.Unparen(e).(*ast.Ident)
	return a.r.info.Uses[id]
}

// use matches an identifier that resolves to one of objs.
func (a arch) use(objs ...types.Object) match {
	return func(n ast.Node, _ string) bool {
		id, ok := n.(*ast.Ident)
		return ok && slices.Contains(objs, a.r.info.Uses[id])
	}
}

// imports matches an import of a package under roots or, unless direct, reaching one.
func (a arch) imports(direct bool, roots ...string) match {
	var reaches func(p *types.Package, seen map[*types.Package]bool) bool
	reaches = func(p *types.Package, seen map[*types.Package]bool) bool {
		seen[p] = true
		return under(p.Path(), roots...) || !direct && slices.ContainsFunc(p.Imports(), func(q *types.Package) bool {
			return !seen[q] && reaches(q, seen)
		})
	}
	return func(n ast.Node, _ string) bool {
		if spec, ok := n.(*ast.ImportSpec); ok {
			p, _ := a.r.Import(strings.Trim(spec.Path.Value, "\"`"))
			return reaches(p, map[*types.Package]bool{})
		}
		return false
	}
}

// under reports whether path is one of roots or lies below one of them.
func under(path string, roots ...string) bool {
	return slices.ContainsFunc(roots, func(r string) bool { return path == r || strings.HasPrefix(path, r+"/") })
}
func in(roots ...string) func(string) bool { return func(f string) bool { return under(f, roots...) } }

// want fails, naming each site, unless the files accepted hold exactly n nodes m matches.
func (a arch) want(n int, files func(string) bool, m match, what, why string) {
	a.t.Helper()
	var sites []string
	for _, pkg := range a.r.files {
		for _, f := range pkg {
			for i := 0; files(a.r.fset.File(f.Pos()).Name()) && i < len(f.Decls); i++ {
				fun := ""
				if fd, ok := f.Decls[i].(*ast.FuncDecl); ok {
					fun = recvPrefix(fd) + fd.Name.Name
				}
				ast.Inspect(f.Decls[i], func(x ast.Node) bool {
					if x != nil && m(x, fun) {
						sites = append(sites, fmt.Sprintf("\n\t%s", a.r.fset.Position(x.Pos())))
					}
					return true
				})
			}
		}
	}
	if slices.Sort(sites); len(sites) != n {
		a.t.Errorf("%d × %s, want %d (%s)%s", len(sites), what, n, why, strings.Join(sites, ""))
	}
}

func TestArchLayering(t *testing.T) {
	a := newArch(t)
	a.want(0, in("internal/core"), a.imports(false, "triclust/internal/engine"), "core import reaching internal/engine",
		"core is the paper's algorithm; engine orchestrates core, never the reverse")
	a.want(0, in("internal/conform"), a.imports(false, "triclust"), "conform import reaching this module",
		"conform is a stdlib-only leaf that the engine and the codec embed")
	a.want(0, in("internal/conform"), a.imports(true, "encoding/binary"), "conform import of encoding/binary",
		"internal/codec owns a profile's bytes: conform exports a ProfileState value and writes none")
	a.want(0, in("internal/store"), a.imports(false, "net/http", "triclust/cmd"), "store import reaching net/http or a command",
		"store is disk mechanism below the daemon; HTTP and commands are its callers")
	a.want(0, in("internal/cluster"), a.imports(false, "triclust/internal/fault"), "cluster import reaching internal/fault",
		"cluster decides ownership; internal/store does the file I/O")
	a.want(0, in("cmd/triclustd"), a.imports(true, "triclust/internal/journal"), "daemon import of internal/journal",
		"durable writes go through internal/store's verbs, which bring the journal in")
}

// TestArchDaemonSpine holds cmd/triclustd's request spine to one copy: resolve,
// apiError, one client to the other shards (peer.go), one background lifetime.
func TestArchDaemonSpine(t *testing.T) {
	a, d, daemon, written := newArch(t), in("cmd/triclustd"), "triclust/cmd/triclustd", map[ast.Node]bool{}
	a.want(1, d, a.use(a.obj("net/http", "NewRequestWithContext"), a.obj("net/http", "NewRequest")), "http.NewRequest(WithContext)",
		"peerClient.once builds every inter-shard request")
	a.want(1, d, a.use(a.obj("net/http", "Redirect")), "http.Redirect",
		"a shard answers 307 for a topic it does not hold; it relays no client request")
	timer := a.use(a.obj("time", "After"), a.obj("time", "Tick"), a.obj("time", "NewTimer"), a.obj("time", "NewTicker"),
		a.obj("time", "AfterFunc"), a.obj("time", "Sleep"))
	a.want(0, in("cmd/triclustd", "internal/cluster"), func(n ast.Node, fun string) bool { return fun != "WallSleep" && timer(n, fun) },
		"timer outside cluster.WallSleep", "every loop and retry waits through the server's one cluster.Sleep, which a test replaces")
	client, topics, moved := a.obj("net/http", "Client"), a.obj(daemon, "server", "topics"), a.obj(daemon, "server", "moved")
	a.want(1, d, func(n ast.Node, _ string) bool { c, ok := n.(*ast.CompositeLit); return ok && a.ref(c.Type) == client },
		"http.Client literal", "one client on one injectable transport")
	triple := []types.Type{types.Typ[types.Int], types.Typ[types.String], types.Universe.Lookup("error").Type()}
	a.want(0, d, func(n ast.Node, _ string) bool {
		ft, ok := n.(*ast.FuncType)
		var res []types.Type
		for i := 0; ok && ft.Results != nil && i < len(ft.Results.List); i++ {
			var t types.Type // an alias counts as the type it names
			if tn, ok := a.ref(ft.Results.List[i].Type).(*types.TypeName); ok {
				t = types.Unalias(tn.Type())
			}
			res = append(res, slices.Repeat([]types.Type{t}, max(1, len(ft.Results.List[i].Names)))...)
		}
		return slices.Equal(res, triple)
	}, "(int, string, error) result", "refusals travel as *apiError, not (status, code, err)")
	a.want(1, d, func(n ast.Node, _ string) bool {
		c, ok := n.(*ast.CallExpr)
		return ok && a.ref(c.Fun) == types.Universe.Lookup("delete") && a.ref(c.Args[0]) == topics
	}, "delete from server.topics", "retire is the only way out of the registry")
	a.want(0, d, func(n ast.Node, fun string) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, l := range as.Lhs {
				written[l] = true
			}
		}
		ix, ok := n.(*ast.IndexExpr)
		return ok && !written[ix] && a.ref(ix.X) == moved && fun != "server.resolve" && fun != "server.tryRegister"
	}, "read of server.moved outside resolve and tryRegister", "the tombstone map answers where a name is resolved or registered")
	launch := func(owner string) match { // owner "" matches a go statement in any other function
		return func(n ast.Node, fun string) bool {
			_, ok := n.(*ast.GoStmt)
			return ok && (fun == owner || owner == "" && fun != "main" && fun != "server.spawn")
		}
	}
	const why = "server.spawn starts every goroutine but main's listener, under the server's context, and Close waits for them; " +
		"the cluster detector's probe loops run through it (Detector.Watch)"
	a.want(1, d, launch("main"), "go statement in main", why)
	a.want(1, d, launch("server.spawn"), "go statement in server.spawn", why)
	a.want(0, in("cmd/triclustd", "internal/cluster"), launch(""), "other go statement", why)
}

// TestArchWrittenOnce: one solver loop for Algorithms 1 and 2, one graph
// construction, one kernel split rule (par.Blocks) sized by no width, one
// read path: a Topic read loads the published view and never waits on a lock.
func TestArchWrittenOnce(t *testing.T) {
	a, sparse, par := newArch(t), "triclust/internal/sparse", "triclust/internal/par"
	maxIter := a.use(a.obj("triclust/internal/core", "Config", "MaxIter"))
	var conds []ast.Node
	a.want(1, in("internal/core"), func(n ast.Node, fun string) bool {
		if f, ok := n.(*ast.ForStmt); ok && f.Cond != nil {
			conds = append(conds, f.Cond)
		}
		return maxIter(n, fun) && slices.ContainsFunc(conds, func(c ast.Node) bool { return c.Pos() <= n.Pos() && n.End() <= c.End() })
	}, "Config.MaxIter read by a for condition", "iterate is the solver loop of FitOffline and Online.Step")
	assembly := []types.Object{a.obj(sparse, "NewCOO")}
	for m := range types.NewMethodSet(types.NewPointer(a.obj(sparse, "COO").Type())).Methods() {
		assembly = append(assembly, m.Obj())
	}
	a.want(0, in("internal/tgraph/build.go"), a.use(assembly...), "sparse.COO call in tgraph.Build's file",
		"Build assembles no matrix itself; see buildGraphInto")
	a.want(0, in("internal/par", "internal/mat", "internal/sparse"), a.use(a.obj("sync", "Pool")), "sync.Pool in a kernel package",
		"a kernel launch is inline or par.Run, never a pooled body")
	a.want(0, func(f string) bool { return !under(f, "internal/par", "bench") }, a.use(a.obj(par, "MinParallelWork")),
		"par.MinParallelWork outside par and bench/", "the split rule is par.Blocks; ask it")
	a.want(0, func(f string) bool { return !under(f, "internal/par", "bench", "cmd/triclustd/main.go") }, a.use(a.obj(par, "Procs")),
		"par.Procs outside par, bench/ and the daemon's start-up log", "a reduction sizes its partials from par.Blocks, not by the width")
	lock := a.use(a.obj("sync", "Mutex", "Lock"), a.obj("sync", "RWMutex", "Lock"), a.obj("sync", "RWMutex", "RLock"))
	a.want(0, func(f string) bool { return !strings.Contains(f, "/") }, func(n ast.Node, fun string) bool {
		m, ok := strings.CutPrefix(fun, "Topic.")
		return ok && !slices.Contains([]string{"Process", "FitCorpus", "Freeze", "SetEpoch", "Snapshot"}, m) && lock(n, fun)
	}, "lock taken by a Topic method that is not a writer", "a read loads t.view; Topic.mu orders the writers")
}

// TestLibrarySurface pins the library's exported names and core.Config's
// fields: a second API or an extension knob on the solver is a diff here.
func TestLibrarySurface(t *testing.T) {
	a, pinned := newArch(t), map[types.Object]bool{}
	for _, name := range strings.Fields(`Binary BuiltinLexicon ClassName Config ConformEnforce ConformFlag ConformOff ConformanceError
		ConformanceMode ConformanceParams ConformanceReport ConformanceScore ConformanceStatus ConformanceVerdict Conforming Convergence
		ConvergenceState Converging Corpus DefaultConfig DefaultOnlineConfig DefaultStreamOptions DefaultTokenizerOptions Flagged
		InduceLexicon Lexicon Neg Neu NewTopic NoLabel OnlineConfig Option ParseConformanceMode Pos Quarantined ReadView Restore Result
		Sentiment Steady StreamOptions StreamResult TF TFIDF TokenizerOptions Topic Tweet User Warming Weighting WithConformance
		WithLexicon WithLexiconHit WithMinDF WithSolverConfig WithTokenizer WithWeighting
		Config.K Config.Alpha Config.Beta Config.MaxIter Config.Tol Config.Seed Config.LexiconInit`) {
		path := strings.Split(name, ".")
		pinned[a.obj("triclust", path[0], path[1:]...)] = true
	}
	root, cfg := a.r.pkgs["triclust"].Scope(), a.obj("triclust", "Config").Type()
	a.want(0, func(string) bool { return true }, func(n ast.Node, _ string) bool {
		id, _ := n.(*ast.Ident)
		o := a.r.info.Defs[id]
		if o == nil || pinned[o] {
			return false
		}
		field, _, _ := types.LookupFieldOrMethod(cfg, true, o.Pkg(), o.Name())
		_, isVar := field.(*types.Var)
		return o.Parent() == root && o.Exported() || field == o && isVar
	}, "exported name or core.Config field outside the pinned surface", "the library has one API and the solver one objective")
}
