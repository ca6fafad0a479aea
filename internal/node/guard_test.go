package node

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestCmdMainsDoNotOwnListeners is the structural guard behind the node
// refactor: the cmd binaries are flag→Spec translators, and the listener
// and teardown machinery lives in internal/node ONLY. If a main (or any
// non-test file under cmd/) reacquires a direct http.Server,
// stream.NewServer, net.Listen or a Shutdown call, the drain ordering has
// forked again — the drift this package exists to end. Move the logic
// into internal/node instead.
func TestCmdMainsDoNotOwnListeners(t *testing.T) {
	forbidden := []string{
		"http.Server{",
		"stream.NewServer(",
		"net.Listen(",
		".Shutdown(",
		"httputil.NewSingleHostReverseProxy(",
	}
	cmdDir := filepath.Join("..", "..", "cmd")
	err := filepath.Walk(cmdDir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(raw), "\n") {
			code := line
			if idx := strings.Index(code, "//"); idx >= 0 {
				code = code[:idx]
			}
			for _, pat := range forbidden {
				if strings.Contains(code, pat) {
					t.Errorf("%s:%d: %q — lifecycle machinery belongs in internal/node, not cmd (line: %s)",
						path, i+1, pat, strings.TrimSpace(line))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", cmdDir, err)
	}
}

// TestIngestAndEndpointAreSingleSourced keeps the two ingest paths and the
// three wire endpoints from growing back. The learning-task path — payload
// decode, the admission chain, label absorption — is called from
// internal/ingest only, the global model is updated in internal/server only,
// and a request body is decoded into a TaskRequest or a GradientPush in
// service.Call only. A second call site means a node, a transport or an
// evaluation loop has started re-implementing the path: extend ingest.Core
// or service.Call instead (internal/core's paper-evaluation runs drive a
// server.Server for this reason). The packages that define these functions,
// internal/hashtag (a plain SGD recommender with no server, staleness or
// aggregation) and the bench/perf module (layer timings) are not scanned.
func TestIngestAndEndpointAreSingleSourced(t *testing.T) {
	const ingest, call = "internal/ingest/ingest.go", "internal/service/call.go"
	owners := map[string]string{
		"protocol.DecodeGradientPayload(": ingest,
		".Admit(ctx,":                     ingest,
		".AbsorbWeight(":                  ingest,
		"RecordWeighted(":                 ingest,
		".ApplyGradient(":                 "internal/server/server.go",
	}
	skipped := map[string]bool{
		"internal/protocol": true, "internal/sched": true, "internal/learning": true,
		"internal/hashtag": true, "bench": true, ".git": true,
	}
	request := regexp.MustCompile(`var (\w+) protocol\.(TaskRequest|GradientPush)\b`)
	root := filepath.Join("..", "..")
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if info.IsDir() {
			if skipped[rel] {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		src := string(raw)
		for pat, owner := range owners {
			if n := strings.Count(src, pat); n > 0 && rel != owner || n > 1 {
				t.Errorf("%s: %d call(s) of %q — the one call site is %s", rel, n, pat, owner)
			}
		}
		for _, m := range request.FindAllStringSubmatch(src, -1) {
			if strings.Contains(src, ", &"+m[1]+")") && strings.Contains(src, ".Decode(") && rel != call {
				t.Errorf("%s decodes a request body into a protocol.%s — service.Call (%s) is the one endpoint", rel, m[2], call)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", root, err)
	}
}

// TestServingUnitsAreCompiledOnce keeps a second assembler from growing
// back beside FromSpec. The binaries, the tenant layer and the harness
// declare a Spec and take what it compiles to: none of them builds a
// server, an edge, a pipeline, an admission chain, a tenant unit or an
// Assembly by hand (tests may). And what an unset codec means is protocol.Default's to say:
// no cmd flag defaults to a codec name, and the retired gob+gzip codec is
// not named at all.
func TestServingUnitsAreCompiledOnce(t *testing.T) {
	builders := []string{
		"server.New(", "server.Restore(", "aggtree.New(",
		"pipeline.Build(", "sched.Build(", "node.New(", "node.Assembly{",
		"tenant.Attach(",
	}
	declarers := []string{"cmd/", "internal/tenant/", "internal/loadgen/"}
	gobCodec := regexp.MustCompile(`(?i)gobGzip|x-fleet-gob\+gzip|"gob"`)
	codecDefault := regexp.MustCompile(`(?:String\(|StringVar\([^,]+,)\s*"[^"]*",\s*"(?:flat|json|gob)"`)
	root := filepath.Join("..", "..")
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if info.IsDir() {
			if rel == "bench" || rel == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		src := string(raw)
		for _, m := range gobCodec.FindAllString(src, -1) {
			t.Errorf("%s names the retired gob codec (%s): an unset codec is protocol.Default, a named one protocol.CodecByName", rel, m)
		}
		if strings.HasPrefix(rel, "cmd/") {
			for _, m := range codecDefault.FindAllString(src, -1) {
				t.Errorf("%s: a flag defaults to a codec name (%s): default to \"\", which is protocol.Default", rel, m)
			}
		}
		for _, dir := range declarers {
			if !strings.HasPrefix(rel, dir) {
				continue
			}
			for _, pat := range builders {
				if strings.Contains(src, pat) {
					t.Errorf("%s calls %q: declare a node.Spec and let node.FromSpec assemble it", rel, pat)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", root, err)
	}
}

// TestGobAndGzipStayInPersist keeps the slow self-describing encoders off
// the wire: no non-test file of the module outside internal/persist, whose
// checkpoint format is a gob, imports encoding/gob, and no file at all
// imports compress/gzip (it saved under 10 % of a float64 checkpoint).
func TestGobAndGzipStayInPersist(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if info.IsDir() {
			if rel == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		test := strings.HasSuffix(rel, "_test.go")
		for _, imp := range f.Imports {
			switch p, _ := strconv.Unquote(imp.Path.Value); {
			case p == "compress/gzip":
				t.Errorf("%s imports compress/gzip: nothing in the module compresses with it", rel)
			case p == "encoding/gob" && !test && filepath.Dir(rel) != "internal/persist":
				t.Errorf("%s imports encoding/gob: the wire speaks flat or JSON; only internal/persist may", rel)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", root, err)
	}
}

// TestExperimentsStartNoGoroutines keeps the paper's experiments single
// threaded, so their figures replay bit for bit whatever the scheduler
// does: no shipped file of a package internal/experiments depends on
// (itself included) contains a go statement.
func TestExperimentsStartNoGoroutines(t *testing.T) {
	m := loadModule(t)
	seen := map[string]bool{}
	var visit func(path string)
	visit = func(path string) {
		if seen[path] || m.files[path] == nil {
			return
		}
		seen[path] = true
		for _, f := range m.files[path] {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: go statement in %s, which internal/experiments depends on", m.fset.Position(g.Pos()), path)
				}
				return true
			})
		}
		for _, dep := range m.checked[path].Imports() {
			visit(dep.Path())
		}
	}
	visit("fleet/internal/experiments")
	if !seen["fleet/internal/server"] {
		t.Fatal("internal/experiments no longer reaches internal/server: the guard checks too little")
	}
}

// fmaCheckedPackages are the packages TestNoImplicitFMA compiles: the
// serving path, everything a pushed or pulled byte crosses between the wire
// and the model. The goal is every package of fleet/.
var fmaCheckedPackages = []string{
	"fleet/internal/compress", "fleet/internal/protocol", "fleet/internal/ingest",
	"fleet/internal/server", "fleet/internal/aggtree", "fleet/internal/stream",
	"fleet/internal/worker", "fleet/internal/persist", "fleet/internal/node",
	"fleet/internal/tenant", "fleet/internal/sched", "fleet/internal/service",
	"fleet/internal/pipeline",
}

// fusedOp matches an assembly listing line whose instruction is a fused
// multiply-add or -subtract: arm64's FMADDD/FMSUBD/FNMADDD/FNMSUBD and
// ppc64le's FMADD/FMSUB/FNMADD/FNMSUB (and their single-precision forms).
var fusedOp = regexp.MustCompile(`^\t0x[0-9a-f]+ \d+ \(([^)]*)\)\t(FN?M(?:ADD|SUB)[DS]?)\t`)

// TestNoImplicitFMA keeps the bit-for-bit contract on every GOARCH. The Go
// spec lets a compiler fuse x*y + z into one instruction that rounds once,
// and arm64 and ppc64le do (amd64 does not); an explicit float64(x*y)
// rounds the product and prevents it. The guard cross-compiles the checked
// packages for both with -S and fails on any fused instruction in their
// listings, naming the function and its file:line. A cross-compile needs no
// emulator.
func TestNoImplicitFMA(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"build"}
	for _, pkg := range fmaCheckedPackages {
		args = append(args, "-gcflags="+pkg+"=-S")
	}
	args = append(args, fmaCheckedPackages...)
	for _, arch := range []string{"arm64", "ppc64le"} {
		cmd := exec.Command("go", args...)
		cmd.Dir = root
		cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=%s go %s: %v\n%s", arch, strings.Join(args, " "), err, out)
		}
		fn, listed := "", 0
		for _, line := range strings.Split(string(out), "\n") {
			if name, _, ok := strings.Cut(line, " STEXT"); ok && !strings.HasPrefix(line, "\t") {
				fn = name
				listed++
				continue
			}
			if m := fusedOp.FindStringSubmatch(line); m != nil {
				pos, _ := filepath.Rel(root, m[1])
				t.Errorf("GOARCH=%s: %s in %s at %s: round the product with float64(…)", arch, m[2], fn, pos)
			}
		}
		if listed == 0 {
			t.Fatalf("GOARCH=%s: the build listed no function, so nothing was checked:\n%s", arch, out)
		}
	}
}

// TestSnapshotStorageIsReachedThroughALeaseOnly keeps the proof that a
// recycled buffer is unread the compiler's: a snapshot's parameter storage is
// an unexported field of internal/ingest, and the only exported ways to a
// []float64 there are a counted read (Lease.Params), the publisher's next
// buffer (Core.Buffer, Core.Patched) and, inside RequestTask, a reply that
// either passes its count to the caller's service.Lease or marks the snapshot
// escaped. A new exported accessor, an exported slice field on Snapshot, or a
// snapshot built by hand outside the package would let storage out uncounted.
func TestSnapshotStorageIsReachedThroughALeaseOnly(t *testing.T) {
	root := filepath.Join("..", "..")
	raw, err := os.ReadFile(filepath.Join(root, "internal", "ingest", "ingest.go"))
	if err != nil {
		t.Fatal(err)
	}
	src := string(raw)
	allowed := map[string]bool{
		"func (l *Lease) Params() []float64":                               true,
		"func (c *Core[W]) Buffer() (buf []float64)":                       true,
		"func (c *Core[W]) Patched(d *compress.Sparse) ([]float64, error)": true,
	}
	exported := regexp.MustCompile(`^func (\([^)]*\) )?[A-Z]\w*(\[[^\]]*\])?\([^)]*\) [^{]*\[\]float64[^{]*`)
	for _, line := range strings.Split(src, "\n") {
		if sig := strings.TrimSpace(exported.FindString(line)); sig != "" && !allowed[sig] {
			t.Errorf("internal/ingest exports a new way to parameter storage: %s", sig)
		}
	}
	decl := regexp.MustCompile(`(?s)type Snapshot struct \{(.*?)\n\}`).FindStringSubmatch(src)
	if decl == nil {
		t.Fatal("internal/ingest/ingest.go no longer declares type Snapshot struct")
	}
	if m := regexp.MustCompile(`(?m)^\t[A-Z]\w*\s+(\[\]|\*|map\[)`).FindString(decl[1]); m != "" {
		t.Errorf("ingest.Snapshot has an exported field that shares storage: %q", strings.TrimSpace(m))
	}
	if n := strings.Count(src, "held.keep()"); n != 1 || !strings.Contains(src, "l.Hold(held)") {
		t.Errorf("RequestTask no longer hands a full pull's storage out as exactly one of: a held lease, an escaped snapshot")
	}
	byHand := regexp.MustCompile(`[^*\]]ingest\.(Snapshot|Lease)\{`) // a composite literal, not a []*T{...} of them
	err = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if info.IsDir() {
			if rel == ".git" || rel == "internal/ingest" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if byHand.Match(raw) {
			t.Errorf("%s builds an ingest snapshot by hand: only ingest.Core publishes them", rel)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", root, err)
	}
}

// TestForwardedTaskCallsKeepOrPassThrough: a service.Lease rides in the
// context, so a Service that calls another under its caller's context hands
// the lease on with it. That is right for a layer that only passes the reply
// back up (the endpoint releases after encoding it) and wrong for one that
// keeps the reply — a cache, an edge: the endpoint would release storage the
// keeper still serves from. Every non-test RequestTask call therefore either
// names a context that cannot carry its caller's lease (service.Keeping, a
// fresh context) or is one of the pass-throughs listed here. A new forwarder
// fails this test until it says which it is.
func TestForwardedTaskCallsKeepOrPassThrough(t *testing.T) {
	passThrough := map[string]string{
		"internal/service/call.go":    "svc.RequestTask(ctx, &req)",                                      // the endpoint itself: encodes the reply, then its caller releases
		"internal/service/service.go": "a.next.RequestTask(ctx, req)",                                    // Around: the reply goes back up through the hook
		"internal/server/server.go":   "s.core.RequestTask(ctx, req)",                                    // a node answering from its own core
		"internal/aggtree/node.go":    "n.core.RequestTask(ctx, req)",                                    // likewise
		"internal/loadgen/runner.go":  "s.Load().RequestTask(ctx, req)",                                  // swapService returns what it gets
		"internal/loadgen/tenants.go": "c.inner.RequestTask(service.WithCredentials(ctx, c.creds), req)", // credClient likewise
		"internal/worker/worker.go":   "svc.RequestTask(ctx, &req)",                                      // a worker is the caller: the context is its own
	}
	call := regexp.MustCompile(`[\w.()]+\.RequestTask\(.*\)`)
	leaseFree := regexp.MustCompile(`\.RequestTask\((service\.Keeping\(|context\.(Background|TODO)\(\))`)
	root := filepath.Join("..", "..")
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if info.IsDir() {
			// bench/perf is a module of its own: a client of the wire, never between an endpoint and a core.
			if rel == ".git" || rel == "bench" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(raw), "\n") {
			if idx := strings.Index(line, "//"); idx >= 0 {
				line = line[:idx]
			}
			for _, site := range call.FindAllString(line, -1) {
				if leaseFree.MatchString(site) || passThrough[rel] != "" && strings.Contains(site, passThrough[rel]) {
					continue
				}
				t.Errorf("%s:%d: %s forwards its caller's context, and any service.Lease in it: call under service.Keeping(ctx) if the reply is kept past the call, or list the site here if it is only passed back up",
					rel, i+1, site)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", root, err)
	}
}

// TestFacadeAndKnobsAreWhatIsUsed keeps three deletions deleted. fleet.go
// exports what an examples/ program or README.md names (fleet.X), plus what
// the declaration of such an export names in turn (Chain's Interceptor,
// TinyMNIST's Dataset); anything else is a second, untested way in. The mean
// window is one accumulator: no struct field, JSON key or flag of the root
// module is called "shards", in any case, again (data.PartitionNonIID's
// ShardsPerUser are non-IID data shards, a different word). And an announce
// carries an exact delta or none: the half-precision full-model announce's
// server option, flag and message field do not come back under their old
// names (retired, below). TestConfigFieldsAreSet cannot keep that one out,
// since a flag binding sets a field.
func TestFacadeAndKnobsAreWhatIsUsed(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, filepath.Join(root, "fleet.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]ast.Node{} // exported identifier → what declares it
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				decls[d.Name.Name] = d.Type
			}
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				switch sp := sp.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() {
						decls[sp.Name.Name] = sp.Type
					}
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						if n.IsExported() {
							decls[n.Name] = sp
						}
					}
				}
			}
		}
	}
	users, _ := filepath.Glob(filepath.Join(root, "examples", "*", "main.go"))
	users = append(users, filepath.Join(root, "README.md"))
	named := regexp.MustCompile(`\bfleet\.([A-Z]\w*)`)
	kept := map[string]bool{}
	var queue []string
	keep := func(name string) {
		if _, ok := decls[name]; ok && !kept[name] {
			kept[name] = true
			queue = append(queue, name)
		}
	}
	for _, path := range users {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range named.FindAllStringSubmatch(string(raw), -1) {
			keep(m[1])
		}
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		ast.Inspect(decls[name], func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				keep(id.Name)
			}
			return true
		})
	}
	for name := range decls {
		if !kept[name] {
			t.Errorf("fleet.go exports %s, which no examples/*/main.go or README.md names: delete it", name)
		}
	}

	retired := map[string]string{ // field name in lower case → why it is gone
		"shards":      "the mean window is one accumulator",
		"f16announce": "an announce carries an exact delta or none",
		"paramsf16":   "an announce carries an exact delta or none",
	}
	retiredKey := regexp.MustCompile(`json:"(shards|f16_announce|params_f16)[,"]`)
	retiredFlag := map[string]bool{"shards": true, "f16-announce": true}
	flagFuncs := map[string]bool{"Bool": true, "BoolVar": true, "Int": true, "IntVar": true, "Int64": true, "Int64Var": true, "String": true, "StringVar": true}
	err = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if info.IsDir() {
			if rel == ".git" || rel == "bench" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				for _, id := range n.Names {
					if why := retired[strings.ToLower(id.Name)]; why != "" {
						t.Errorf("%s: a %s field: %s", fset.Position(id.Pos()), id.Name, why)
					}
				}
				if n.Tag != nil {
					if m := retiredKey.FindStringSubmatch(n.Tag.Value); m != nil {
						t.Errorf("%s: a JSON %s key", fset.Position(n.Tag.Pos()), m[1])
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || !flagFuncs[sel.Sel.Name] {
					return true
				}
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if v, _ := strconv.Unquote(lit.Value); retiredFlag[v] {
							t.Errorf("%s: a -%s flag", fset.Position(lit.Pos()), v)
						}
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", root, err)
	}
}

// TestFunctionsStayShort keeps every function body of the code that ships —
// the module's non-test files and bench/perf — at most 150 lines long. A
// long procedure is a sequence of named steps, each one a function a reader
// (or a checker) can find, not another branch of one body. Parsing is
// enough: nothing is type-checked.
func TestFunctionsStayShort(t *testing.T) {
	const limit = 150
	m, err := parseModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range m.paths {
		for _, f := range m.files[path] {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				open, end := m.fset.Position(fn.Body.Lbrace), m.fset.Position(fn.Body.Rbrace)
				if n := end.Line - open.Line; n > limit {
					name := fn.Name.Name
					if fn.Recv != nil && len(fn.Recv.List) == 1 {
						name = strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*") + "." + name
					}
					pos := strings.TrimPrefix(m.fset.Position(fn.Pos()).String(), m.root+string(filepath.Separator))
					t.Errorf("%s: %s has a %d-line body (limit %d): split it into named steps", pos, name, n, limit)
				}
			}
		}
	}
}

// TestInternalExportsAreUsed is the facade guard's twin below the facade.
// Every package-level func, type, var and const of internal/*, and every
// method of a type declared there, must be reachable from code that ships:
// fleet.go, a cmd, an example or the bench/perf module (its own module, which
// imports internal packages and must keep building untouched). Tests do not
// count, and neither does a use inside a declaration that is itself
// unreachable, so a helper of a dead function is reported with it. A method
// needs no caller when its receiver type is reachable and the receiver (T or
// *T, or a type embedding it) implements an interface that declares it: one of
// the module's, one of a standard package the module imports, or error. That
// is how service.Lease.Value serves context.Context, and a node's sink
// ingest.Sink[W].
func TestInternalExportsAreUsed(t *testing.T) {
	allowed := map[string]string{ // at most three, each with its reason
		"stream.Server.Sessions": "the session count a live metrics document is to report",
		"robust.Mean":            "the plain average the robust rules and the retained window are tested against",
	}
	m := loadModule(t)
	root, fset, files, checked, info, paths := m.root, m.fset, m.files, m.checked, m.info, m.paths

	internal := func(p *types.Package) bool { return p != nil && strings.HasPrefix(p.Path(), "fleet/internal/") }
	receiver := func(f *types.Func) *types.TypeName {
		recv := f.Type().(*types.Signature).Recv()
		if recv == nil {
			return nil
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj()
		}
		return nil
	}
	name := func(o types.Object) string {
		if f, ok := o.(*types.Func); ok && receiver(f) != nil {
			return o.Pkg().Name() + "." + receiver(f).Name() + "." + o.Name()
		}
		return o.Pkg().Name() + "." + o.Name()
	}

	// The graph: each declaration of internal/* → the declarations it names.
	// Everything outside internal/*, init funcs, blank declarations and the
	// allowlist are the roots.
	uses := map[types.Object][]types.Object{}
	var decls []types.Object
	live := map[types.Object]bool{}
	var queue []types.Object
	mark := func(o types.Object) {
		if !live[o] {
			live[o] = true
			queue = append(queue, o)
		}
	}
	listed := map[string]bool{}
	unit := func(pkg *types.Package, node ast.Node, objs []types.Object, isRoot bool) {
		var used []types.Object
		ast.Inspect(node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
				o := info.Uses[id]
				if f, ok := o.(*types.Func); ok {
					o = f.Origin() // a method of an instantiated generic type
				}
				used = append(used, o)
			}
			return true
		})
		for _, o := range objs {
			isRoot = isRoot || o == nil || o.Name() == "_"
		}
		if isRoot || !internal(pkg) {
			for _, u := range used {
				mark(u)
			}
			return
		}
		for _, o := range objs {
			uses[o] = used
			decls = append(decls, o)
			if allowed[name(o)] != "" {
				listed[name(o)] = true
				mark(o)
			}
		}
	}
	for _, path := range paths {
		pkg := checked[path]
		for _, f := range files[path] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					unit(pkg, d, []types.Object{info.Defs[d.Name]}, d.Recv == nil && d.Name.Name == "init")
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							unit(pkg, s, []types.Object{info.Defs[s.Name]}, false)
						case *ast.ValueSpec:
							var objs []types.Object
							for _, n := range s.Names {
								objs = append(objs, info.Defs[n])
							}
							unit(pkg, s, objs, false)
						}
					}
				}
			}
		}
	}
	for n := range allowed {
		if !listed[n] {
			t.Errorf("the allowlist names %s, which internal/* no longer declares", n)
		}
	}

	// The interfaces a method may serve without a caller: every interface
	// the module declares or spells out, every one a standard package it
	// imports declares, and error. A generic one is instantiated with the
	// types a candidate's methods give its type parameters.
	var ifaces []*types.Interface
	var generic []*types.Named
	addIface := func(tn *types.TypeName) {
		if tn.IsAlias() || !types.IsInterface(tn.Type()) {
			return
		}
		if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
			generic = append(generic, n)
		} else if i := tn.Type().Underlying().(*types.Interface); i.NumMethods() > 0 {
			ifaces = append(ifaces, i)
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, o := range info.Defs {
		if tn, ok := o.(*types.TypeName); ok {
			addIface(tn)
		}
	}
	for _, tv := range info.Types {
		if i, ok := tv.Type.(*types.Interface); ok && tv.IsType() && i.NumMethods() > 0 {
			ifaces = append(ifaces, i)
		}
	}
	stdSeen := map[string]bool{}
	for _, pkg := range checked {
		for _, imp := range pkg.Imports() {
			if checked[imp.Path()] != nil || stdSeen[imp.Path()] {
				continue
			}
			stdSeen[imp.Path()] = true
			for _, n := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(n).(*types.TypeName); ok {
					addIface(tn)
				}
			}
		}
	}
	instantiate := func(v types.Type, g *types.Named) *types.Interface {
		args := make([]types.Type, g.TypeParams().Len())
		bind := func(want, have *types.Tuple) {
			for k := 0; k < want.Len() && want.Len() == have.Len(); k++ {
				if tp, ok := want.At(k).Type().(*types.TypeParam); ok {
					args[tp.Index()] = have.At(k).Type()
				}
			}
		}
		gi := g.Underlying().(*types.Interface)
		for j := 0; j < gi.NumMethods(); j++ {
			m := gi.Method(j)
			obj, _, _ := types.LookupFieldOrMethod(v, false, m.Pkg(), m.Name())
			f, ok := obj.(*types.Func)
			if !ok {
				return nil
			}
			want, have := m.Type().(*types.Signature), f.Type().(*types.Signature)
			bind(want.Params(), have.Params())
			bind(want.Results(), have.Results())
		}
		for _, a := range args {
			if a == nil {
				return nil
			}
		}
		inst, err := types.Instantiate(nil, g, args, true)
		if err != nil {
			return nil
		}
		return inst.Underlying().(*types.Interface)
	}
	exempt := map[*types.TypeName][]types.Object{}
	serve := func(v types.Type, i *types.Interface) {
		if i == nil || !types.Implements(v, i) {
			return
		}
		for j := 0; j < i.NumMethods(); j++ {
			obj, _, _ := types.LookupFieldOrMethod(v, false, i.Method(j).Pkg(), i.Method(j).Name())
			if f, ok := obj.(*types.Func); ok && internal(f.Pkg()) {
				f = f.Origin()
				exempt[receiver(f)] = append(exempt[receiver(f)], f)
			}
		}
	}
	for _, o := range info.Defs {
		tn, ok := o.(*types.TypeName)
		if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
			continue
		}
		if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
			continue
		}
		for _, v := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
			if types.NewMethodSet(v).Len() == 0 {
				continue
			}
			for _, i := range ifaces {
				serve(v, i)
			}
			for _, g := range generic {
				serve(v, instantiate(v, g))
			}
		}
	}

	for len(queue) > 0 {
		o := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, u := range uses[o] {
			mark(u)
		}
		if tn, ok := o.(*types.TypeName); ok {
			for _, m := range exempt[tn] {
				mark(m)
			}
		}
	}
	for _, o := range decls {
		if !live[o] {
			pos := strings.TrimPrefix(fset.Position(o.Pos()).String(), root+string(filepath.Separator))
			t.Errorf("%s: %s is used by no non-test code outside its own declaration (or only by code that is not used either): delete it", pos, name(o))
		}
	}
}

// TestConfigFieldsAreSet is the guard over what configures the code. Every
// exported field of an exported struct type of internal/* whose name ends in
// Config, Spec or Options, and of the two worker-side clients stream.Client
// and worker.Client, must be set by code that ships: a non-test file names it
// as a composite-literal key, or a file outside the declaring package assigns
// it or takes its address (a flag binding). The package's own
// `if c.X == 0 { c.X = d }` does not count: a field nothing else sets always
// means d, so it is the constant d — declare it as one.
func TestConfigFieldsAreSet(t *testing.T) {
	allowed := map[string]string{ // each with its reason
		"tenant.Config.DefaultBatchSize": "set only by a -tenants file, which JSON decoding sets out of the guard's sight",
		"tenant.Config.Delta":            "set only by a -tenants file (key delta), likewise",
		"tenant.Config.SamplingRatio":    "set only by a -tenants file (key sampling_ratio), likewise",
	}
	m := loadModule(t)
	options := regexp.MustCompile(`(Config|Spec|Options)$`)
	clients := map[string]bool{"stream.Client": true, "worker.Client": true}
	type knob struct {
		owner string // package.Type
		field *types.Var
	}
	var knobs []knob
	for _, path := range m.paths {
		if !strings.HasPrefix(path, "fleet/internal/") {
			continue
		}
		scope := m.checked[path].Scope()
		for _, name := range scope.Names() {
			owner := m.checked[path].Name() + "." + name
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !(options.MatchString(name) || clients[owner]) {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !f.Embedded() {
						knobs = append(knobs, knob{owner, f})
					}
				}
			}
		}
	}

	set := map[*types.Var]bool{}
	fieldOf := func(e ast.Expr) *types.Var {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			e = sel.Sel
		}
		if id, ok := e.(*ast.Ident); ok {
			if v, ok := m.info.Uses[id].(*types.Var); ok && v.IsField() {
				return v.Origin() // a field of an instantiated generic type
			}
		}
		return nil
	}
	for _, path := range m.paths {
		pkg := m.checked[path]
		fromOutside := func(e ast.Expr) {
			if v := fieldOf(e); v != nil && v.Pkg() != pkg {
				set[v] = true
			}
		}
		for _, f := range m.files[path] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr: // a struct literal's key is a bare field name
					if id, ok := n.Key.(*ast.Ident); ok {
						if v := fieldOf(id); v != nil {
							set[v] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						fromOutside(lhs)
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						fromOutside(n.X)
					}
				}
				return true
			})
		}
	}
	for _, k := range knobs {
		name := k.owner + "." + k.field.Name()
		switch {
		case allowed[name] != "" && set[k.field]:
			t.Errorf("the allowlist names %s, which shipped code now sets: drop the entry", name)
		case allowed[name] == "" && !set[k.field]:
			pos := strings.TrimPrefix(m.fset.Position(k.field.Pos()).String(), m.root+string(filepath.Separator))
			t.Errorf("%s: %s is set by no shipped code, only defaulted: make it a constant", pos, name)
		}
		delete(allowed, name)
	}
	for name := range allowed {
		t.Errorf("the allowlist names %s, which is no longer an option field", name)
	}
}

// TestWireFieldsAreRead keeps the learning-task messages free of fields
// nobody reads: every byte a phone sends or receives is a cost. Every field
// of TaskRequest, TaskResponse, GradientPush, PushAck and ModelAnnounce must
// be read by shipped code (the root module plus bench/perf) outside
// internal/protocol/flat.go, whose encoders and decoders touch every field
// by construction. A read is any use of the field but a composite-literal
// key or the target of a plain assignment: a field that is only ever
// written, or only copied from one message into the next, carries nothing.
// Stats and TenantStats are operator documents and are exempt.
func TestWireFieldsAreRead(t *testing.T) {
	m := loadModule(t)
	proto := m.checked["fleet/internal/protocol"]
	fields := map[*types.Var]string{} // field → Message.Field
	for _, name := range []string{"TaskRequest", "TaskResponse", "GradientPush", "PushAck", "ModelAnnounce"} {
		st := proto.Scope().Lookup(name).Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			fields[st.Field(i)] = name + "." + st.Field(i).Name()
		}
	}
	codec := filepath.Join(m.root, "internal", "protocol", "flat.go")
	read := map[*types.Var]bool{}
	for _, path := range m.paths {
		for _, f := range m.files[path] {
			if m.fset.Position(f.Package).Filename == codec {
				continue
			}
			written := map[*ast.Ident]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						written[id] = true
					}
				case *ast.AssignStmt:
					if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
						for _, lhs := range n.Lhs {
							if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
								written[sel.Sel] = true
							}
						}
					}
				case *ast.Ident: // after its parent: a write is marked by now
					if v, ok := m.info.Uses[n].(*types.Var); ok && v.IsField() && !written[n] {
						read[v] = true
					}
				}
				return true
			})
		}
	}
	for f, name := range fields {
		if !read[f] {
			pos := strings.TrimPrefix(m.fset.Position(f.Pos()).String(), m.root+string(filepath.Separator))
			t.Errorf("%s: %s is read by no shipped code outside flat.go: take it off the wire", pos, name)
		}
	}
}

// TestPackageMapsAreNotWritten keeps FLeet's name tables tables: no file
// of the module, tests included, assigns to an element of a package-level
// map variable, deletes from one or clears one. Stages, aggregators,
// admission policies, compressor links, load scenarios and experiments are
// each a map literal that nothing writes after initialisation, looked up
// through internal/spec; a custom component is composed by value. A
// Register* function (and the mutex and init() it needs) fails this guard.
func TestPackageMapsAreNotWritten(t *testing.T) {
	m := loadModule(t)
	conf := types.Config{Importer: m.importer}
	written := func(info *types.Info, e ast.Expr) *types.Var {
		var id *ast.Ident
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			id = x
		case *ast.SelectorExpr:
			id = x.Sel
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
			return nil
		}
		if _, ok := v.Type().Underlying().(*types.Map); !ok {
			return nil
		}
		return v
	}
	scan := func(files []*ast.File, info *types.Info) {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				var targets []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
							targets = append(targets, ix.X)
						}
					}
				case *ast.IncDecStmt:
					if ix, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok {
						targets = append(targets, ix.X)
					}
				case *ast.CallExpr:
					if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) > 0 {
						if b, ok := info.Uses[id].(*types.Builtin); ok && (b.Name() == "delete" || b.Name() == "clear") {
							targets = append(targets, n.Args[0])
						}
					}
				}
				for _, x := range targets {
					if v := written(info, x); v != nil {
						pos := strings.TrimPrefix(m.fset.Position(x.Pos()).String(), m.root+string(filepath.Separator))
						t.Errorf("%s: writes the package-level map %s.%s: make it a table nothing writes after initialisation",
							pos, v.Pkg().Name(), v.Name())
					}
				}
				return true
			})
		}
	}
	// check type-checks a package's test files — beside its shipped files,
	// or as its _test package — against the shipped packages, and scans
	// them.
	check := func(path string, files, tests []*ast.File) {
		if len(tests) == 0 {
			return
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		if _, err := conf.Check(path, m.fset, files, info); err != nil {
			t.Fatalf("type-checking the tests of %s: %v", path, err)
		}
		scan(tests, info)
	}
	tests := 0
	for _, path := range m.paths {
		scan(m.files[path], m.info)
		if path == "fleet/bench/perf" {
			continue // its own module
		}
		dir := filepath.Join(m.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "fleet"), "/")))
		names, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		var in, ext []*ast.File
		for _, name := range names {
			// Only the files a plain go test builds: a //go:build race
			// twin would redeclare its !race sibling.
			if ok, err := build.Default.MatchFile(dir, filepath.Base(name)); err != nil {
				t.Fatal(err)
			} else if !ok {
				continue
			}
			f, err := parser.ParseFile(m.fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			if f.Name.Name == m.checked[path].Name() {
				in = append(in, f)
			} else {
				ext = append(ext, f)
			}
		}
		tests += len(names)
		check(path, append(append([]*ast.File{}, m.files[path]...), in...), in)
		check(path+"_test", ext, ext)
	}
	if tests == 0 {
		t.Fatal("found no test files to check")
	}
}

// module is the code that ships: every non-test file of the root module plus
// bench/perf (its own module, which imports internal packages and must keep
// building untouched), parsed and, for the guards that need types,
// type-checked from source, the standard library included, so a guard needs
// nothing downloaded or prebuilt.
type module struct {
	root    string
	fset    *token.FileSet
	files   map[string][]*ast.File // import path → its non-test files
	paths   []string               // every import path, sorted
	checked map[string]*types.Package
	info    *types.Info
	// importer resolves the module's packages to checked and the standard
	// library from source.
	importer types.Importer
}

// parseModule parses the module's shipped files, without type-checking.
func parseModule() (*module, error) {
	m := &module{
		root:  filepath.Join("..", ".."),
		fset:  token.NewFileSet(),
		files: map[string][]*ast.File{},
	}
	parseDir := func(dir, path string) error {
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			return err
		}
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(m.fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			m.files[path] = append(m.files[path], f)
		}
		return nil
	}
	err := filepath.Walk(m.root, func(path string, info os.FileInfo, err error) error {
		if err != nil || !info.IsDir() {
			return err
		}
		if path == m.root {
			return parseDir(path, "fleet")
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, m.root+string(filepath.Separator)))
		if rel == ".git" || rel == "bench" || info.Name() == "testdata" {
			return filepath.SkipDir
		}
		return parseDir(path, "fleet/"+rel)
	})
	if err == nil {
		err = parseDir(filepath.Join(m.root, "bench", "perf"), "fleet/bench/perf")
	}
	if err != nil {
		return nil, err
	}
	for path := range m.files {
		m.paths = append(m.paths, path)
	}
	sort.Strings(m.paths)
	return m, nil
}

// checkedModule is the module parsed and type-checked in dependency order,
// once per test binary: the guards that need types share it and only read
// it.
var checkedModule = sync.OnceValues(func() (*module, error) {
	m, err := parseModule()
	if err != nil {
		return nil, err
	}
	m.checked = map[string]*types.Package{}
	m.info = &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	std := importer.ForCompiler(m.fset, "source", nil)
	m.importer = importerFunc(func(path string) (*types.Package, error) {
		if p := m.checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})
	conf := types.Config{Importer: m.importer}
	var check func(path string) error
	check = func(path string) error {
		if m.checked[path] != nil {
			return nil
		}
		for _, f := range m.files[path] {
			for _, spec := range f.Imports {
				if dep, _ := strconv.Unquote(spec.Path.Value); m.files[dep] != nil {
					if err := check(dep); err != nil {
						return err
					}
				}
			}
		}
		pkg, err := conf.Check(path, m.fset, m.files[path], m.info)
		if err != nil {
			return fmt.Errorf("type-checking %s: %w", path, err)
		}
		m.checked[path] = pkg
		return nil
	}
	for _, path := range m.paths {
		if err := check(path); err != nil {
			return nil, err
		}
	}
	return m, nil
})

// loadModule returns the shared type-checked module.
func loadModule(t *testing.T) *module {
	t.Helper()
	m, err := checkedModule()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
