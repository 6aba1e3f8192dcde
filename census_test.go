package bgl

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// censusSection is the README section every settable value has a row
// in.
const censusSection = "## Options, and why each exists"

// TestKnobCensus is the "no knob without a measured reason" guard: it
// parses the sources for every exported With* option, every
// ClusterConfig and graphd.Config field and every command's flags, and
// requires each to be named in the first cell of a README census
// row whose other cells — where it comes from, where a non-default
// value is measured, its test — are filled in. A row that names
// something the sources no longer define fails too, so the table cannot
// outlive a deletion.
func TestKnobCensus(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	want := map[string]bool{}
	for _, path := range []string{"options.go", "bgl.go", "observe.go", "internal/graphd/client.go"} {
		for _, d := range parse(path).Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "With") {
				want[fn.Name.Name] = true
			}
		}
	}
	fields := func(path, typ string) {
		n := 0
		ast.Inspect(parse(path), func(node ast.Node) bool {
			ts, ok := node.(*ast.TypeSpec)
			if !ok || ts.Name.Name != typ {
				return true
			}
			for _, f := range ts.Type.(*ast.StructType).Fields.List {
				for _, name := range f.Names {
					want[typ+"."+name.Name] = true
					n++
				}
			}
			return false
		})
		if n == 0 {
			t.Fatalf("%s: struct %s not found", path, typ)
		}
	}
	fields("bgl.go", "ClusterConfig")
	fields("internal/graphd/config.go", "Config")
	flags := func(cmd string) {
		n := 0
		ast.Inspect(parse("cmd/"+cmd+"/main.go"), func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !flagDefiners[sel.Sel.Name] {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			want[cmd+" -"+name] = true
			n++
			return true
		})
		if n == 0 {
			t.Fatalf("cmd/%s: no flag definitions found", cmd)
		}
	}
	for _, cmd := range censusCommands {
		flags(cmd)
	}

	got := censusRows(t)
	var missing, stale []string
	for k := range want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	for k := range got {
		if !want[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("README %q has no row for: %s\n(a knob needs its reason: what motivates it, where a non-default value is measured, its test)",
			censusSection, strings.Join(missing, ", "))
	}
	if len(stale) > 0 {
		t.Errorf("README %q names what the sources no longer define: %s", censusSection, strings.Join(stale, ", "))
	}
}

// TestScheduleChosenInCollective guards "the schedule is collective's
// business": no non-test source of the engine packages may branch on a
// field named Async — in an if condition, a switch tag or a case — so
// every exchange runs one body under both schedules and only
// internal/collective reads Opts.Async. Passing the option on, as in
// collective.Opts{…, Async: e.opts.Async}, is not a branch.
func TestScheduleChosenInCollective(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"internal/bfs", "internal/sssp", "internal/search"} {
		for _, f := range nonTestFiles(t, fset, dir) {
			ast.Inspect(f, func(node ast.Node) bool {
				var exprs []ast.Expr
				switch n := node.(type) {
				case *ast.IfStmt:
					exprs = []ast.Expr{n.Cond}
				case *ast.SwitchStmt:
					exprs = []ast.Expr{n.Tag}
				case *ast.CaseClause:
					exprs = n.List
				}
				for _, e := range exprs {
					if e != nil && readsAsync(e) {
						t.Errorf("%s: branches on Async; the schedule is chosen inside internal/collective", fset.Position(e.Pos()))
					}
				}
				return true
			})
		}
	}
}

// TestOneColumnPhase guards "one column phase for every top-down
// family": the targeted expand's row-need walk (search.Column) and the
// scan's chunk-order bin collector (search.Bins) are written once, in
// internal/search, so no non-test source of a family package may call
// Store2D.NeedRow or declare a method named collect.
func TestOneColumnPhase(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"internal/bfs", "internal/sssp"} {
		for _, f := range nonTestFiles(t, fset, dir) {
			ast.Inspect(f, func(node ast.Node) bool {
				switch n := node.(type) {
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "NeedRow" {
						t.Errorf("%s: calls NeedRow; the targeted expand is search.Column's", fset.Position(n.Pos()))
					}
				case *ast.FuncDecl:
					if n.Recv != nil && n.Name.Name == "collect" {
						t.Errorf("%s: declares a collect method; a scan's bins are collected by search.Bins", fset.Position(n.Pos()))
					}
				}
				return true
			})
		}
	}
}

// TestOneCodecPath guards "one serial wire codec": internal/frontier
// encodes and decodes every payload on the caller's goroutine, so no
// non-test source there may declare Runner or an exported function
// whose name ends in Par, and neither the package nor its tests may
// depend on internal/pool.
func TestOneCodecPath(t *testing.T) {
	fset := token.NewFileSet()
	for _, f := range nonTestFiles(t, fset, "internal/frontier") {
		for _, d := range f.Decls {
			switch n := d.(type) {
			case *ast.FuncDecl:
				if n.Name.IsExported() && strings.HasSuffix(n.Name.Name, "Par") {
					t.Errorf("%s: declares %s; the codec has one serial entry point per operation", fset.Position(n.Pos()), n.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range n.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == "Runner" {
						t.Errorf("%s: declares Runner; the codec takes no worker pool", fset.Position(ts.Pos()))
					}
				}
			}
		}
	}
	// go test puts its own GOROOT/bin first on the test's PATH.
	out, err := exec.Command("go", "list", "-deps", "-test", "./internal/frontier").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	for _, dep := range strings.Fields(string(out)) {
		if dep == "repro/internal/pool" {
			t.Errorf("internal/frontier or its tests depend on %s", dep)
		}
	}
}

// TestOneLevelStep guards "one level step for one source and for a
// batch": in internal/bfs's non-test sources the level's mark, its scan
// kernel and its uni-directional driver are written once — one
// declaration named mark, one type with a Chunk method (the scan part
// search.Scan runs) — and only driveUni and driveBidir poll for
// cancellation. Each declaration beyond the first, in file order, is
// named.
func TestOneLevelStep(t *testing.T) {
	fset := token.NewFileSet()
	files := nonTestFiles(t, fset, "internal/bfs")
	sort.Slice(files, func(i, j int) bool {
		return fset.Position(files[i].Pos()).Filename < fset.Position(files[j].Pos()).Filename
	})
	var marks, chunks []*ast.FuncDecl
	polls := map[string]bool{"driveUni": true, "driveBidir": true}
	for _, f := range files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			switch {
			case fn.Name.Name == "mark":
				marks = append(marks, fn)
			case fn.Name.Name == "Chunk" && fn.Recv != nil:
				chunks = append(chunks, fn)
			}
			if fn.Body == nil || polls[fn.Name.Name] {
				continue
			}
			ast.Inspect(fn.Body, func(node ast.Node) bool {
				if call, ok := node.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Poll" {
						t.Errorf("%s: %s polls for cancellation; only driveUni and driveBidir drive levels", fset.Position(call.Pos()), declName(fn))
					}
				}
				return true
			})
		}
	}
	if len(marks) == 0 || len(chunks) == 0 {
		t.Fatalf("internal/bfs: %d mark declarations and %d Chunk methods, want one of each", len(marks), len(chunks))
	}
	for _, fn := range marks[1:] {
		t.Errorf("%s: declares %s, a second mark; one source and a batch mark through one", fset.Position(fn.Pos()), declName(fn))
	}
	for _, fn := range chunks[1:] {
		t.Errorf("%s: declares %s, a second scan kernel; one source and a batch scan through one", fset.Position(fn.Pos()), declName(fn))
	}
}

// testOnlyAllowed are the exported internal/ names no non-test source
// outside bench/ names, each kept for its reason.
var testOnlyAllowed = map[string]string{
	"collective.FoldAsync":      "the perf lab's collective probe times it (bench/probes.go)",
	"collective.TwoPhaseExpand": "the perf lab's collective probe times it (bench/probes.go)",
	"collective.TwoPhaseFold":   "the perf lab's collective probe times it (bench/probes.go)",
	"comm.NewMesh":              "the perf lab's comm probe builds its mesh with it (bench/probes.go)",
	"graph.BellmanFord":         "the second SSSP oracle internal/sssp's tests check Dijkstra against",
}

// TestNoTestOnlySurface guards "no surface that only tests and the lab
// call": every exported top-level func, type, var and const of an
// internal/ package must be named by some non-test source outside
// bench/ — through its import selector, or as a same-package
// identifier other than its own declaration. Methods are not counted.
// The names that fail are listed; testOnlyAllowed holds the exceptions.
func TestNoTestOnlySurface(t *testing.T) {
	fset := token.NewFileSet()
	type file struct {
		pkg string // the internal/ package name, or "" outside internal/
		ast *ast.File
	}
	var files []file
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkg := ""
		if dir := filepath.ToSlash(filepath.Dir(path)); strings.HasPrefix(dir, "internal/") {
			pkg = strings.TrimPrefix(dir, "internal/")
		}
		files = append(files, file{pkg, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]token.Pos{} // "pkg.Name" → declaration
	decls := map[*ast.Ident]bool{}     // the declaring identifiers
	for _, f := range files {
		if f.pkg == "" {
			continue
		}
		declare := func(id *ast.Ident) {
			decls[id] = true
			if id.IsExported() {
				declared[f.pkg+"."+id.Name] = id.Pos()
			}
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declare(d.Name)
				} else {
					decls[d.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declare(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(id)
						}
					}
				}
			}
		}
	}

	named := map[string]bool{}
	for _, f := range files {
		imports := map[string]string{} // local name → internal package
		for _, imp := range f.ast.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			pkg, ok := strings.CutPrefix(path, "repro/internal/")
			if !ok {
				continue
			}
			name := pkg
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = pkg
		}
		// A selected name is an import member, a field or a method; a
		// field's own name declares nothing at top level.
		skip := map[*ast.Ident]bool{}
		ast.Inspect(f.ast, func(node ast.Node) bool {
			switch n := node.(type) {
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if pkg, ok := imports[x.Name]; ok {
						named[pkg+"."+n.Sel.Name] = true
					}
				}
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			}
			return true
		})
		if f.pkg == "" {
			continue
		}
		ast.Inspect(f.ast, func(node ast.Node) bool {
			if id, ok := node.(*ast.Ident); ok && !skip[id] && !decls[id] {
				named[f.pkg+"."+id.Name] = true
			}
			return true
		})
	}

	var unnamed []string
	for name, pos := range declared {
		if named[name] {
			if _, ok := testOnlyAllowed[name]; ok {
				t.Errorf("%s: %s is named outside tests and bench/; drop it from testOnlyAllowed", fset.Position(pos), name)
			}
			continue
		}
		if _, ok := testOnlyAllowed[name]; !ok {
			unnamed = append(unnamed, name)
		}
	}
	for name := range testOnlyAllowed {
		if _, ok := declared[name]; !ok {
			t.Errorf("testOnlyAllowed names %s, which no internal/ package declares", name)
		}
	}
	sort.Strings(unnamed)
	for _, name := range unnamed {
		t.Errorf("%s: exported %s is named by no non-test source outside bench/; delete it or move it into a test file", fset.Position(declared[name]), name)
	}
}

// declName names a function, or a method by its receiver type.
func declName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	return receiverType(fn) + "." + fn.Name.Name
}

// TestOneEngineQueue guards "one engine queue in graphd": queries of
// every kind wait in the batcher's one queue, so no non-test source of
// internal/graphd may receive from an engines channel outside
// batcher.dispatch (the dispatcher's lease) and Server.sweepBFS (a
// share's one retry), and Server may not hold a chan of funcs — a
// second queue of jobs beside the batcher.
func TestOneEngineQueue(t *testing.T) {
	fset := token.NewFileSet()
	leases := map[string]bool{"batcher.dispatch": true, "Server.sweepBFS": true}
	for _, f := range nonTestFiles(t, fset, "internal/graphd") {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil && leases[receiverType(fn)+"."+fn.Name.Name] {
				continue
			}
			ast.Inspect(d, func(node ast.Node) bool {
				switch n := node.(type) {
				case *ast.UnaryExpr:
					if n.Op == token.ARROW && namedEngines(n.X) {
						t.Errorf("%s: receives from an engines channel; only batcher.dispatch and Server.sweepBFS lease engines", fset.Position(n.Pos()))
					}
				case *ast.TypeSpec:
					st, ok := n.Type.(*ast.StructType)
					if !ok || n.Name.Name != "Server" {
						return true
					}
					for _, field := range st.Fields.List {
						if ch, ok := field.Type.(*ast.ChanType); ok {
							if _, ok := ch.Value.(*ast.FuncType); ok {
								t.Errorf("%s: Server holds a chan of funcs; every query waits in the batcher's queue", fset.Position(field.Pos()))
							}
						}
					}
				}
				return true
			})
		}
	}
}

// TestOneWayToRunAnExhibit guards "one way to make an exhibit's
// number": the non-test sources of internal/harness reach the engines
// only through the public API, so the only packages of this module
// they may import are repro itself and repro/internal/analytic (the
// closed-form expectations the exhibits print beside their runs).
func TestOneWayToRunAnExhibit(t *testing.T) {
	fset := token.NewFileSet()
	allowed := map[string]bool{"repro": true, "repro/internal/analytic": true}
	for _, f := range nonTestFiles(t, fset, "internal/harness") {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if (path == "repro" || strings.HasPrefix(path, "repro/")) && !allowed[path] {
				t.Errorf("%s: imports %s; an exhibit runs through the public Cluster API", fset.Position(imp.Pos()), path)
			}
		}
	}
}

// TestOneFrontierSet guards "one frontier set type": internal/frontier's
// non-test sources declare one type with an Iterate method (the set,
// Adaptive, which switches between its id queue and its bitmap itself),
// no interface, and none of the retired representation surface — a Kind
// to ask which form a set is in, an Unwrap to reach it, conversions or a
// Union between forms, or a constructor that takes the switch occupancy.
func TestOneFrontierSet(t *testing.T) {
	fset := token.NewFileSet()
	files := nonTestFiles(t, fset, "internal/frontier")
	sort.Slice(files, func(i, j int) bool {
		return fset.Position(files[i].Pos()).Filename < fset.Position(files[j].Pos()).Filename
	})
	retired := map[string]bool{"Kind": true, "Unwrap": true, "ToDense": true, "ToSparse": true, "Union": true, "NewAdaptive": true}
	var sets []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil && d.Name.Name == "Iterate" {
					sets = append(sets, d)
				}
				if d.Recv == nil && retired[d.Name.Name] {
					t.Errorf("%s: declares %s; a frontier's form is its own business", fset.Position(d.Pos()), d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if _, ok := ts.Type.(*ast.InterfaceType); ok {
						t.Errorf("%s: declares interface %s; there is one frontier set type", fset.Position(ts.Pos()), ts.Name.Name)
					}
					if retired[ts.Name.Name] {
						t.Errorf("%s: declares type %s; a frontier's form is its own business", fset.Position(ts.Pos()), ts.Name.Name)
					}
				}
			}
		}
	}
	if len(sets) == 0 {
		t.Fatal("internal/frontier: no type with an Iterate method")
	}
	for _, fn := range sets[1:] {
		t.Errorf("%s: declares %s, a second frontier set type", fset.Position(fn.Pos()), declName(fn))
	}
}

// receiverType names the type a method is declared on, a generic
// type without its parameters.
func receiverType(fn *ast.FuncDecl) string {
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// namedEngines reports whether e is a variable or field named engines.
func namedEngines(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == "engines"
	case *ast.SelectorExpr:
		return e.Sel.Name == "engines"
	}
	return false
}

// nonTestFiles parses the non-test sources of the package in dir.
func nonTestFiles(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("%s: no package found", dir)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	return files
}

// readsAsync reports whether e reads a field named Async.
func readsAsync(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(node ast.Node) bool {
		if sel, ok := node.(*ast.SelectorExpr); ok && sel.Sel.Name == "Async" {
			found = true
		}
		return !found
	})
	return found
}

// censusCommands are the commands whose flag definitions the census
// guards: every cmd/ directory.
var censusCommands = []string{"bfsrun", "graphd", "bfsbench", "graphload", "graphgen", "tracecheck"}

// flagDefiners are the methods of package flag and of a FlagSet that
// define a flag named by their first argument.
var flagDefiners = map[string]bool{
	"Bool": true, "Int": true, "Int64": true, "Uint": true, "Uint64": true,
	"String": true, "Float64": true, "Duration": true,
}

var (
	censusOption = regexp.MustCompile(`\bWith[A-Z]\w*`)
	censusField  = regexp.MustCompile(`\b(ClusterConfig|Config)\.[A-Z]\w*`)
	// A backticked span that is a command's flag list: `bfsrun -n`, or a
	// bare `-k` continuing the command named before it in the cell.
	censusSpan = regexp.MustCompile("`(?:(" + strings.Join(censusCommands, "|") + ") )?(-[a-z][a-z0-9-]*)`")
)

// censusRows returns the names the census tables' first cells carry:
// "WithWire", "Config.Replicas", "bfsrun -wire". Every row must have
// its four cells filled in.
func censusRows(t *testing.T) map[string]bool {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, body, ok := strings.Cut(string(readme), "\n"+censusSection+"\n")
	if !ok {
		t.Fatalf("README has no %q section", censusSection)
	}
	if next := strings.Index(body, "\n## "); next >= 0 {
		body = body[:next]
	}
	// The table from this heading on lists what is no longer settable.
	body, _, _ = strings.Cut(body, "\n### What is a constant")
	got := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue // prose, table headers and separators
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 4 {
			t.Errorf("census row has %d cells, want knob | from | measured | test:\n%s", len(cells), line)
			continue
		}
		for i, c := range cells {
			if strings.TrimSpace(c) == "" {
				t.Errorf("census row has an empty cell %d:\n%s", i+1, line)
			}
		}
		first := cells[0]
		for _, m := range censusOption.FindAllString(first, -1) {
			got[m] = true
		}
		for _, m := range censusField.FindAllString(first, -1) {
			got[m] = true
		}
		cmd := ""
		for _, m := range censusSpan.FindAllStringSubmatch(first, -1) {
			if m[1] != "" {
				cmd = m[1]
			}
			if cmd == "" {
				t.Errorf("census row lists flag %s before naming its command:\n%s", m[2], line)
				continue
			}
			got[cmd+" "+m[2]] = true
		}
	}
	return got
}
