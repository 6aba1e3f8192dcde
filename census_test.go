package bgl

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
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
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkgs) == 0 {
			t.Fatalf("%s: no package found", dir)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
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
