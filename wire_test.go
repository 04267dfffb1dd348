package deflation_test

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// wireTables are the declarations that spell the wire: the agent's op
// table, the manager's route table and the paths beside it, and the shard
// router's path constants.
var wireTables = []string{"agentOps", "managerRoutes", "replicaWALPath", "shardMapPath", "adoptPath"}

// TestWireIsDeclaredOnce holds cmd/ and internal/ to one declaration of the
// wire. A "/v1/" string literal may sit only in a top-level declaration
// group that declares a wire table: every other program reaches a route
// through its row, a mux mount through cluster.WirePrefix. And each
// Endpoint row has exactly one client method, the one function that calls
// its Call, so a route that loses its last sender leaves an exported method
// with no caller, which TestEveryExportHasACaller reports. benchmark/
// spells its own paths until its driver moves onto the client.
func TestWireIsDeclaredOnce(t *testing.T) {
	literals, senders, err := wireScan(".", []string{"cmd", "internal"}, wireTables)
	if err != nil {
		t.Fatal(err)
	}
	for _, lit := range literals {
		t.Errorf("%s: a wire path outside the route tables; call its row's client method", lit)
	}
	if len(senders) == 0 {
		t.Fatal("found no Endpoint rows")
	}
	for _, row := range wireFindings(senders) {
		t.Errorf("%s: Call is made from %q, want exactly one client method", row, senders[row])
	}
}

// TestWireScanFixture runs the wire scan over a fixture tree with a path
// spelled in a program, a pattern spelled in a program, and a row declared
// outside the tables; a row no method calls, one two methods call and one
// a plain function calls. Literals in the tables' groups and in tests pass.
func TestWireScanFixture(t *testing.T) {
	literals, senders, err := wireScan(filepath.Join("testdata", "wirescan"), []string{"cmd", "internal"}, []string{"routes", "statePath"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{`cmd/app.main "/v1/vms"`, `cmd/app.main "GET /v1/state"`,
		`internal/api.stray "/v1/stray"`}; !reflect.DeepEqual(literals, want) {
		t.Errorf("literals:\n got %q\nwant %q", literals, want)
	}
	want := map[string][]string{
		"internal/api.helped": {"internal/api.get"},
		"internal/api.launch": {"internal/api.Client.Launch"},
		"internal/api.orphan": nil,
		"internal/api.stray":  {"internal/api.Client.Stray"},
		"internal/api.twice":  {"internal/api.Client.Nodes", "internal/api.Client.NodesAgain"},
	}
	if !reflect.DeepEqual(senders, want) {
		t.Errorf("senders:\n got %q\nwant %q", senders, want)
	}
	if got, want := wireFindings(senders), []string{"internal/api.helped", "internal/api.orphan", "internal/api.twice"}; !reflect.DeepEqual(got, want) {
		t.Errorf("findings = %q, want %q", got, want)
	}
}

// wireFindings lists, sorted, the rows whose Call is not made from exactly
// one method, "<dir>.<Type>.<Method>".
func wireFindings(senders map[string][]string) []string {
	var bad []string
	for row, fns := range senders {
		if len(fns) != 1 || strings.Count(fns[0][strings.LastIndex(fns[0], "/")+1:], ".") != 2 {
			bad = append(bad, row)
		}
	}
	sort.Strings(bad)
	return bad
}

// wireScan parses the non-test files under root/dirs. It lists, sorted as
// `<dir>.<decl> "<literal>"`, every string literal holding "/v1/" outside a
// top-level declaration group that declares one of tables. And it maps each
// Endpoint row, a package-level var initialized to &Endpoint[...]{...} (or
// a package-qualified Endpoint), as "<dir>.<row>", to the functions of its
// package that call its Call method, sorted.
func wireScan(root string, dirs, tables []string) (literals []string, senders map[string][]string, err error) {
	files, err := parseTrees(root, dirs)
	if err != nil {
		return nil, nil, err
	}
	isTable := make(map[string]bool, len(tables))
	for _, name := range tables {
		isTable[name] = true
	}
	senders = make(map[string][]string)
	for dir, pkgFiles := range files {
		rows := make(map[string]bool)
		for _, f := range pkgFiles {
			for _, d := range f.Decls {
				if declaresTable(d, isTable) {
					continue
				}
				for _, u := range units(d) {
					keys := declKeys(dir, u)
					if len(keys) == 0 {
						continue
					}
					ast.Inspect(u, func(n ast.Node) bool {
						if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
							if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, "/v1/") {
								literals = append(literals, keys[0].String()+" "+lit.Value)
							}
						}
						return true
					})
				}
			}
			for _, d := range f.Decls {
				for _, u := range units(d) {
					if vs, ok := u.(*ast.ValueSpec); ok {
						for i, id := range vs.Names {
							if i < len(vs.Values) && isEndpointLit(vs.Values[i]) {
								rows[id.Name] = true
								senders[dir+"."+id.Name] = nil
							}
						}
					}
				}
			}
		}
		for _, f := range pkgFiles {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				called := make(map[string]bool)
				ast.Inspect(fd, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Call" {
						if x, ok := sel.X.(*ast.Ident); ok && rows[x.Name] {
							called[x.Name] = true
						}
					}
					return true
				})
				for row := range called {
					senders[dir+"."+row] = append(senders[dir+"."+row], declKeys(dir, fd)[0].String())
				}
			}
		}
	}
	sort.Strings(literals)
	for _, fns := range senders {
		sort.Strings(fns)
	}
	return literals, senders, nil
}

// declaresTable reports whether a top-level declaration group declares
// one of the tables.
func declaresTable(d ast.Decl, isTable map[string]bool) bool {
	gd, ok := d.(*ast.GenDecl)
	if !ok {
		return false
	}
	for _, spec := range gd.Specs {
		if vs, ok := spec.(*ast.ValueSpec); ok {
			for _, id := range vs.Names {
				if isTable[id.Name] {
					return true
				}
			}
		}
	}
	return false
}

// isEndpointLit reports whether e is &Endpoint[...]{...}, the Endpoint
// named bare or through a package.
func isEndpointLit(e ast.Expr) bool {
	u, ok := e.(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return false
	}
	cl, ok := u.X.(*ast.CompositeLit)
	if !ok {
		return false
	}
	var typ ast.Expr
	switch t := cl.Type.(type) {
	case *ast.IndexExpr:
		typ = t.X
	case *ast.IndexListExpr:
		typ = t.X
	default:
		return false
	}
	switch t := typ.(type) {
	case *ast.Ident:
		return t.Name == "Endpoint"
	case *ast.SelectorExpr:
		return t.Sel.Name == "Endpoint"
	}
	return false
}
