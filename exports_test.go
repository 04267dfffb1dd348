package deflation_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// callerDirs are the trees whose non-test code counts as a caller. The
// benchmark module imports internal packages too, so a name it still needs
// keeps its place here rather than failing only under `go vet -C benchmark`.
var callerDirs = []string{"cmd", "internal", "benchmark"}

// TestEveryExportHasACaller holds internal/ to exported names that some
// non-test code uses. A name with no such caller must be deleted, or listed
// in testdata/exported_allowlist.txt with its reason; the list only shrinks,
// so a listed name that gains a caller or disappears fails too.
func TestEveryExportHasACaller(t *testing.T) {
	unused, err := unusedExports(".", "deflation", "internal", callerDirs)
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist("testdata/exported_allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	fresh, stale := diffAllowlist(unused, allow)
	for _, name := range fresh {
		t.Errorf("%s: exported, but no non-test code uses it; delete it or give it a caller", name)
	}
	for _, name := range stale {
		t.Errorf("%s: in testdata/exported_allowlist.txt, but it has a caller now or no longer exists; delete the line", name)
	}
}

// TestExportScanFixture runs the scan over a fixture tree whose unused
// exports are known: a func, a method, a type and a const, each used only
// from a test or from inside its own declaration. Against an allowlist, a
// listed name that is used or declared nowhere is stale.
func TestExportScanFixture(t *testing.T) {
	root := filepath.Join("testdata", "exportscan")
	unused, err := unusedExports(root, "fixture", "internal", []string{"cmd", "internal"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib.Limit",
		"internal/lib.Orphan",
		"internal/lib.Orphan.Size",
		"internal/lib.Recursive",
		"internal/lib.Widget.Spin",
		"internal/lib.Widget.Unused",
	}
	if !reflect.DeepEqual(unused, want) {
		t.Fatalf("unused exports:\n got %q\nwant %q", unused, want)
	}

	allow := map[string]bool{
		"internal/lib.Limit":  true,
		"internal/lib.Gone":   true, // declared nowhere
		"internal/lib.Orphan": true,
		"internal/lib.Used":   true, // cmd/app reads it
	}
	fresh, stale := diffAllowlist(unused, allow)
	if want := []string{"internal/lib.Orphan.Size", "internal/lib.Recursive", "internal/lib.Widget.Spin", "internal/lib.Widget.Unused"}; !reflect.DeepEqual(fresh, want) {
		t.Errorf("fresh = %q, want %q", fresh, want)
	}
	if want := []string{"internal/lib.Gone", "internal/lib.Used"}; !reflect.DeepEqual(stale, want) {
		t.Errorf("stale = %q, want %q", stale, want)
	}
}

// TestEveryConfigFieldHasASetter holds internal/ to config fields that some
// non-test code sets. A field that only tests set, or only its own struct's
// defaulting method fills in, has one value in use: make it a constant or
// delete it, or list it in testdata/field_allowlist.txt with its reason. The
// list only shrinks, like the exported-name list.
func TestEveryConfigFieldHasASetter(t *testing.T) {
	unset, err := unsetFields(".", "internal", callerDirs)
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist("testdata/field_allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	fresh, stale := diffAllowlist(unset, allow)
	for _, name := range fresh {
		t.Errorf("%s: config field that no non-test code sets; make it a constant, delete it or give it a setter", name)
	}
	for _, name := range stale {
		t.Errorf("%s: in testdata/field_allowlist.txt, but it has a setter now or no longer exists; delete the line", name)
	}
}

// TestFieldScanFixture runs the field scan over the fixture tree, whose
// config struct has one field set only from a test, one filled in only by
// its own defaulting method, one set by a composite literal in cmd/, one set
// through its address, and one set by an assignment outside its methods
// that the allowlist still lists.
func TestFieldScanFixture(t *testing.T) {
	unset, err := unsetFields(filepath.Join("testdata", "exportscan"), "internal", []string{"cmd", "internal"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"internal/lib.DialConfig.Defaulted", "internal/lib.DialConfig.TestOnly"}; !reflect.DeepEqual(unset, want) {
		t.Fatalf("unset fields:\n got %q\nwant %q", unset, want)
	}

	allow := map[string]bool{
		"internal/lib.DialConfig.TestOnly": true,
		"internal/lib.DialConfig.Assigned": true, // Dial sets it
	}
	fresh, stale := diffAllowlist(unset, allow)
	if want := []string{"internal/lib.DialConfig.Defaulted"}; !reflect.DeepEqual(fresh, want) {
		t.Errorf("fresh = %q, want %q", fresh, want)
	}
	if want := []string{"internal/lib.DialConfig.Assigned"}; !reflect.DeepEqual(stale, want) {
		t.Errorf("stale = %q, want %q", stale, want)
	}
}

// diffAllowlist splits the scan against the allowlist: fresh names are
// unused and not listed, stale ones are listed and not (or no longer) unused.
func diffAllowlist(unused []string, allow map[string]bool) (fresh, stale []string) {
	seen := make(map[string]bool, len(unused))
	for _, name := range unused {
		seen[name] = true
		if !allow[name] {
			fresh = append(fresh, name)
		}
	}
	for name := range allow {
		if !seen[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	return fresh, stale
}

// readAllowlist reads the names of "<name> <reason>" lines; blank lines and
// lines starting with # are skipped, and every entry must give a reason.
func readAllowlist(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s gives no reason", path, n, name)
		}
		allow[name] = true
	}
	return allow, sc.Err()
}

// declKey identifies a top-level declaration: a package-level name, or a
// method "<pkg>.<Type>.<Method>" (whose type is then recv).
type declKey struct {
	name, recv, method string
}

// unusedExports lists, sorted, every exported top-level name and exported
// method declared under root/declDir that no non-test .go file under
// root/callers uses outside its own declaration. Top-level names resolve
// through each file's imports (or its own package); methods match by name.
// Names print as "<dir>.<Name>" and "<dir>.<Type>.<Method>", with dir
// relative to root.
func unusedExports(root, module, declDir string, callers []string) ([]string, error) {
	files, err := parseTrees(root, callers)
	if err != nil {
		return nil, err
	}

	// Declarations under declDir, and every package's top-level names.
	topLevel := make(map[string]map[string]bool) // package dir → names
	var exported []declKey
	for dir, pkgFiles := range files {
		names := make(map[string]bool)
		declared := dir == declDir || strings.HasPrefix(dir, declDir+"/")
		for _, f := range pkgFiles {
			for _, d := range f.Decls {
				for _, u := range units(d) {
					for _, k := range declKeys(dir, u) {
						if k.method == "" {
							names[k.name[len(dir)+1:]] = true
						}
						if declared && isExported(k) {
							exported = append(exported, k)
						}
					}
				}
			}
		}
		topLevel[dir] = names
	}

	uses := make(map[string][]declKey) // use key → declarations it sits in
	for dir, pkgFiles := range files {
		for _, f := range pkgFiles {
			imports := moduleImports(f, module)
			for _, d := range f.Decls {
				for _, u := range units(d) {
					keys := usesIn(u, dir, topLevel[dir], imports)
					for _, in := range declKeys(dir, u) {
						for _, key := range keys {
							uses[key] = append(uses[key], in)
						}
					}
				}
			}
		}
	}

	var unused []string
	for _, k := range exported {
		if !usedOutside(k, uses) {
			unused = append(unused, k.String())
		}
	}
	sort.Strings(unused)
	return unused, nil
}

// moduleImports maps the local name of each package f imports from module
// to its directory relative to the module root.
func moduleImports(f *ast.File, module string) map[string]string {
	imports := make(map[string]string)
	for _, spec := range f.Imports {
		path := strings.Trim(spec.Path.Value, `"`)
		if !strings.HasPrefix(path, module+"/") {
			continue
		}
		local := path[strings.LastIndex(path, "/")+1:]
		if spec.Name != nil {
			local = spec.Name.Name
		}
		imports[local] = strings.TrimPrefix(path, module+"/")
	}
	return imports
}

// parseTrees parses every non-test .go file under root/dirs, skipping
// testdata and dot or underscore directories, keyed by package directory
// relative to root.
func parseTrees(root string, dirs []string) (map[string][]*ast.File, error) {
	fset := token.NewFileSet()
	files := make(map[string][]*ast.File)
	for _, dir := range dirs {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
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
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			rel = filepath.ToSlash(rel)
			files[rel] = append(files[rel], f)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return files, nil
}

func (k declKey) String() string {
	if k.method != "" {
		return k.recv + "." + k.method
	}
	return k.name
}

func isExported(k declKey) bool {
	if k.method != "" {
		return ast.IsExported(k.method)
	}
	return ast.IsExported(k.name[strings.LastIndex(k.name, ".")+1:])
}

// usedOutside reports whether some use of k sits outside k's own
// declaration; uses maps a use's key to the declarations it sits in. A
// type's methods are part of its declaration.
func usedOutside(k declKey, uses map[string][]declKey) bool {
	if k.method != "" {
		for _, in := range uses[k.method] {
			if in != k {
				return true
			}
		}
		return false
	}
	for _, in := range uses[k.name] {
		if in.name != k.name && in.recv != k.name {
			return true
		}
	}
	return false
}

// units splits a top-level declaration into the parts that each declare
// their own names: a func, or each spec of a const, var or type group.
func units(d ast.Decl) []ast.Node {
	switch d := d.(type) {
	case *ast.FuncDecl:
		return []ast.Node{d}
	case *ast.GenDecl:
		nodes := make([]ast.Node, len(d.Specs))
		for i, spec := range d.Specs {
			nodes[i] = spec
		}
		return nodes
	}
	return nil
}

// declKeys lists what one unit declares. A method yields one key whose recv
// is its type; a var or const spec yields one key per name.
func declKeys(dir string, n ast.Node) []declKey {
	switch n := n.(type) {
	case *ast.FuncDecl:
		if n.Recv == nil {
			return []declKey{{name: dir + "." + n.Name.Name}}
		}
		recv := dir + "." + recvType(n.Recv.List[0].Type)
		return []declKey{{name: recv + "." + n.Name.Name, recv: recv, method: n.Name.Name}}
	case *ast.TypeSpec:
		return []declKey{{name: dir + "." + n.Name.Name}}
	case *ast.ValueSpec:
		keys := make([]declKey, len(n.Names))
		for i, id := range n.Names {
			keys[i] = declKey{name: dir + "." + id.Name}
		}
		return keys
	}
	return nil
}

func recvType(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvType(t.X)
	case *ast.IndexExpr:
		return recvType(t.X)
	case *ast.IndexListExpr:
		return recvType(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}

// usesIn lists the references inside one unit by key: "<pkg>.<Name>" for
// a name qualified through an import or an own-package identifier, and the
// bare name for every other selector (a method or field). Identifiers that
// declare something (fields, parameters, := targets, labels) are not uses.
func usesIn(unit ast.Node, dir string, own map[string]bool, imports map[string]string) []string {
	skip := make(map[*ast.Ident]bool)
	var out []string
	ast.Inspect(unit, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			skip[n.Name] = true
		case *ast.TypeSpec:
			skip[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, e := range n.Lhs {
					if id, ok := e.(*ast.Ident); ok {
						skip[id] = true
					}
				}
			}
		case *ast.LabeledStmt:
			skip[n.Label] = true
		case *ast.BranchStmt:
			if n.Label != nil {
				skip[n.Label] = true
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if pkg, ok := imports[x.Name]; ok {
					out = append(out, pkg+"."+n.Sel.Name)
					skip[x] = true
					skip[n.Sel] = true
					return true
				}
			}
			out = append(out, n.Sel.Name)
			skip[n.Sel] = true
		case *ast.Ident:
			if !skip[n] && own[n.Name] {
				out = append(out, dir+"."+n.Name)
			}
		}
		return true
	})
	return out
}

// configShaped reports whether an exported struct's name marks it as a
// bundle of settings.
func configShaped(name string) bool {
	return ast.IsExported(name) && (strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Spec"))
}

// unsetFields lists, sorted as "<dir>.<Type>.<Field>", every exported field
// of a config-shaped struct declared under root/declDir that no non-test
// .go file under root/callers sets. A field is set where its name is a
// composite-literal key, an assignment or inc/dec target, or the operand of
// &; fields match by name, as methods do in unusedExports. A method of a
// config-shaped struct that assigns its own receiver's field (a withDefaults
// that fills in zero values) sets nothing: a field only it writes holds one
// value.
func unsetFields(root, declDir string, callers []string) ([]string, error) {
	files, err := parseTrees(root, callers)
	if err != nil {
		return nil, err
	}
	configs := make(map[string]bool) // "<dir>.<Type>" of every config-shaped struct
	var fields []string
	for dir, pkgFiles := range files {
		declared := dir == declDir || strings.HasPrefix(dir, declDir+"/")
		for _, f := range pkgFiles {
			for _, d := range f.Decls {
				for _, u := range units(d) {
					ts, ok := u.(*ast.TypeSpec)
					if !ok || !configShaped(ts.Name.Name) {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					typ := dir + "." + ts.Name.Name
					configs[typ] = true
					if !declared {
						continue
					}
					for _, fld := range st.Fields.List {
						for _, id := range fld.Names {
							if id.IsExported() {
								fields = append(fields, typ+"."+id.Name)
							}
						}
					}
				}
			}
		}
	}

	set := make(map[string]bool) // field names set somewhere
	for dir, pkgFiles := range files {
		for _, f := range pkgFiles {
			for _, d := range f.Decls {
				self := "" // the receiver, in a method of a config-shaped struct
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					r := fd.Recv.List[0]
					if len(r.Names) == 1 && configs[dir+"."+recvType(r.Type)] {
						self = r.Names[0].Name
					}
				}
				target := func(e ast.Expr) {
					sel, ok := e.(*ast.SelectorExpr)
					if !ok {
						return
					}
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == self {
						return
					}
					set[sel.Sel.Name] = true
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						for _, e := range n.Elts {
							if kv, ok := e.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									set[id.Name] = true
								}
							}
						}
					case *ast.AssignStmt:
						if n.Tok != token.DEFINE {
							for _, e := range n.Lhs {
								target(e)
							}
						}
					case *ast.IncDecStmt:
						target(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							target(n.X)
						}
					}
					return true
				})
			}
		}
	}

	var unset []string
	for _, name := range fields {
		if !set[name[strings.LastIndex(name, ".")+1:]] {
			unset = append(unset, name)
		}
	}
	sort.Strings(unset)
	return unset, nil
}

// TestOneEventPath holds the manager to one event path. Only the fold of an
// event, WALState.apply, counts it: emit applies the events the manager
// makes and replay the journal's records, so a repair that counts around
// emit is an event that no recorder or subscriber sees. Only the folds of
// the event stream switch on its kinds: the counts, the manager's state and
// the simulator's books. Anything else that dispatches on a kind rebuilds a
// transition by hand. And only apply writes the fold's maps: a handler that
// sets a placement itself changes the manager's state without an event.
func TestOneEventPath(t *testing.T) {
	counters, switchers, err := eventPaths(".", "deflation", callerDirs)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"internal/cluster.WALState.apply"}; !reflect.DeepEqual(counters, want) {
		t.Errorf("counts.add is called from %q, want only %q", counters, want)
	}
	if want := []string{"internal/cluster.Counts.add", "internal/cluster.WALState.apply", "internal/cluster.books.apply"}; !reflect.DeepEqual(switchers, want) {
		t.Errorf("a switch on an EventKind sits in %q, want only %q", switchers, want)
	}
	writers, err := foldWriters(".", callerDirs)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"internal/cluster.WALState.apply"}; !reflect.DeepEqual(writers, want) {
		t.Errorf("the fold's maps are written in %q, want only %q", writers, want)
	}
}

// TestEventPathScanFixture runs the event-path scans over a fixture tree
// that counts once around emit, switches on a kind outside its fold,
// through an import, and writes the fold's maps outside apply: through the
// manager's field, and through a local the fold's constructor returned. A
// switch on a plain constant, a test's switch on a kind, and a write to a
// same-named map of another type do not count.
func TestEventPathScanFixture(t *testing.T) {
	root := filepath.Join("testdata", "eventscan")
	counters, switchers, err := eventPaths(root, "fixture", []string{"cmd", "internal"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"internal/cluster.Manager.emit", "internal/cluster.Manager.repair"}; !reflect.DeepEqual(counters, want) {
		t.Errorf("counters = %q, want %q", counters, want)
	}
	if want := []string{"cmd/tool.describe", "internal/cluster.Counts.add"}; !reflect.DeepEqual(switchers, want) {
		t.Errorf("switchers = %q, want %q", switchers, want)
	}
	writers, err := foldWriters(root, []string{"cmd", "internal"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"internal/cluster.Manager.place", "internal/cluster.WALState.apply", "internal/cluster.fresh"}; !reflect.DeepEqual(writers, want) {
		t.Errorf("writers = %q, want %q", writers, want)
	}
}

// foldWriters lists, sorted like eventPaths, the non-test functions under
// root/callers that assign to, delete from or clear a map field of
// WALState (the fold). The scan is syntactic: an expression holds the fold
// when it is a receiver, parameter or var declared as (*)WALState, a local
// assigned from a fold-holding expression, a field declared as
// (*)WALState, a call to a function whose first result is one, or a
// WALState literal.
func foldWriters(root string, callers []string) ([]string, error) {
	files, err := parseTrees(root, callers)
	if err != nil {
		return nil, err
	}
	isFoldType := func(e ast.Expr) bool {
		if star, ok := e.(*ast.StarExpr); ok {
			e = star.X
		}
		switch e := e.(type) {
		case *ast.Ident:
			return e.Name == "WALState"
		case *ast.SelectorExpr:
			return e.Sel.Name == "WALState"
		}
		return false
	}
	mapFields, holders, makers := make(map[string]bool), make(map[string]bool), make(map[string]bool)
	for _, pkgFiles := range files {
		for _, f := range pkgFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					st, ok := n.Type.(*ast.StructType)
					if !ok {
						return true
					}
					for _, field := range st.Fields.List {
						_, isMap := field.Type.(*ast.MapType)
						for _, id := range field.Names {
							if isMap && n.Name.Name == "WALState" {
								mapFields[id.Name] = true
							}
							if isFoldType(field.Type) {
								holders[id.Name] = true
							}
						}
					}
				case *ast.FuncDecl:
					if res := n.Type.Results; res != nil && len(res.List) > 0 && isFoldType(res.List[0].Type) {
						makers[n.Name.Name] = true
					}
				}
				return true
			})
		}
	}

	writeSet := make(map[string]bool)
	for dir, pkgFiles := range files {
		for _, f := range pkgFiles {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				locals := make(map[string]bool)
				for _, fields := range []*ast.FieldList{fd.Recv, fd.Type.Params} {
					if fields == nil {
						continue
					}
					for _, field := range fields.List {
						for _, id := range field.Names {
							locals[id.Name] = isFoldType(field.Type)
						}
					}
				}
				var holds func(e ast.Expr) bool
				holds = func(e ast.Expr) bool {
					switch e := e.(type) {
					case *ast.Ident:
						return locals[e.Name]
					case *ast.SelectorExpr:
						return holders[e.Sel.Name]
					case *ast.StarExpr:
						return holds(e.X)
					case *ast.ParenExpr:
						return holds(e.X)
					case *ast.UnaryExpr:
						return holds(e.X)
					case *ast.CompositeLit:
						return isFoldType(e.Type)
					case *ast.CallExpr:
						switch fn := e.Fun.(type) {
						case *ast.Ident:
							return makers[fn.Name]
						case *ast.SelectorExpr:
							return makers[fn.Sel.Name]
						}
					}
					return false
				}
				// foldMap reports whether e names a map of the fold.
				foldMap := func(e ast.Expr) bool {
					sel, ok := e.(*ast.SelectorExpr)
					return ok && mapFields[sel.Sel.Name] && holds(sel.X)
				}
				key := declKeys(dir, fd)[0].name
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.ValueSpec:
						for i, id := range n.Names {
							locals[id.Name] = (n.Type != nil && isFoldType(n.Type)) || (i < len(n.Values) && holds(n.Values[i]))
						}
					case *ast.AssignStmt:
						for i, lhs := range n.Lhs {
							if ix, ok := lhs.(*ast.IndexExpr); ok && foldMap(ix.X) || foldMap(lhs) {
								writeSet[key] = true
							}
							if id, ok := lhs.(*ast.Ident); ok && i < len(n.Rhs) && holds(n.Rhs[i]) {
								locals[id.Name] = true
							}
						}
					case *ast.CallExpr:
						if fn, ok := n.Fun.(*ast.Ident); ok && (fn.Name == "delete" || fn.Name == "clear") && len(n.Args) > 0 && foldMap(n.Args[0]) {
							writeSet[key] = true
						}
					}
					return true
				})
			}
		}
	}
	return slices.Sorted(maps.Keys(writeSet)), nil
}

// eventPaths lists, sorted as "<dir>.<func>" or "<dir>.<Type>.<Method>",
// the non-test functions under root/callers that count an event (call
// X.counts.add or X.Counts.add) and those that switch on an event kind (a
// case names a constant declared with type EventKind, in its own package
// or through an import of module's).
func eventPaths(root, module string, callers []string) (counters, switchers []string, err error) {
	files, err := parseTrees(root, callers)
	if err != nil {
		return nil, nil, err
	}
	kinds := make(map[string]bool) // "<dir>.<Name>" of every EventKind constant
	for dir, pkgFiles := range files {
		for _, f := range pkgFiles {
			for _, d := range f.Decls {
				for _, u := range units(d) {
					if vs, ok := u.(*ast.ValueSpec); ok {
						if typ, ok := vs.Type.(*ast.Ident); ok && typ.Name == "EventKind" {
							for _, id := range vs.Names {
								kinds[dir+"."+id.Name] = true
							}
						}
					}
				}
			}
		}
	}

	countSet, switchSet := make(map[string]bool), make(map[string]bool)
	for dir, pkgFiles := range files {
		for _, f := range pkgFiles {
			imports := moduleImports(f, module)
			isKind := func(e ast.Expr) bool {
				switch e := e.(type) {
				case *ast.Ident:
					return kinds[dir+"."+e.Name]
				case *ast.SelectorExpr:
					x, ok := e.X.(*ast.Ident)
					return ok && kinds[imports[x.Name]+"."+e.Sel.Name]
				}
				return false
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				key := declKeys(dir, fd)[0].name
				ast.Inspect(fd, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CallExpr:
						if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "add" {
							if x, ok := sel.X.(*ast.SelectorExpr); ok && (x.Sel.Name == "counts" || x.Sel.Name == "Counts") {
								countSet[key] = true
							}
						}
					case *ast.CaseClause:
						for _, e := range n.List {
							if isKind(e) {
								switchSet[key] = true
							}
						}
					}
					return true
				})
			}
		}
	}
	counters = slices.Sorted(maps.Keys(countSet))
	switchers = slices.Sorted(maps.Keys(switchSet))
	return counters, switchers, nil
}
