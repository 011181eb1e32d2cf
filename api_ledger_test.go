package ppanns_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestAPILedger holds every exported name declared under internal/ (function,
// method, type, constant and variable) to a caller that ships, or to a row of
// README's API ledger that gives one of four reasons for keeping it.
//
// A caller that ships is non-test code outside the name's own package and
// outside benchmark/. Any package's tests count as callers of
// internal/kerneltest, which exists only for tests. A package-level name is
// matched through each file's resolved imports (pq.Build does not make
// index.Build used). A method is matched by name alone, whatever its
// receiver, because receivers cannot be resolved without go/types: the check
// is a lower bound, and a method can look used when only a namesake is
// called. A type named in the signature, the exported fields or the
// interface methods of a name that ships (or has a row) ships with it.
//
// Each row's reason is checked, not just stated:
//   - benchmark: a file under benchmark/ names it, and the benchmark's own
//     change decides its fate;
//   - test infrastructure: the tests of another package name it;
//   - interface: it is a method, and an interface declared in this module or
//     one of the standard interfaces below requires a method of its name;
//   - error contract: it is an error variable or an error type (one with an
//     Error method) that some code matches with errors.Is or errors.As.
//
// A row also fails when its name already has a caller that ships, or when
// no such name is declared.
func TestAPILedger(t *testing.T) {
	m := parseModule(t)
	rows := apiLedgerRows(t)

	shipping := map[string]bool{}
	for key, d := range m.decls {
		if m.named(d, func(f *srcFile) bool { return f.ships(d.pkg) }) {
			shipping[key] = true
		}
	}
	m.close(shipping)

	kept := map[string]bool{}
	for key := range shipping {
		kept[key] = true
	}
	for _, r := range rows {
		d, ok := m.decls[r.name]
		if !ok {
			t.Errorf("API ledger: row for %s, which no non-test file under internal/ declares", r.name)
			continue
		}
		if shipping[r.name] {
			t.Errorf("API ledger: %s has a caller that ships; drop its row", r.name)
			continue
		}
		if why := m.checkReason(d, r.reason); why != "" {
			t.Errorf("API ledger: %s: %s", r.name, why)
		}
		kept[r.name] = true
	}
	m.close(kept)

	var missing []string
	for key, d := range m.decls {
		if !kept[key] {
			missing = append(missing, key+" ("+d.pos+") is "+m.where(d))
		}
	}
	sort.Strings(missing)
	for _, s := range missing {
		t.Errorf("%s: delete it, un-export it, move it into a test, or give it a row in README's API ledger", s)
	}
	t.Logf("%d exported names under internal/: %d ship, %d kept by a ledger row", len(m.decls), len(shipping), len(rows))
}

// stdInterfaces are the standard library's interface methods an "interface"
// row may name, each with the interface that requires it.
var stdInterfaces = map[string]string{
	"Error":  "error",
	"Unwrap": "errors.Unwrap",
	"Is":     "errors.Is",
	"String": "fmt.Stringer",
	"Len":    "sort.Interface",
	"Less":   "sort.Interface",
	"Swap":   "sort.Interface",
	"Push":   "heap.Interface",
	"Pop":    "heap.Interface",
	"Accept": "net.Listener",
	"Addr":   "net.Listener",
	"Close":  "io.Closer",
	"Read":   "io.Reader",
	"Write":  "io.Writer",
}

// srcFile is one parsed .go file of the module.
type srcFile struct {
	path    string // slash-separated, relative to the module root
	dir     string // its package's directory
	test    bool
	imports map[string]string // local name → import path
	pkgRefs map[string]bool   // "dir.Name" for each pkg.Name it names
	sels    map[string]bool   // every other selector's name (method matching)
	idents  map[string]bool   // every bare identifier, declarations excluded
	callsAs bool              // it calls errors.As
}

// ships reports whether f is a caller that ships for a name of package dir.
func (f *srcFile) ships(dir string) bool {
	if f.dir == dir {
		return false
	}
	switch {
	case dir == "internal/kerneltest":
		return true
	case f.test:
		return false
	default:
		return !strings.HasPrefix(f.path, "benchmark/")
	}
}

// apiDecl is one exported name declared under internal/.
type apiDecl struct {
	pkg    string // its package's directory
	name   string // the bare name; a method's own name
	method bool
	isType bool
	isErr  bool       // an Err… error variable, or a type with an Error method
	types  []ast.Expr // type expressions of its signature or exported fields
	file   *srcFile
	pos    string
}

type module struct {
	files      []*srcFile
	decls      map[string]*apiDecl // "vec.Name" or "vec.Type.Method" → decl
	ifaceNames map[string]bool     // methods of interfaces declared in the module
	errTypes   map[string]bool     // "dir.Type" of types with an Error method
	matched    map[string]bool     // "dir.Name" named inside errors.Is/As
}

func parseModule(t *testing.T) *module {
	t.Helper()
	m := &module{decls: map[string]*apiDecl{}, ifaceNames: map[string]bool{}, errTypes: map[string]bool{}, matched: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if name := e.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		af, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		f := &srcFile{path: path, dir: filepath.ToSlash(filepath.Dir(path)), test: strings.HasSuffix(path, "_test.go"),
			imports: map[string]string{}, pkgRefs: map[string]bool{}, sels: map[string]bool{}, idents: map[string]bool{}}
		m.scan(f, af, fset)
		m.files = append(m.files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.decls) == 0 {
		t.Fatal("no exported name found under internal/")
	}
	for _, d := range m.decls {
		if d.isType && m.errTypes[d.pkg+"."+d.name] {
			d.isErr = true
		}
	}
	return m
}

// scan records f's imports and references, and, for a non-test file under
// internal/, its exported declarations.
func (m *module) scan(f *srcFile, af *ast.File, fset *token.FileSet) {
	for _, imp := range af.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := p[strings.LastIndex(p, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		f.imports[name] = p
	}
	// pkgDir maps an import path of this module to its directory.
	pkgDir := func(x ast.Expr) (string, bool) {
		id, ok := x.(*ast.Ident)
		if !ok {
			return "", false
		}
		p, ok := f.imports[id.Name]
		if !ok || !strings.HasPrefix(p, "ppanns/") {
			return "", ok
		}
		return strings.TrimPrefix(p, "ppanns/"), true
	}
	declared := map[*ast.Ident]bool{}
	ast.Inspect(af, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if dir, ok := pkgDir(n.X); ok {
				if dir != "" {
					f.pkgRefs[dir+"."+n.Sel.Name] = true
				}
				return false
			}
			f.sels[n.Sel.Name] = true
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Is" || sel.Sel.Name == "As") && f.imports[exprName(sel.X)] == "errors" && len(n.Args) == 2 {
				f.callsAs = f.callsAs || sel.Sel.Name == "As"
				for _, a := range n.Args[1:] {
					ast.Inspect(a, func(n ast.Node) bool {
						if sel, ok := n.(*ast.SelectorExpr); ok {
							if dir, ok := pkgDir(sel.X); ok && dir != "" {
								m.matched[dir+"."+sel.Sel.Name] = true
							}
						}
						if id, ok := n.(*ast.Ident); ok {
							m.matched[f.dir+"."+id.Name] = true
						}
						return true
					})
				}
			}
		case *ast.InterfaceType:
			for _, fld := range n.Methods.List {
				for _, id := range fld.Names {
					m.ifaceNames[id.Name] = true
				}
			}
		case *ast.FuncDecl:
			declared[n.Name] = true
		case *ast.TypeSpec:
			declared[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				declared[id] = true
			}
		case *ast.Ident:
			if !declared[n] {
				f.idents[n.Name] = true
			}
		}
		return true
	})
	for _, dd := range af.Decls {
		if fd, ok := dd.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "Error" && !f.test {
			m.errTypes[f.dir+"."+recvName(fd.Recv.List[0].Type)] = true
		}
	}
	if f.test || !strings.HasPrefix(f.dir, "internal/") {
		return
	}
	add := func(key, name string, method bool, id *ast.Ident, types ...ast.Expr) {
		m.decls[key] = &apiDecl{pkg: f.dir, name: name, method: method, types: types, file: f, pos: fset.Position(id.Pos()).String()}
	}
	label := strings.TrimPrefix(f.dir, "internal/")
	for _, dd := range af.Decls {
		switch dd := dd.(type) {
		case *ast.FuncDecl:
			if !dd.Name.IsExported() {
				continue
			}
			if dd.Recv == nil {
				add(label+"."+dd.Name.Name, dd.Name.Name, false, dd.Name, dd.Type)
			} else {
				add(label+"."+recvName(dd.Recv.List[0].Type)+"."+dd.Name.Name, dd.Name.Name, true, dd.Name, dd.Type)
			}
		case *ast.GenDecl:
			var last ast.Expr // a constant without a type takes the previous one's
			for _, spec := range dd.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						add(label+"."+s.Name.Name, s.Name.Name, false, s.Name, typeParts(s)...)
						m.decls[label+"."+s.Name.Name].isType = true
					}
				case *ast.ValueSpec:
					if s.Type != nil || len(s.Values) > 0 {
						last = s.Type
					}
					for i, id := range s.Names {
						if !id.IsExported() {
							continue
						}
						add(label+"."+id.Name, id.Name, false, id, last)
						if dd.Tok == token.VAR && strings.HasPrefix(id.Name, "Err") && i < len(s.Values) {
							m.decls[label+"."+id.Name].isErr = isErrorValue(s.Values[i])
						}
					}
				}
			}
		}
	}
}

// typeParts returns the type expressions a type declaration exposes: its
// type parameters, and for a struct its exported and embedded fields, for
// an interface its methods and embedded interfaces, else the type itself.
func typeParts(s *ast.TypeSpec) []ast.Expr {
	var out []ast.Expr
	if s.TypeParams != nil {
		for _, p := range s.TypeParams.List {
			out = append(out, p.Type)
		}
	}
	switch tt := s.Type.(type) {
	case *ast.StructType:
		for _, fld := range tt.Fields.List {
			if len(fld.Names) == 0 || slices.ContainsFunc(fld.Names, (*ast.Ident).IsExported) {
				out = append(out, fld.Type)
			}
		}
	case *ast.InterfaceType:
		for _, fld := range tt.Methods.List {
			out = append(out, fld.Type)
		}
	default:
		out = append(out, s.Type)
	}
	return out
}

// close adds to set every type named in the signature or fields of a name
// already in it, until nothing more is added.
func (m *module) close(set map[string]bool) {
	for grew := true; grew; {
		grew = false
		for key := range set {
			d := m.decls[key]
			for _, x := range d.types {
				if x == nil {
					continue
				}
				ast.Inspect(x, func(n ast.Node) bool {
					var ref string
					switch n := n.(type) {
					case *ast.SelectorExpr:
						if p, ok := d.file.imports[exprName(n.X)]; ok && strings.HasPrefix(p, "ppanns/internal/") {
							ref = strings.TrimPrefix(p, "ppanns/internal/") + "." + n.Sel.Name
						}
						return false
					case *ast.Ident:
						ref = strings.TrimPrefix(d.pkg, "internal/") + "." + n.Name
					}
					if _, ok := m.decls[ref]; ok && !set[ref] {
						set[ref] = true
						grew = true
					}
					return true
				})
			}
		}
	}
}

// named reports whether a file that in accepts names d: a package-level name
// through the file's imports, a method by its name alone.
func (m *module) named(d *apiDecl, in func(*srcFile) bool) bool {
	for _, f := range m.files {
		if !in(f) {
			continue
		}
		if d.method && f.sels[d.name] || !d.method && f.pkgRefs[d.pkg+"."+d.name] {
			return true
		}
		if f.dir == d.pkg && f.idents[d.name] {
			return true
		}
	}
	return false
}

// checkReason returns why reason does not hold for d, or "".
func (m *module) checkReason(d *apiDecl, reason string) string {
	switch reason {
	case "benchmark":
		if !m.named(d, func(f *srcFile) bool { return strings.HasPrefix(f.path, "benchmark/") }) {
			return "benchmark/ no longer names it; drop its row and decide its fate"
		}
	case "test infrastructure":
		if !m.named(d, func(f *srcFile) bool { return f.test && f.dir != d.pkg }) {
			return "no other package's tests name it"
		}
	case "interface":
		if !d.method || !m.ifaceNames[d.name] && stdInterfaces[d.name] == "" {
			return "no interface declared in this module or listed in stdInterfaces requires a method of this name"
		}
	case "error contract":
		if !d.isErr {
			return "it is neither an Err… error variable nor a type with an Error method"
		}
		if !m.matched[d.pkg+"."+d.name] && !(d.isType && m.named(d, func(f *srcFile) bool { return f.callsAs })) {
			return "no errors.Is or errors.As call matches it"
		}
	default:
		return "reason " + strconv.Quote(reason) + " is not benchmark, test infrastructure, interface or error contract"
	}
	return ""
}

// where describes the code that names d, for a name that needs a decision.
func (m *module) where(d *apiDecl) string {
	switch {
	case m.named(d, func(f *srcFile) bool { return strings.HasPrefix(f.path, "benchmark/") }):
		return "named only by benchmark/"
	case m.named(d, func(f *srcFile) bool { return f.test && f.dir != d.pkg }):
		return "named only by other packages' tests"
	case m.named(d, func(f *srcFile) bool { return !f.test && f.dir == d.pkg }):
		return "named only inside its own package"
	case m.named(d, func(f *srcFile) bool { return f.test && f.dir == d.pkg }):
		return "named only by its own package's tests"
	}
	return "named by no code"
}

// apiLedgerRows returns the rows of the table in README's "API ledger"
// section: a name in backquotes, then its reason.
func apiLedgerRows(t *testing.T) []apiRow {
	t.Helper()
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n### API ledger\n")
	if !ok {
		t.Fatal("README has no \"### API ledger\" section")
	}
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	row := regexp.MustCompile("^\\|\\s*`([\\w.]+)`\\s*\\|\\s*([^|]*?)\\s*\\|")
	var rows []apiRow
	seen := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if mm := row.FindStringSubmatch(line); mm != nil {
			if seen[mm[1]] {
				t.Errorf("API ledger: %s has two rows", mm[1])
			}
			seen[mm[1]] = true
			rows = append(rows, apiRow{name: mm[1], reason: mm[2]})
		}
	}
	return rows
}

type apiRow struct{ name, reason string }

func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

func exprName(x ast.Expr) string {
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// isErrorValue reports whether x is a call to errors.New or fmt.Errorf, or
// names another Err… variable.
func isErrorValue(x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.CallExpr:
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			name := exprName(sel.X) + "." + sel.Sel.Name
			return name == "errors.New" || name == "fmt.Errorf"
		}
	case *ast.SelectorExpr:
		return strings.HasPrefix(x.Sel.Name, "Err")
	case *ast.Ident:
		return strings.HasPrefix(x.Name, "Err")
	}
	return false
}
