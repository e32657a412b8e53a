package repro_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	pathpkg "path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// srcFile is one parsed Go file of the tree.
type srcFile struct {
	dir  string // the file's package directory, relative to the root
	test bool
	f    *ast.File
}

// srcTree is every Go file under a root, parsed whatever its build
// constraints. Directories whose names start with "." or "_", and
// testdata, are not Go source of the tree and are skipped.
type srcTree struct {
	fset   *token.FileSet
	module string // the root go.mod's module path
	files  []srcFile
}

func parseTree(root string) (*srcTree, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	t := &srcTree{fset: token.NewFileSet()}
	sc := bufio.NewScanner(strings.NewReader(string(mod)))
	for sc.Scan() {
		if m, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			t.module = strings.TrimSpace(m)
		}
	}
	if t.module == "" {
		return nil, fmt.Errorf("%s/go.mod names no module", root)
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(t.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		t.files = append(t.files, srcFile{dir: pathpkg.Dir(filepath.ToSlash(rel)), test: strings.HasSuffix(name, "_test.go"), f: f})
		return nil
	})
	return t, err
}

// recvName is the base type name of a method's receiver: T for T, *T,
// T[P] and *T[P].
func recvName(fd *ast.FuncDecl) string {
	e := fd.Recv.List[0].Type
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// apiGolden pins the public surface: every exported identifier of stkde and
// synth, and the exported methods and struct fields of each type they
// re-export by alias.
const apiGolden = "testdata/api.txt"

// sigString prints a function type as Go's api listing does: parameter and
// result types without names, on one line.
func sigString(fset *token.FileSet, ft *ast.FuncType) string {
	strip := func(fl *ast.FieldList) *ast.FieldList {
		if fl == nil {
			return nil
		}
		out := &ast.FieldList{}
		for _, f := range fl.List {
			for n := max(len(f.Names), 1); n > 0; n-- {
				out.List = append(out.List, &ast.Field{Type: f.Type})
			}
		}
		return out
	}
	var b bytes.Buffer
	printer.Fprint(&b, fset, &ast.FuncType{Params: strip(ft.Params), Results: strip(ft.Results)})
	return strings.Join(strings.Fields(strings.TrimPrefix(b.String(), "func")), " ")
}

// pkgDir maps an import path of the tree's module to its directory.
func (t *srcTree) pkgDir(importPath string) (string, bool) {
	return strings.CutPrefix(importPath, t.module+"/")
}

// aliasedTypes maps each type that the public packages (stkde, synth)
// re-export by alias, as "dir.Type", to the alias's package and name.
func (t *srcTree) aliasedTypes() map[string][]string {
	out := make(map[string][]string)
	for _, sf := range t.files {
		if sf.test || (sf.dir != "stkde" && sf.dir != "synth") {
			continue
		}
		imports := make(map[string]string) // local name -> import path
		for _, is := range sf.f.Imports {
			p, err := strconv.Unquote(is.Path.Value)
			if err != nil {
				continue
			}
			name := pathpkg.Base(p)
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = p
		}
		for _, d := range sf.f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, s := range gd.Specs {
				ts := s.(*ast.TypeSpec)
				sel, ok := ts.Type.(*ast.SelectorExpr)
				if !ts.Assign.IsValid() || !ok {
					continue
				}
				pkg, ok := sel.X.(*ast.Ident)
				if !ok {
					continue
				}
				if dir, ok := t.pkgDir(imports[pkg.Name]); ok {
					key := dir + "." + sel.Sel.Name
					out[key] = append(out[key], sf.dir+"."+ts.Name.Name)
				}
			}
		}
	}
	return out
}

// methodLine is one exported method of type recv as the api listing
// shows it.
func methodLine(fset *token.FileSet, pkg, recv string, fd *ast.FuncDecl) string {
	if _, ptr := fd.Recv.List[0].Type.(*ast.StarExpr); ptr {
		recv = "*" + recv
	}
	return fmt.Sprintf("pkg %s, method (%s) %s%s", pkg, recv, fd.Name.Name, sigString(fset, fd.Type))
}

// fieldLines lists the exported fields of struct st, declared as type
// name of package pkg, as the api listing shows them: one line per field,
// "embedded T" for an embedded one.
func fieldLines(fset *token.FileSet, pkg, name string, st *ast.StructType) []string {
	typeString := func(e ast.Expr) string {
		if ft, ok := e.(*ast.FuncType); ok {
			return "func" + sigString(fset, ft)
		}
		var b bytes.Buffer
		printer.Fprint(&b, fset, e)
		return strings.Join(strings.Fields(b.String()), " ")
	}
	var out []string
	for _, f := range st.Fields.List {
		typ := typeString(f.Type)
		if len(f.Names) == 0 {
			base := strings.TrimPrefix(typ, "*")
			if _, sel, ok := strings.Cut(base, "."); ok {
				base = sel
			}
			if ast.IsExported(base) {
				out = append(out, fmt.Sprintf("pkg %s, type %s struct, embedded %s", pkg, name, typ))
			}
			continue
		}
		for _, n := range f.Names {
			if n.IsExported() {
				out = append(out, fmt.Sprintf("pkg %s, type %s struct, %s %s", pkg, name, n.Name, typ))
			}
		}
	}
	return out
}

// publicSurface lists the tree's public API, one sorted line per name.
func (t *srcTree) publicSurface() []string {
	var out []string
	for _, sf := range t.files {
		if sf.test || (sf.dir != "stkde" && sf.dir != "synth") {
			continue
		}
		for _, d := range sf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					out = append(out, fmt.Sprintf("pkg %s, func %s%s", sf.dir, d.Name.Name, sigString(t.fset, d.Type)))
				} else if r := recvName(d); ast.IsExported(r) {
					out = append(out, methodLine(t.fset, sf.dir, r, d))
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						var b bytes.Buffer
						if s.Assign.IsValid() {
							b.WriteString("= ")
						}
						switch st := s.Type.(type) {
						case *ast.StructType:
							b.WriteString("struct")
							out = append(out, fieldLines(t.fset, sf.dir, s.Name.Name, st)...)
						case *ast.InterfaceType:
							b.WriteString("interface")
						default:
							printer.Fprint(&b, t.fset, s.Type)
						}
						out = append(out, fmt.Sprintf("pkg %s, type %s %s", sf.dir, s.Name.Name, b.String()))
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								out = append(out, fmt.Sprintf("pkg %s, %s %s", sf.dir, d.Tok, n.Name))
							}
						}
					}
				}
			}
		}
	}
	aliased := t.aliasedTypes()
	for _, sf := range t.files {
		if sf.test {
			continue
		}
		for _, d := range sf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil || !d.Name.IsExported() {
					continue
				}
				for _, alias := range aliased[sf.dir+"."+recvName(d)] {
					pkg, name, _ := strings.Cut(alias, ".")
					out = append(out, methodLine(t.fset, pkg, name, d))
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, alias := range aliased[sf.dir+"."+ts.Name.Name] {
						pkg, name, _ := strings.Cut(alias, ".")
						out = append(out, fieldLines(t.fset, pkg, name, st)...)
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestPublicSurface: the exported stkde and synth surface equals the
// golden list, so any change to the public API is deliberate. On a
// mismatch it prints the difference; edit testdata/api.txt to match.
func TestPublicSurface(t *testing.T) {
	tree, err := parseTree(".")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(apiGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool)
	for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		want[l] = true
	}
	got := tree.publicSurface()
	var diff []string
	for _, l := range got {
		if !want[l] {
			diff = append(diff, "+"+l)
		}
		delete(want, l)
	}
	for l := range want {
		diff = append(diff, "-"+l)
	}
	sort.Slice(diff, func(i, j int) bool { return diff[i][1:] < diff[j][1:] })
	if len(diff) > 0 {
		t.Errorf("public surface differs from %s (+ added, - removed):\n%s", apiGolden, strings.Join(diff, "\n"))
	}
}
