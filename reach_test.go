package repro_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	pathpkg "path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// srcFile is one parsed Go file of the tree.
type srcFile struct {
	path string // slash-separated, relative to the tree's root
	dir  string // the file's package directory, relative to the root
	test bool
	f    *ast.File
}

// srcTree is every Go file under a root, parsed whatever its build
// constraints: the amd64 and purego files of one package both count.
// Directories whose names start with "." or "_", and testdata, are not Go
// source of the tree and are skipped.
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
		rel = filepath.ToSlash(rel)
		t.files = append(t.files, srcFile{path: rel, dir: pathpkg.Dir(rel), test: strings.HasSuffix(name, "_test.go"), f: f})
		return nil
	})
	return t, err
}

// recvName is the base type name of a method's receiver ("" for a
// function): T for T, *T, T[P] and *T[P].
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
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

// stdlibMethods satisfy a standard-library interface whose only caller is
// the standard library itself, so no code of the tree names them.
var stdlibMethods = map[string]bool{
	// errors.Is and errors.As unwrap a transport failure to its cause.
	"internal/dist.transportError.Unwrap": true,
	"internal/dist.RankError.Unwrap":      true,
	"internal/dist.DegradedError.Unwrap":  true,
	// net/http calls a Handler's ServeHTTP.
	"internal/serve.Server.ServeHTTP": true,
	// container/heap calls Less and Swap (its Interface embeds
	// sort.Interface); the heaps' Len, Push and Pop are also called by name.
	"internal/par.readyHeap.Less":    true,
	"internal/par.readyHeap.Swap":    true,
	"internal/sched.prioHeap.Less":   true,
	"internal/sched.prioHeap.Swap":   true,
	"internal/sched.finishHeap.Less": true,
	"internal/sched.finishHeap.Swap": true,
}

// publicKeep are public entries that no code of the tree calls but that
// ship for a reason.
var publicKeep = map[string]bool{
	// The only public way to put batch estimation on ranks in other
	// processes (README's sharding walkthrough, EstimateDistributed).
	"stkde.ConnectShard": true,
	// The only public reader of the format cmd/stkde -out writes through
	// WriteGridSnapshot.
	"stkde.ReadGridSnapshot": true,
}

// funcKey names one declared function or method.
type funcKey struct{ dir, recv, name string }

// nameRef is one use of a name in non-test code: bare (x) or as the
// selected name of a selector (pkg.x, v.x), inside the declaration in (the
// zero key at package level).
type nameRef struct {
	dir      string
	selector bool
	in       funcKey
}

// collectRefs gathers every name non-test code uses, by name: function
// bodies and package-level variable initialisers. Declarations (function
// names, types, fields, interface methods) are not uses.
func (t *srcTree) collectRefs() map[string][]nameRef {
	refs := make(map[string][]nameRef)
	walk := func(n ast.Node, dir string, in funcKey) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				refs[x.Sel.Name] = append(refs[x.Sel.Name], nameRef{dir: dir, selector: true, in: in})
			case *ast.Ident:
				refs[x.Name] = append(refs[x.Name], nameRef{dir: dir, in: in})
			}
			return true
		})
	}
	for _, sf := range t.files {
		if sf.test {
			continue
		}
		for _, d := range sf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					walk(d.Body, sf.dir, funcKey{sf.dir, recvName(d), d.Name.Name})
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if vs, ok := s.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							walk(v, sf.dir, funcKey{})
						}
					}
				}
			}
		}
	}
	return refs
}

// unreferenced lists, as "file:line: name", every function and method
// declared in a non-test file under internal/, stkde/ or synth/ that no
// non-test code of the tree names. A name counts as used when non-test
// code outside the declaration's own body names it: an unexported name
// from its own package, an exported one from its own package or as a
// selector anywhere. Method calls through an interface count, since they
// name the method. Exempt are init, stdlibMethods and publicKeep.
func (t *srcTree) unreferenced() []string {
	refs := t.collectRefs()
	var out []string
	for _, sf := range t.files {
		if sf.test || !strings.HasPrefix(sf.path, "internal/") && sf.dir != "stkde" && sf.dir != "synth" {
			continue
		}
		for _, d := range sf.f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			k := funcKey{sf.dir, recvName(fd), fd.Name.Name}
			if stdlibMethods[k.dir+"."+k.recv+"."+k.name] || k.recv == "" && publicKeep[k.dir+"."+k.name] {
				continue
			}
			used := false
			for _, r := range refs[k.name] {
				if r.in != k && (r.dir == k.dir || fd.Name.IsExported() && r.selector) {
					used = true
					break
				}
			}
			if !used {
				pos := t.fset.Position(fd.Name.Pos())
				out = append(out, fmt.Sprintf("%s:%d: %s", sf.path, pos.Line, fd.Name.Name))
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestInternalFuncsReferenced: every function and method that ships in
// internal/, stkde/ or synth/ is called (or named) by non-test code
// somewhere in the repository, benchmark/ module included. Test oracles,
// harnesses and fuzz dispatchers live in _test.go files of their
// package, so a shipped path cannot hide behind a test-only twin.
func TestInternalFuncsReferenced(t *testing.T) {
	tree, err := parseTree(".")
	if err != nil {
		t.Fatal(err)
	}
	if bad := tree.unreferenced(); len(bad) > 0 {
		t.Errorf("%d functions declared in non-test files under internal/, stkde/ or synth/ have no reference from non-test code; "+
			"delete them, or move test-only helpers into a _test.go file of their package:\n\t%s",
			len(bad), strings.Join(bad, "\n\t"))
	}
}

// TestUnreferencedFixture runs the scan on a small tree with one used and
// one unused function, so the guard cannot pass vacuously: uses from test
// files and from the function's own body do not count, and a public
// package's uncalled function is listed like an internal one.
func TestUnreferencedFixture(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":                "module fixture\n\ngo 1.21\n",
		"internal/a/a.go":       "package a\n\nfunc Used() {}\n\nfunc Unused() { Unused() }\n",
		"internal/a/a_test.go":  "package a\n\nimport \"testing\"\n\nfunc TestA(t *testing.T) { Unused() }\n",
		"cmd/x/main.go":         "package main\n\nimport \"fixture/internal/a\"\n\nfunc main() { a.Used() }\n",
		"testdata/ignored.go":   "package ignored\n\nfunc main() { a.Unused() }\n",
		"internal/b/b_amd64.go": "//go:build amd64\n\npackage b\n\nfunc Tagged() {}\n",
		"stkde/s.go":            "package stkde\n\nfunc Public() {}\n",
	}
	for name, src := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := parseTree(root)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(tree.unreferenced(), "\n")
	want := "internal/a/a.go:5: Unused\ninternal/b/b_amd64.go:5: Tagged\nstkde/s.go:3: Public"
	if got != want {
		t.Fatalf("unreferenced in the fixture:\n%s\nwant:\n%s", got, want)
	}
}
