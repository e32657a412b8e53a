package repro_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	pathpkg "path"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// stdlibMethods satisfy a standard-library interface whose only caller is
// the standard library itself, so no code of the tree calls them, by name
// or through an interface of its own.
var stdlibMethods = map[string]bool{
	// errors.Is and errors.As unwrap a transport failure to its cause.
	"internal/dist.transportError.Unwrap": true,
	"internal/dist.RankError.Unwrap":      true,
	"internal/dist.DegradedError.Unwrap":  true,
	// net/http calls a Handler's ServeHTTP.
	"internal/serve.Server.ServeHTTP": true,
	// fmt calls a fmt.Stringer's String when a verb formats the value:
	// cmd/stkded prints its shard gather policy and WAL sync policy, and
	// cmd/stkdewal each record's kind.
	"internal/dist.GatherPolicy.String": true,
	"internal/wal.SyncPolicy.String":    true,
	"internal/wal.Kind.String":          true,
	// container/heap calls Less and Swap (its Interface embeds
	// sort.Interface), and Push and Pop: heap.Push and heap.Pop are
	// functions of container/heap, not uses of the heaps' methods. Each
	// heap's Len is also called directly.
	"internal/par.readyHeap.Less":    true,
	"internal/par.readyHeap.Swap":    true,
	"internal/par.readyHeap.Push":    true,
	"internal/par.readyHeap.Pop":     true,
	"internal/sched.prioHeap.Less":   true,
	"internal/sched.prioHeap.Swap":   true,
	"internal/sched.prioHeap.Push":   true,
	"internal/sched.prioHeap.Pop":    true,
	"internal/sched.finishHeap.Less": true,
	"internal/sched.finishHeap.Swap": true,
	"internal/sched.finishHeap.Push": true,
	"internal/sched.finishHeap.Pop":  true,
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
	// The only public constructor of the pyramid that README's
	// static-grid analytics describe.
	"stkde.NewPyramid": true,
	// Public methods of the aliased Grid, Query and Pyramid that nothing
	// of the tree calls or formats. They passed the name scan on other
	// types' Add, N and String; whether they stay is an API decision, left
	// open in ROADMAP item 28.
	"internal/grid.Grid.Add":       true,
	"internal/core.Query.N":        true,
	"internal/grid.Pyramid.String": true,
}

// reachBuilds are the builds the guard type-checks, as extra go list
// flags. Both are linux/amd64; purego swaps the AVX2 kernels for their Go
// loops (internal/simd/dispatch_purego.go).
var reachBuilds = [][]string{nil, {"-tags", "purego"}}

// listedPkg is a package that a module's ./... matches, with the Go files
// of the build.
type listedPkg struct {
	path, dir string
	files     []string
}

// goList builds every package of the module in dir and its dependencies
// with the test's own toolchain, and returns each package's export data
// file and the module's own packages.
func goList(dir string, flags []string) (exports map[string]string, own []listedPkg, err error) {
	args := append([]string{"list", "-export", "-deps"}, flags...)
	args = append(args, "-f", "{{.ImportPath}}={{.Export}}{{if not .DepOnly}}={{.Dir}}={{join .GoFiles \",\"}}{{end}}", "./...")
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=amd64")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, stderr.Bytes())
	}
	exports = make(map[string]string)
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Split(sc.Text(), "=")
		exports[f[0]] = f[1]
		if len(f) == 4 {
			own = append(own, listedPkg{path: f[0], dir: f[2], files: strings.Split(f[3], ",")})
		}
	}
	return exports, own, sc.Err()
}

// funcName names a function "Name" and a method "Recv.Name", after its
// generic origin.
func funcName(fn *types.Func) string {
	fn = fn.Origin()
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// funcID identifies a function across type-checks of one build: its
// package path and funcName.
func funcID(fn *types.Func) string {
	return fn.Pkg().Path() + "." + funcName(fn)
}

// funcDecl is one function or method declared in the module under test.
type funcDecl struct {
	entry string // "file:line: funcName", the file relative to the root
	key   string // "dir.funcName", as stdlibMethods and publicKeep name it
}

// buildReach is what the non-test code of one build declares and calls.
// Every package of the modules is type-checked from source once, in one
// universe of types, so an interface of one package and a type of another
// can be compared; only the standard library is read from export data.
type buildReach struct {
	root    string
	fset    *token.FileSet
	exports map[string]string                    // export data files, by import path
	pkgs    map[string]*types.Package            // packages checked from source
	gc      types.Importer                       // the standard library's export data
	decls   map[string]funcDecl                  // by funcID, the module under test only
	used    map[string]bool                      // funcIDs that code outside their own body names
	iface   map[string]map[*types.Interface]bool // used interface methods: by name, their interfaces
	named   []*types.Named                       // the modules' non-interface, non-generic defined types
}

func newBuildReach(root string) *buildReach {
	r := &buildReach{root: root, fset: token.NewFileSet(), exports: make(map[string]string), pkgs: make(map[string]*types.Package),
		decls: make(map[string]funcDecl), used: make(map[string]bool), iface: make(map[string]map[*types.Interface]bool)}
	r.gc = importer.ForCompiler(r.fset, "gc", func(path string) (io.ReadCloser, error) {
		if r.exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(r.exports[path])
	})
	return r
}

// Import returns a package checked from source, or reads it from export
// data.
func (r *buildReach) Import(path string) (*types.Package, error) {
	if p := r.pkgs[path]; p != nil {
		return p, nil
	}
	return r.gc.Import(path)
}

// check type-checks the non-test packages of the module in dir from
// source, in go list's order (each package after its imports), with the
// packages of modules checked before it. It records their uses, and their
// declarations when declare is set.
func (r *buildReach) check(dir string, flags []string, declare bool) error {
	exports, own, err := goList(dir, flags)
	if err != nil {
		return err
	}
	for path, file := range exports {
		r.exports[path] = file
	}
	conf := types.Config{Importer: r, Sizes: types.SizesFor("gc", "amd64")}
	for _, p := range own {
		// go list reports the directory it resolved, through any symlink;
		// the root is resolved alike, so entries stay relative to it.
		pdir, err := filepath.EvalSymlinks(p.dir)
		if err != nil {
			return err
		}
		var files []*ast.File
		for _, name := range p.files {
			f, err := parser.ParseFile(r.fset, filepath.Join(pdir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)}
		pkg, err := conf.Check(p.path, r.fset, files, info)
		if err != nil {
			return err
		}
		r.pkgs[p.path] = pkg
		for _, obj := range info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := n.Underlying().(*types.Interface); ok {
				// An interface of the tree is a contract: every method
				// it names may be dispatched to.
				for i := 0; i < it.NumMethods(); i++ {
					r.useIface(it, it.Method(i).Name())
				}
			} else {
				r.named = append(r.named, n)
			}
		}
		for _, f := range files {
			for _, d := range f.Decls {
				self := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
						self = funcID(fn)
						if declare && !exempt(pkg.Name(), fd) {
							if err := r.declare(self, fn, fd); err != nil {
								return err
							}
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := info.Uses[id].(*types.Func)
					if !ok {
						return true
					}
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						r.useIface(recv.Type().Underlying().(*types.Interface), fn.Name())
					} else if fid := funcID(fn); fid != self {
						r.used[fid] = true
					}
					return true
				})
			}
		}
	}
	return nil
}

// exempt reports whether a declaration has no caller by design: init,
// blank functions and a command's main.
func exempt(pkg string, fd *ast.FuncDecl) bool {
	n := fd.Name.Name
	return n == "init" || n == "_" || n == "main" && pkg == "main" && fd.Recv == nil
}

// declare records the declaration fd of fn under its funcID.
func (r *buildReach) declare(id string, fn *types.Func, fd *ast.FuncDecl) error {
	pos := r.fset.Position(fd.Name.Pos())
	rel, err := filepath.Rel(r.root, pos.Filename)
	if err != nil {
		return err
	}
	rel = filepath.ToSlash(rel)
	r.decls[id] = funcDecl{
		entry: fmt.Sprintf("%s:%d: %s", rel, pos.Line, funcName(fn)),
		key:   pathpkg.Dir(rel) + "." + funcName(fn),
	}
	return nil
}

// useIface records that code may call method name of interface it.
func (r *buildReach) useIface(it *types.Interface, name string) {
	if r.iface[name] == nil {
		r.iface[name] = make(map[*types.Interface]bool)
	}
	r.iface[name][it] = true
}

// dispatch marks the methods that interface dispatch may reach: for each
// used interface method, the method of that name that each defined type
// implementing the interface, as T or *T, selects, promoted from an
// embedded field or its own.
func (r *buildReach) dispatch() {
	for name, ifaces := range r.iface {
		for it := range ifaces {
			var m *types.Func
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == name {
					m = it.Method(i)
				}
			}
			for _, n := range r.named {
				if !types.Implements(n, it) && !types.Implements(types.NewPointer(n), it) {
					continue
				}
				if fn, ok := lookupMethod(n, m); ok {
					r.used[funcID(fn)] = true
				}
			}
		}
	}
}

// lookupMethod returns the method that n's method set selects for the
// interface method m.
func lookupMethod(n *types.Named, m *types.Func) (*types.Func, bool) {
	obj, _, _ := types.LookupFieldOrMethod(n, true, m.Pkg(), m.Name())
	fn, ok := obj.(*types.Func)
	return fn, ok
}

// unreferenced lists, as "file:line: Name" or "file:line: Recv.Name",
// every function and method declared in a non-test package of the module
// at root that non-test code calls in none of the builds (reachBuilds)
// that compile it. Each build type-checks every non-test package of each
// module in modules, root first. A function counts as called when
// types.Info.Uses names it outside its own body, so a method is told
// apart from another type's method of the same name, and a bare name from
// the package that declares it. A method also counts when its type
// implements an interface whose method of that name is used, since
// interface dispatch may reach it; a used net.Addr.String does not pass a
// String method of a type that is no net.Addr. Exempt are init, main,
// stdlibMethods and publicKeep.
func unreferenced(root string, modules ...string) ([]string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if root, err = filepath.EvalSymlinks(root); err != nil {
		return nil, err
	}
	declared := make(map[string]string) // entry -> key
	called := make(map[string]bool)     // by entry
	for _, flags := range reachBuilds {
		r := newBuildReach(root)
		for i, m := range modules {
			if err := r.check(m, flags, i == 0); err != nil {
				return nil, err
			}
		}
		r.dispatch()
		for id, d := range r.decls {
			declared[d.entry] = d.key
			if r.used[id] {
				called[d.entry] = true
			}
		}
	}
	var out []string
	for entry, key := range declared {
		if !called[entry] && !stdlibMethods[key] && !publicKeep[key] {
			out = append(out, entry)
		}
	}
	sort.Strings(out)
	return out, nil
}

// TestInternalFuncsReferenced: every function and method that ships in a
// non-test package of the module is called by non-test code somewhere in
// the repository, benchmark/ module included, in the default or the
// purego build. Test oracles, harnesses and fuzz dispatchers live in
// _test.go files of their package, so a shipped path cannot hide behind a
// test-only twin.
func TestInternalFuncsReferenced(t *testing.T) {
	bad, err := unreferenced(".", ".", "benchmark")
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) > 0 {
		t.Errorf("%d functions declared in non-test files have no call from non-test code; "+
			"delete them, or move test-only helpers into a _test.go file of their package:\n\t%s",
			len(bad), strings.Join(bad, "\n\t"))
	}
}

// TestUnreferencedFixture runs the guard on a small module, so it cannot
// pass vacuously. Uses from test files and from the function's own body
// do not count, and a public package's uncalled function is listed like
// an internal one. A name is not a call: T.Set is listed though U.Set is
// called, and so is a purego-only Kernel though another package's Kernel
// is called. A call is found by type, in either build: c.Helper, called
// only by the default build's d_amd64.go through a dot import, is not
// listed. Dispatch goes by type too: a used io.Writer.Write reaches
// e.Writer.Write but not Sink.Write, whose signature is no io.Writer's,
// and a Window reaches inner.Spec, promoted into wrap.
func TestUnreferencedFixture(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":                 "module fixture\n\ngo 1.21\n",
		"internal/a/a.go":        "package a\n\nfunc Used() {}\n\nfunc Unused() { Unused() }\n\ntype T struct{}\n\ntype U struct{}\n\nfunc (T) Set() {}\n\nfunc (U) Set() {}\n\nfunc Kernel() {}\n",
		"internal/a/a_test.go":   "package a\n\nimport \"testing\"\n\nfunc TestA(t *testing.T) { Unused(); T{}.Set() }\n",
		"internal/b/b_amd64.go":  "//go:build amd64\n\npackage b\n\nfunc Tagged() {}\n",
		"internal/b/b_purego.go": "//go:build purego\n\npackage b\n\nfunc Kernel() {}\n",
		"internal/c/c.go":        "package c\n\nfunc Helper() {}\n",
		"internal/d/d_amd64.go":  "//go:build amd64 && !purego\n\npackage d\n\nimport . \"fixture/internal/c\"\n\nfunc Run() { Helper() }\n",
		"internal/d/d_purego.go": "//go:build !amd64 || purego\n\npackage d\n\nfunc Run() {}\n",
		"internal/e/e.go":        "package e\n\nimport \"io\"\n\ntype Writer struct{}\n\nfunc (Writer) Write(p []byte) (int, error) { return len(p), nil }\n\ntype Sink struct{}\n\nfunc (Sink) Write(p []byte) {}\n\ntype Window interface {\n\tSpec() int\n\tOther()\n}\n\ntype inner struct{}\n\nfunc (inner) Spec() int { return 0 }\n\ntype wrap struct{ inner }\n\nfunc (wrap) Other() {}\n\nfunc Run() {\n\tvar w io.Writer = Writer{}\n\tw.Write(nil)\n\tvar win Window = wrap{}\n\twin.Other()\n}\n",
		"cmd/x/main.go":          "package main\n\nimport (\n\t\"fixture/internal/a\"\n\t\"fixture/internal/d\"\n\t\"fixture/internal/e\"\n)\n\nfunc main() { a.Used(); a.U{}.Set(); a.Kernel(); d.Run(); e.Run() }\n",
		"testdata/ignored.go":    "package ignored\n\nfunc main() { a.Unused() }\n",
		"stkde/s.go":             "package stkde\n\nfunc Public() {}\n",
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
	bad, err := unreferenced(root, root)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(bad, "\n")
	want := "internal/a/a.go:11: T.Set\ninternal/a/a.go:5: Unused\ninternal/b/b_amd64.go:5: Tagged\ninternal/b/b_purego.go:5: Kernel\ninternal/e/e.go:11: Sink.Write\nstkde/s.go:3: Public"
	if got != want {
		t.Fatalf("unreferenced in the fixture:\n%s\nwant:\n%s", got, want)
	}
}
