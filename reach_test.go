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
	"reflect"
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
}

// fieldKeep are fields that shipping code writes and no non-test code
// reads, kept for a reason.
var fieldKeep = map[string]bool{
	// Work counters that tier-1 tests pin: the PB-SYM point blocks
	// (TestApplySymPointsBlocks) and the journal's fsyncs
	// (TestGroupCommit).
	"internal/core.symScratch.blocks": true,
	"internal/wal.Log.syncs":          true,
	// encoding/json reads it when expvar renders shard_comm.
	"internal/dist.RankComm.Addr": true,
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

// decl is one function, method or struct field declared in the module
// under test.
type decl struct {
	entry string // "file:line: Name", the file relative to the root
	key   string // "dir.Name", as the keep-lists name it
}

// fieldDecl is a struct field declared in the module under test, with the
// struct that declares it.
type fieldDecl struct {
	decl
	st *types.Struct
}

// buildReach is what the non-test code of one build declares, calls and
// reads. Every package of the modules is type-checked from source once, in
// one universe of types, so an interface of one package and a type of
// another can be compared; only the standard library is read from export
// data.
type buildReach struct {
	root     string
	fset     *token.FileSet
	exports  map[string]string                    // export data files, by import path
	pkgs     map[string]*types.Package            // packages checked from source
	gc       types.Importer                       // the standard library's export data
	decls    map[string]decl                      // functions by funcID, the module under test only
	used     map[string]bool                      // funcIDs that code outside their own body names
	iface    map[string]map[*types.Interface]bool // used interface methods: by name, their interfaces
	named    []*types.Named                       // the modules' non-interface, non-generic defined types
	fields   map[*types.Var]fieldDecl             // struct fields, the module under test only
	read     map[*types.Var]bool                  // fields that code reads
	compared map[*types.Struct]bool               // structs compared whole: map keys, == and != operands
	public   map[*types.Struct]bool               // structs of stkde's and synth's types, aliases and variables
}

func newBuildReach(root string) *buildReach {
	r := &buildReach{root: root, fset: token.NewFileSet(), exports: make(map[string]string), pkgs: make(map[string]*types.Package),
		decls: make(map[string]decl), used: make(map[string]bool), iface: make(map[string]map[*types.Interface]bool),
		fields: make(map[*types.Var]fieldDecl), read: make(map[*types.Var]bool),
		compared: make(map[*types.Struct]bool), public: make(map[*types.Struct]bool)}
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
		info := &types.Info{Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object),
			Types: make(map[ast.Expr]types.TypeAndValue), Selections: make(map[*ast.SelectorExpr]*types.Selection)}
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
			if !ok || n.TypeParams().Len() > 0 || types.IsInterface(n) {
				continue
			}
			r.named = append(r.named, n)
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
			if declare {
				if err := r.declareFields(f, info); err != nil {
					return err
				}
			}
		}
		r.readFields(files, info)
		if rel, err := filepath.Rel(r.root, pdir); err == nil && (rel == "stkde" || rel == "synth") {
			// The structs of the public packages' types, aliases and
			// variables are API: TestPublicSurface pins their exported
			// fields.
			for _, name := range pkg.Scope().Names() {
				if st, ok := pkg.Scope().Lookup(name).Type().Underlying().(*types.Struct); ok {
					r.public[st] = true
				}
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

// relPos returns a position's file, relative to the root, and line.
func (r *buildReach) relPos(pos token.Pos) (string, int, error) {
	p := r.fset.Position(pos)
	rel, err := filepath.Rel(r.root, p.Filename)
	return filepath.ToSlash(rel), p.Line, err
}

// declare records the declaration fd of fn under its funcID.
func (r *buildReach) declare(id string, fn *types.Func, fd *ast.FuncDecl) error {
	rel, line, err := r.relPos(fd.Name.Pos())
	if err != nil {
		return err
	}
	r.decls[id] = decl{
		entry: fmt.Sprintf("%s:%d: %s", rel, line, funcName(fn)),
		key:   pathpkg.Dir(rel) + "." + funcName(fn),
	}
	return nil
}

// declareFields records the fields of every struct type that f spells
// out, named "Type.field" after the declared type, or "struct.field" in a
// struct literal type.
func (r *buildReach) declareFields(f *ast.File, info *types.Info) error {
	owner := make(map[*ast.StructType]string)
	var err error
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			if st, ok := n.Type.(*ast.StructType); ok {
				owner[st] = n.Name.Name
			}
		case *ast.StructType:
			st, ok := info.Types[n].Type.(*types.Struct)
			if !ok {
				return true
			}
			name := owner[n]
			if name == "" {
				name = "struct"
			}
			for i := 0; i < st.NumFields(); i++ {
				v := st.Field(i)
				rel, line, e := r.relPos(v.Pos())
				if e != nil {
					err = e
				}
				r.fields[v] = fieldDecl{decl: decl{
					entry: fmt.Sprintf("%s:%d: %s.%s", rel, line, name, v.Name()),
					key:   pathpkg.Dir(rel) + "." + name + "." + v.Name(),
				}, st: st}
			}
		}
		return true
	})
	return err
}

// readFields records the fields that a package's files read and the
// structs they compare whole. A field is written, not read, where it is
// the selector on the left of = or an op-assignment, the operand of ++ or
// --, or the key of a keyed struct literal; an unkeyed literal names no
// field, so its elements are writes too. A field that only these touch
// holds nothing any code uses. Every other use reads it: &x.f, x.f.m()
// and x.f.g = v (which reads f). A selection through an embedded field,
// or of a promoted method, reads the embedded field.
func (r *buildReach) readFields(files []*ast.File, info *types.Info) {
	writes := make(map[*ast.Ident]bool)
	lhs := func(e ast.Expr) {
		for {
			p, ok := e.(*ast.ParenExpr)
			if !ok {
				break
			}
			e = p.X
		}
		if sel, ok := e.(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	inspect := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, e := range n.Lhs {
					lhs(e)
				}
			}
		case *ast.IncDecStmt:
			lhs(n.X)
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				writes[id] = true // names a field only in a struct literal
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				r.compare(info.Types[n.X].Type)
				r.compare(info.Types[n.Y].Type)
			}
		}
		return true
	}
	for _, f := range files {
		ast.Inspect(f, inspect)
	}
	for id, obj := range info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
			r.read[v.Origin()] = true
		}
	}
	for _, sel := range info.Selections {
		r.readPath(sel.Recv(), sel.Index()[:len(sel.Index())-1])
	}
	for _, tv := range info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			r.compare(m.Key())
		}
	}
}

// readPath records the embedded fields that the index path walks from t.
func (r *buildReach) readPath(t types.Type, path []int) {
	for _, i := range path {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		v := st.Field(i)
		r.read[v.Origin()] = true
		t = v.Type()
	}
}

// compare records that values of type t are compared whole, which reads
// every field of a struct, of the structs it holds and of array elements.
func (r *buildReach) compare(t types.Type) {
	if t == nil {
		return
	}
	if n, ok := t.(*types.Named); ok {
		t = n.Origin()
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		r.compared[u] = true
		for i := 0; i < u.NumFields(); i++ {
			r.compare(u.Field(i).Type())
		}
	case *types.Array:
		r.compare(u.Elem())
	}
}

// fieldExempt reports whether a field is read where no selector of the
// tree shows it: a blank field, which pads or blocks unkeyed literals and
// is never selected; any field of a struct with a json tag, since
// encoding/json reads them all; any field of a struct used as a map key
// or compared with == or !=, since the comparison reads every field; and
// an exported field of a struct of stkde's or synth's types, aliases and
// variables, which users read (TestPublicSurface pins these fields).
func (r *buildReach) fieldExempt(v *types.Var, st *types.Struct) bool {
	if v.Name() == "_" || r.compared[st] || v.Exported() && r.public[st] {
		return true
	}
	for i := 0; i < st.NumFields(); i++ {
		if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
			return true
		}
	}
	return false
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
// embedded field or its own. A promoted method reads the embedded fields
// it is selected through.
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
				obj, path, _ := types.LookupFieldOrMethod(n, true, m.Pkg(), m.Name())
				if fn, ok := obj.(*types.Func); ok {
					r.used[funcID(fn)] = true
					r.readPath(n, path[:len(path)-1])
				}
			}
		}
	}
}

// unreferenced lists, as "file:line: Name" or "file:line: Recv.Name",
// every function and method declared in a non-test package of the module
// at root that non-test code calls in none of the builds (reachBuilds)
// that compile it, and as "file:line: Type.field" every struct field that
// non-test code reads in none of them. Each build type-checks every
// non-test package of each module in modules, root first.
//
// A function counts as called when types.Info.Uses names it outside its
// own body, so a method is told apart from another type's method of the
// same name, and a bare name from the package that declares it. A method
// also counts when its type implements an interface whose method of that
// name is used, since interface dispatch may reach it; a used
// net.Addr.String does not pass a String method of a type that is no
// net.Addr, and an interface of the tree passes only the methods code
// calls through it. Exempt are init, main, stdlibMethods and publicKeep.
//
// A field counts as read as readFields says; fieldExempt and fieldKeep
// name the fields that need no read.
func unreferenced(root string, modules ...string) (funcs, fields []string, err error) {
	root, err = filepath.Abs(root)
	if err != nil {
		return nil, nil, err
	}
	if root, err = filepath.EvalSymlinks(root); err != nil {
		return nil, nil, err
	}
	called := make(map[string]bool) // every declared function, by entry
	read := make(map[string]bool)   // every declared field, by entry
	for _, flags := range reachBuilds {
		r := newBuildReach(root)
		for i, m := range modules {
			if err := r.check(m, flags, i == 0); err != nil {
				return nil, nil, err
			}
		}
		r.dispatch()
		for id, d := range r.decls {
			called[d.entry] = called[d.entry] || r.used[id] || stdlibMethods[d.key] || publicKeep[d.key]
		}
		for v, d := range r.fields {
			read[d.entry] = read[d.entry] || r.read[v] || r.fieldExempt(v, d.st) || fieldKeep[d.key]
		}
	}
	return unset(called), unset(read), nil
}

// unset returns the keys of m whose value is false, sorted.
func unset(m map[string]bool) []string {
	var out []string
	for k, ok := range m {
		if !ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// TestInternalFuncsReferenced: every function and method that ships in a
// non-test package of the module is called, and every struct field it
// declares is read, by non-test code somewhere in the repository,
// benchmark/ module included, in the default or the purego build. Test
// oracles, harnesses and fuzz dispatchers live in _test.go files of their
// package, so a shipped path cannot hide behind a test-only twin, and a
// field that only tests read is work the shipped code does for nothing.
func TestInternalFuncsReferenced(t *testing.T) {
	funcs, fields, err := unreferenced(".", ".", "benchmark")
	if err != nil {
		t.Fatal(err)
	}
	if len(funcs) > 0 {
		t.Errorf("%d functions declared in non-test files have no call from non-test code; "+
			"delete them, or move test-only helpers into a _test.go file of their package:\n\t%s",
			len(funcs), strings.Join(funcs, "\n\t"))
	}
	if len(fields) > 0 {
		t.Errorf("%d struct fields declared in non-test files are read by no non-test code; "+
			"delete them, with the writes that only fill them:\n\t%s",
			len(fields), strings.Join(fields, "\n\t"))
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
// e.Writer.Write but not Sink.Write, whose signature is no io.Writer's; a
// used Window.Spec reaches inner.Spec, promoted into wrap through the
// embedded field it reads, but no call of Window.Other means wrap.Other
// is listed.
//
// Fields: a field that only an unkeyed literal sets, or only a keyed
// literal, += and ++ touch, is listed, and so is a field only written
// through its parent (o.in.g = v reads in and writes g). Not listed are
// a field read only through &x.f, the fields of a map key and of a struct
// compared with ==, the fields of a json-tagged struct, a blank field, an
// exported field of a stkde type (its unexported field is listed), and a
// promoted field with the embedded field it is selected through.
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
		"internal/e/e.go":        "package e\n\nimport \"io\"\n\ntype Writer struct{}\n\nfunc (Writer) Write(p []byte) (int, error) { return len(p), nil }\n\ntype Sink struct{}\n\nfunc (Sink) Write(p []byte) {}\n\ntype Window interface {\n\tSpec() int\n\tOther()\n}\n\ntype inner struct{}\n\nfunc (inner) Spec() int { return 0 }\n\ntype wrap struct{ inner }\n\nfunc (wrap) Other() {}\n\nfunc Run() {\n\tvar w io.Writer = Writer{}\n\tw.Write(nil)\n\tvar win Window = wrap{}\n\twin.Spec()\n}\n",
		"internal/f/f.go": "package f\n\ntype unkeyed struct{ a, b int }\n\ntype counter struct {\n\tn int\n\tm int\n}\n\n" +
			"type addr struct{ p int }\n\ntype key struct{ k int }\n\ntype pair struct{ a int }\n\n" +
			"type doc struct {\n\tX int `json:\"x\"`\n\ty int\n}\n\ntype padded struct {\n\t_ int\n\tv int\n}\n\n" +
			"type outer struct{ in nested }\n\ntype nested struct{ g int }\n\n" +
			"func Run() int {\n\tu := unkeyed{1, 2}\n\tc := counter{n: 1}\n\tc.n += 2\n\tc.m++\n\ta := addr{}\n\tp := &a.p\n" +
			"\tm := map[key]bool{{k: 1}: true}\n\tvar o outer\n\to.in.g = 3\n\t_, _, _, _ = u, c, doc{X: 1, y: 2}, o\n" +
			"\tif (pair{a: 1}) == (pair{}) {\n\t\treturn 0\n\t}\n\treturn *p + len(m) + padded{v: 4}.v + derived{}.id\n}\n\n" +
			"type base struct{ id int }\n\ntype derived struct{ base }\n",
		"cmd/x/main.go":       "package main\n\nimport (\n\t\"fixture/internal/a\"\n\t\"fixture/internal/d\"\n\t\"fixture/internal/e\"\n\t\"fixture/internal/f\"\n)\n\nfunc main() { a.Used(); a.U{}.Set(); a.Kernel(); d.Run(); e.Run(); f.Run() }\n",
		"testdata/ignored.go": "package ignored\n\nfunc main() { a.Unused() }\n",
		"stkde/s.go":          "package stkde\n\nfunc Public() {}\n\ntype Options struct {\n\tThreads int\n\tcache   int\n}\n",
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
	funcs, fields, err := unreferenced(root, root)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(funcs, "\n")
	want := "internal/a/a.go:11: T.Set\ninternal/a/a.go:5: Unused\ninternal/b/b_amd64.go:5: Tagged\ninternal/b/b_purego.go:5: Kernel\n" +
		"internal/e/e.go:11: Sink.Write\ninternal/e/e.go:24: wrap.Other\nstkde/s.go:3: Public"
	if got != want {
		t.Errorf("uncalled functions in the fixture:\n%s\nwant:\n%s", got, want)
	}
	got = strings.Join(fields, "\n")
	want = "internal/f/f.go:28: nested.g\ninternal/f/f.go:3: unkeyed.a\ninternal/f/f.go:3: unkeyed.b\n" +
		"internal/f/f.go:6: counter.n\ninternal/f/f.go:7: counter.m\nstkde/s.go:7: Options.cache"
	if got != want {
		t.Errorf("unread fields in the fixture:\n%s\nwant:\n%s", got, want)
	}
}
