// Command deadcode is the repository's dead-code gate. It reports every
// package-level func, method, type, const and var under internal/, cmd/
// and tools/ that no production code reaches: one referenced only from
// _test.go files, only from other unreachable code, or not at all.
//
//	go run ./tools/deadcode [module-root]
//
// It type-checks every package of the module together with its in-package
// and external tests, plus every nested module (a directory with its own
// go.mod, such as benchmark/). A nested module is a consumer: its
// non-test code is live and it is never reported on. Objects are keyed by
// package path, receiver and name, because a package checked as itself
// and the same package loaded as an import are different types.Objects.
//
// Reachability starts from main and init, the blank package-level vars of
// non-test files, the exported API of the module's root package (exported
// methods of its exported types and aliases included) and the consumers.
// A method of a reached type is live when the type's method set satisfies
// an interface the program uses: a non-empty interface type written in
// non-test code, or one of the stdlib interfaces that are satisfied
// implicitly (error, fmt.Stringer, sort.Interface, heap.Interface,
// http.Handler). Interfaces are matched by method names.
//
// A finding is forgiven by a line of tools/deadcode/allowlist.txt,
// "<dir>.<[Recv.]Name> (a|b|c) reason": (a) a reference implementation
// tests compare against, (b) an invariant checker, (c) a case justified
// in CHANGES.md. An allowlisted name is kept on purpose, so what it uses
// is live too. An entry that names nothing, or a name that is now
// reached, is stale. Exit status: 0 clean, 1 on a finding or a bad or
// stale allowlist entry, 2 if the source does not load.
package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	os.Exit(run(root, os.Stdout))
}

// rootOwner owns the uses in code that is live by construction (init,
// blank vars, consumers); testOwner owns every use in a _test.go file.
const (
	rootOwner = "<root>"
	testOwner = "<test>"
)

// dynamicIfaces are stdlib interfaces satisfied implicitly: a value is
// handed over as any, or the interface is named only inside the stdlib.
var dynamicIfaces = [][]string{
	{"Error"},                              // error
	{"String"},                             // fmt.Stringer
	{"Len", "Less", "Swap"},                // sort.Interface
	{"Len", "Less", "Pop", "Push", "Swap"}, // heap.Interface
	{"ServeHTTP"},                          // http.Handler
}

// decl is one reportable package-level declaration.
type decl struct {
	name string // module-relative: internal/core.Tree.Snapshot
	pos  token.Position
}

type checker struct {
	root, modPath string
	fset          *token.FileSet
	imp           types.ImporterFrom

	decls  map[string]decl            // reportable declarations by key
	named  map[string]*types.Named    // type declarations by key
	edges  map[string]map[string]bool // owner key -> used keys
	refd   map[string]bool            // keys used from other non-test code
	tested map[string]bool            // keys used from a _test.go file
	roots  []string
	ifaces map[string][]string // sorted method names by joined names
}

func run(root string, out io.Writer) int {
	c, err := load(root)
	var allow []byte
	if err == nil {
		allow, err = os.ReadFile(filepath.Join(c.root, allowlist))
		if errors.Is(err, fs.ErrNotExist) {
			err = nil
		}
	}
	if err != nil {
		fmt.Fprintln(out, "deadcode:", err)
		return 2
	}
	return c.report(out, string(allow))
}

func load(root string) (*checker, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	c := &checker{
		root: abs, modPath: modPath, fset: fset,
		imp:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		decls:  map[string]decl{},
		named:  map[string]*types.Named{},
		edges:  map[string]map[string]bool{},
		refd:   map[string]bool{},
		tested: map[string]bool{},
		ifaces: map[string][]string{},
	}
	for _, names := range dynamicIfaces {
		c.addIface(names)
	}
	return c, c.walk(abs, modPath, false)
}

func modulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod: no module line", dir)
}

// walk checks every package of the module at modDir; a module nested in it
// is walked as a consumer.
func (c *checker) walk(modDir, modPath string, consumer bool) error {
	return filepath.WalkDir(modDir, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != modDir {
			if n := d.Name(); n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				nested, err := modulePath(dir)
				if err == nil {
					err = c.walk(dir, nested, true)
				}
				if err != nil {
					return err
				}
				return filepath.SkipDir
			}
		}
		// The source importer resolves non-std paths with `go list` run in
		// build.Default.Dir, so point it at the module being checked.
		build.Default.Dir = modDir
		bp, err := build.Default.ImportDir(dir, 0)
		if errors.As(err, new(*build.NoGoError)) {
			return nil
		} else if err != nil {
			return err
		}
		path := modPath
		if r, _ := filepath.Rel(modDir, dir); r != "." {
			path += "/" + filepath.ToSlash(r)
		}
		if err := c.check(dir, path, append(bp.GoFiles, bp.TestGoFiles...), consumer); err != nil {
			return err
		}
		if len(bp.XTestGoFiles) > 0 {
			return c.check(dir, path+"_test", bp.XTestGoFiles, consumer)
		}
		return nil
	})
}

// check type-checks one package from the named files in dir and records
// its declarations and uses.
func (c *checker) check(dir, path string, names []string, consumer bool) error {
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	var typeErr error
	conf := types.Config{Importer: c.imp, Error: func(err error) {
		if typeErr == nil {
			typeErr = err
		}
	}}
	pkg, _ := conf.Check(path, c.fset, files, info)
	if typeErr != nil {
		return typeErr
	}
	under := func(dir string) bool { return strings.HasPrefix(path, c.modPath+"/"+dir+"/") }
	reportable := !consumer && (under("internal") || under("cmd") || under("tools"))
	for _, f := range files {
		test := strings.HasSuffix(c.fset.Position(f.Pos()).Filename, "_test.go")
		for _, d := range f.Decls {
			c.decl(pkg, info, d, test, consumer, reportable && !test)
		}
		if !test {
			c.collectIfaces(info, f)
		}
	}
	if !consumer && path == c.modPath {
		c.rootAPI(pkg)
	}
	return nil
}

// decl records the owners of one top-level declaration and its uses.
func (c *checker) decl(pkg *types.Package, info *types.Info, d ast.Decl, test, consumer, reportable bool) {
	own := func(id *ast.Ident) string {
		switch {
		case test:
			return testOwner
		case consumer:
			return rootOwner
		case id.Name == "_" || id.Name == "init":
			return rootOwner // runs at init
		}
		obj := info.Defs[id]
		k, ok := key(obj)
		if !ok {
			return rootOwner
		}
		if reportable {
			c.decls[k] = decl{strings.TrimPrefix(k, c.modPath+"/"), c.fset.Position(id.Pos())}
		}
		if n, ok := obj.Type().(*types.Named); ok && !types.IsInterface(n) {
			if _, isType := obj.(*types.TypeName); isType {
				c.named[k] = n
			}
		}
		if id.Name == "main" && pkg.Name() == "main" {
			c.roots = append(c.roots, k)
		}
		return k
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		c.uses(info, d, own(d.Name))
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				c.uses(info, s, own(s.Name))
			case *ast.ValueSpec:
				var owners []string
				for _, id := range s.Names {
					owners = append(owners, own(id))
				}
				c.uses(info, s, owners...)
			}
		}
	}
}

func (c *checker) uses(info *types.Info, n ast.Node, owners ...string) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), c.modPath) {
			return true
		}
		k, ok := key(obj)
		if !ok {
			return true
		}
		for _, o := range owners {
			switch o {
			case k:
			case testOwner:
				c.tested[k] = true
			default:
				if c.edges[o] == nil {
					c.edges[o] = map[string]bool{}
				}
				c.edges[o][k] = true
				c.refd[k] = true
			}
		}
		return true
	})
}

// key names a package-level object or a concrete method; ok is false for
// locals, fields, interface methods and package names.
func key(obj types.Object) (string, bool) {
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		recv := o.Type().(*types.Signature).Recv()
		if recv == nil {
			break
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		n, ok := types.Unalias(t).(*types.Named)
		if !ok || types.IsInterface(n) {
			return "", false
		}
		return o.Pkg().Path() + "." + n.Origin().Obj().Name() + "." + o.Name(), true
	case *types.Var:
		if o.IsField() {
			return "", false
		}
	case *types.TypeName, *types.Const:
	default:
		return "", false
	}
	if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	return obj.Pkg().Path() + "." + obj.Name(), true
}

// collectIfaces records every non-empty interface type written in f.
func (c *checker) collectIfaces(info *types.Info, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok || !info.Types[e].IsType() {
			return true
		}
		if it, ok := info.Types[e].Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			var names []string
			for i := 0; i < it.NumMethods(); i++ {
				names = append(names, it.Method(i).Name())
			}
			c.addIface(names)
		}
		return true
	})
}

func (c *checker) addIface(names []string) {
	names = append([]string(nil), names...)
	sort.Strings(names)
	c.ifaces[strings.Join(names, ",")] = names
}

// rootAPI roots the exported declarations of the root package and the
// exported methods of its exported types, aliased ones included.
func (c *checker) rootAPI(pkg *types.Package) {
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		if !obj.Exported() {
			continue
		}
		c.roots = append(c.roots, pkg.Path()+"."+name)
		if _, ok := obj.(*types.TypeName); !ok {
			continue
		}
		if t := types.Unalias(obj.Type()); !types.IsInterface(t) {
			c.roots = append(c.roots, methodKeys(t, func(m *types.Func) bool { return m.Exported() })...)
			if n, ok := t.(*types.Named); ok {
				if k, ok := key(n.Obj()); ok {
					c.roots = append(c.roots, k)
				}
			}
		}
	}
}

// methodKeys returns the keys of the methods of *t that keep reports true.
func methodKeys(t types.Type, keep func(*types.Func) bool) []string {
	var ks []string
	ms := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < ms.Len(); i++ {
		if m := ms.At(i).Obj().(*types.Func); keep(m) {
			if k, ok := key(m); ok {
				ks = append(ks, k)
			}
		}
	}
	return ks
}

// reached walks the use graph from the roots and extra; a reached type also
// reaches its methods that complete an interface the program uses.
func (c *checker) reached(extra []string) map[string]bool {
	seen := map[string]bool{}
	work := append(append([]string{rootOwner}, c.roots...), extra...)
	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[k] {
			continue
		}
		seen[k] = true
		for u := range c.edges[k] {
			work = append(work, u)
		}
		n := c.named[k]
		if n == nil {
			continue
		}
		have := map[string]bool{}
		ms := types.NewMethodSet(types.NewPointer(n))
		for i := 0; i < ms.Len(); i++ {
			have[ms.At(i).Obj().Name()] = true
		}
		sat := map[string]bool{}
		for _, names := range c.ifaces {
			all := true
			for _, m := range names {
				all = all && have[m]
			}
			for _, m := range names {
				sat[m] = sat[m] || all
			}
		}
		work = append(work, methodKeys(n, func(m *types.Func) bool { return sat[m.Name()] })...)
	}
	return seen
}

// allowlist is the module-relative path of the allowlist file.
const allowlist = "tools/deadcode/allowlist.txt"

var allowRe = regexp.MustCompile(`^(\S+)\s+\((a|b|c)\)\s+\S`)

// report prints every unallowed finding and every bad or stale allowlist
// entry, and returns the exit status. A valid allowlist entry is kept on
// purpose, so what it uses is live too.
func (c *checker) report(out io.Writer, allow string) int {
	keyOf := map[string]string{}
	for k, d := range c.decls {
		keyOf[d.name] = k
	}
	live := c.reached(nil)
	fail := false
	var allowed []string
	for i, text := range strings.Split(allow, "\n") {
		text = strings.TrimSpace(text)
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		m := allowRe.FindStringSubmatch(text)
		var problem string
		switch {
		case m == nil:
			problem = `want "<name> (a|b|c) <reason>"`
		case keyOf[m[1]] == "":
			problem = m[1] + ": stale allowlist entry: no such identifier"
		case live[keyOf[m[1]]]:
			problem = m[1] + ": stale allowlist entry: reached from production code"
		default:
			allowed = append(allowed, keyOf[m[1]])
			continue
		}
		fmt.Fprintf(out, "%s:%d: %s\n", allowlist, i+1, problem)
		fail = true
	}

	live = c.reached(allowed)
	var dead []string
	for k := range c.decls {
		if !live[k] {
			dead = append(dead, k)
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := c.decls[dead[i]].pos, c.decls[dead[j]].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, k := range dead {
		why := "unreferenced"
		switch {
		case c.refd[k]:
			why = "referenced only from unreachable code"
		case c.tested[k]:
			why = "referenced only from tests"
		}
		d := c.decls[k]
		file, _ := filepath.Rel(c.root, d.pos.Filename)
		fmt.Fprintf(out, "%s:%d: %s: %s\n", filepath.ToSlash(file), d.pos.Line, d.name, why)
		fail = true
	}
	if fail {
		return 1
	}
	return 0
}
