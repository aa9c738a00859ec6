package movr_test

import (
	"bufio"
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
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed names the functions and methods that no non-test code
// calls, and the movr.go names no command or example uses, that stay on
// purpose, each with the reason. Keys are the package's directory
// relative to the repository root ("movr" for the root package), then
// the receiver's type name for a method, then the name.
var testOnlyAllowed = map[string]string{
	// Reached from production code through an interface the loaded
	// packages do not declare.
	"internal/experiments.BayPlayerError.Unwrap": "RunSessionVariant unwraps the lone player's error with errors.Unwrap",

	// Oracles and bounds that tests check production code against.
	"internal/geom.SpecularPoint":    "the channel golden tests rebuild reflection points with it",
	"internal/relay.Bound":           "TestQuickCombinedBelowBound holds the relay SNR below the weaker hop",
	"internal/relay.HopBudget.SNRdB": "per-hop SNR that TestEndToEndMatchesClosedForm builds the closed form from",
	"internal/radio.LinkSNRAligned":  "aligned LOS SNR that the baseline and radio tests compare against",

	// Fixtures that model-pinning tests need.
	"internal/room.NewLivingRoom":         "furnished room of the channel golden traces and living-room tests",
	"internal/channel.Budget60GHz":        "802.11ad fixture that band60_test and experiments_test check the model at",
	"internal/room.Column":                "pillar that TestBlockageDegradesMeasurement blocks the sweep with",
	"internal/stats.LinearFit":            "TestFig8ReproducesPaperShape fits the Fig 8 error trend with it",
	"internal/stats.MeanAbsError":         "TestFig7ReproducesPaperShape measures the Fig 7 curve error with it",
	"internal/amplifier.Default":          "calibrated amplifier the amplifier model tests build",
	"internal/amplifier.VGA.SetGainDB":    "puts the amplifier at a gain in dB for the amplifier and reflector tests",
	"internal/antenna.Array.BeamwidthDeg": "TestBeamwidthMatchesPaper holds the half-power beamwidth to the paper's ~10°",
	"internal/channel.Tracer.Trace":       "default-height trace the channel, radio and baseline tests build paths with",
	"internal/radio.New":                  "generic radio the baseline testbed is built from",

	// Accessors that let tests observe state production code keeps.
	"internal/geom.Segment.PointAt":          "the direct-trace and drive-level tests place points along legs",
	"internal/geom.Vec.AlmostEqual":          "tolerance comparison across the geometry tests",
	"internal/metrics.Gauge.Value":           "reads a gauge in the metrics tests",
	"internal/metrics.CounterVec.Value":      "reads one labelled counter in the metrics tests",
	"internal/metrics.Histogram.Count":       "reads a histogram's sample count in the metrics tests",
	"internal/server.Server.Scheduler":       "lets server tests substitute the scheduler's executor",
	"internal/channel.PathCache.Stats":       "query-tier counters the PathCache tests assert on",
	"internal/reflector.Reflector.TXBeamDeg": "transmit beam the reflector, controller and link-manager tests assert on",
}

// testOnlyFieldsAllowed names the exported struct fields that non-test
// code reads but never sets and that stay on purpose, each with the
// reason. Keys are the package's directory relative to the repository
// root, then the struct type's name, then the field's name.
var testOnlyFieldsAllowed = map[string]string{}

// prodCoverAllowed names the functions that non-test code calls but that
// no run of the production-coverage census (scripts/prodcover.sh, `make
// prod-cover`) reaches outside the daemon-side packages, each with the
// reason it stays. Keys are those of testOnlyAllowed. The census fails
// on a function that never ran and that neither map names, and on an
// entry here whose function ran; TestNoTestOnlyCode fails on an entry
// that names no declaration or that testOnlyAllowed names too.
var prodCoverAllowed = map[string]string{
	// Error paths no deterministic run takes.
	"internal/antenna.NonFiniteError.Error":     "message of the typed error antenna.New returns for a NaN or ±Inf Config field",
	"internal/experiments.BayPlayerError.Error": "message of the error RunBayLockstep attributes to one failed bay player",
	"cmd/movrtrace.fatal":                       "reports an event trace movrtrace cannot read, or a motion config vr.Generate refuses, and exits 1",
	"internal/coex.edfPolicy.weightedQuotas":    "EDF quotas under Room.Weights, whose deletion edits cmd/movrbench and so waits for a change that may touch the benchmark",
	"internal/geom.MirrorPoint":                 "image source behind the SpecularPoint oracle the channel golden tests rebuild reflections with",
	"internal/fleet.Histogram.UnmarshalJSON":    "decodes every streamed movrd result in cmd/movrbench (resultFrames), a module of its own outside the census",
}

// TestNoTestOnlyCode fails on any function or method, in either module
// of the repository, that no non-test code references: what only
// _test.go files call, or nothing calls at all. Such code is maintained,
// documented and reviewed but never runs in the simulator, the daemon,
// the commands or the examples; delete it with the test that covers it.
// A method an interface declares counts as called only through that
// interface. A method that implements one the code can call (declared
// outside the repository, or called by its non-test code) is exempt.
//
// The movr.go facade is held to the same rule one level up: each name it
// exports needs a user among the commands, the examples and
// example_test.go (a reference, or an Example named after it), and its
// declaration's references count as use only when it has one.
//
// An entry of testOnlyAllowed exempts a name. An allowlist entry that
// non-test code has since come to reference, or that names nothing,
// fails too, as does a prodCoverAllowed entry that names nothing or
// that testOnlyAllowed names too.
func TestNoTestOnlyCode(t *testing.T) {
	l, err := loadRepo(".")
	if err != nil {
		t.Fatal(err)
	}
	ifaces := l.interfaces()
	found := map[string]bool{}
	var unused []string
	for _, f := range l.facade {
		key := "movr." + f.obj.Name()
		found[key] = true
		_, allowed := testOnlyAllowed[key]
		switch {
		case l.facadeUsed[f.obj]:
			if allowed {
				t.Errorf("%s is in testOnlyAllowed but a command or an example now uses it; drop the entry", key)
			}
		case allowed:
		default:
			unused = append(unused, key+" ("+l.fset.Position(f.obj.Pos()).String()+")")
		}
	}
	if len(unused) > 0 {
		t.Errorf("%d names movr.go exports have no user in cmd/, examples/ or example_test.go; delete them, or add each to testOnlyAllowed with the reason it stays:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
	var testOnly []string
	for _, d := range l.decls {
		key := d.key()
		found[key] = true
		used := l.used[d.fn]
		_, allowed := testOnlyAllowed[key]
		switch {
		case used:
			if allowed {
				t.Errorf("%s is in testOnlyAllowed but non-test code now calls it; drop the entry", key)
			}
		case !d.abstract && l.implements(d, ifaces):
			if allowed {
				t.Errorf("%s is in testOnlyAllowed but is exempt anyway; drop the entry", key)
			}
		case allowed:
		default:
			testOnly = append(testOnly, key+" ("+l.fset.Position(d.fn.Pos()).String()+")")
		}
	}
	for key := range testOnlyAllowed {
		if !found[key] {
			t.Errorf("testOnlyAllowed names %s, which is not declared; drop the entry", key)
		}
	}
	for key := range prodCoverAllowed {
		if !found[key] {
			t.Errorf("prodCoverAllowed names %s, which is not declared; drop the entry", key)
		}
		if _, ok := testOnlyAllowed[key]; ok {
			t.Errorf("%s is in both testOnlyAllowed and prodCoverAllowed; keep one entry", key)
		}
	}
	sort.Strings(testOnly)
	if len(testOnly) > 0 {
		t.Errorf("%d functions have no caller outside tests; delete them with the tests that cover them, or add each to testOnlyAllowed with the reason it stays:\n\t%s",
			len(testOnly), strings.Join(testOnly, "\n\t"))
	}
}

// TestNoTestOnlyFields fails on any exported struct field, in either
// module of the repository, that non-test code reads but never sets:
// only tests give it a value, or nothing does, so the simulator, the
// daemon, the commands and the examples always run its zero value and
// the field is a constant in disguise. Make it one, or delete it with
// the tests that set it. A write is a keyed or positional composite
// literal, an assignment, ++ or --, taking the field's address, or
// calling a pointer method on it. Fields with a json tag, and those of
// an anonymous struct a json-tagged field holds, which decoding sets,
// and entries of testOnlyFieldsAllowed are exempt. An allowlist
// entry that names no such field fails too.
func TestNoTestOnlyFields(t *testing.T) {
	l, err := loadRepo(".")
	if err != nil {
		t.Fatal(err)
	}
	reads, writes := l.fieldAccesses()
	found := map[string]bool{}
	var unset []string
	for _, f := range l.fields {
		if !reads[f.v] || writes[f.v] {
			continue
		}
		found[f.key] = true
		if _, allowed := testOnlyFieldsAllowed[f.key]; !allowed {
			unset = append(unset, f.key+" ("+l.fset.Position(f.v.Pos()).String()+")")
		}
	}
	for key := range testOnlyFieldsAllowed {
		if !found[key] {
			t.Errorf("testOnlyFieldsAllowed names %s, which is not a field non-test code reads but never sets; drop the entry", key)
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d fields are read but never set outside tests; make each a constant or delete it, or add it to testOnlyFieldsAllowed with the reason it stays:\n\t%s",
			len(unset), strings.Join(unset, "\n\t"))
	}
}

// repo is every non-test package of both modules, type-checked from
// source into one universe, with the standard library from export data.
type repo struct {
	fset     *token.FileSet
	root     string
	rootPath string                    // the root package's import path
	dirs     map[string]*build.Package // by import path
	pkgs     map[string]*types.Package
	files    map[string][]*ast.File
	info     *types.Info
	std      types.Importer
	decls    []decl
	fields   []field
	used     map[*types.Func]bool

	facade     []facadeName
	facadeUsed map[types.Object]bool // by the commands, the examples or example_test.go
}

// facadeName is one exported name the root package's movr.go declares,
// with the functions its declaration references.
type facadeName struct {
	obj  types.Object
	refs []*types.Func
}

// decl is one top-level function or method declaration, or one method
// a named interface declares.
type decl struct {
	fn       *types.Func
	dir      string // package directory relative to the repository root, "movr" for the root
	abstract bool   // an interface's method
}

// field is one exported, named field of a struct type declared in
// non-test code, except a json-tagged one and those of an anonymous
// struct a json-tagged field holds.
type field struct {
	v   *types.Var
	key string // package directory, struct type name ("struct{}" when anonymous), field name
}

// recv returns the named type a method is declared on, or nil for a
// function.
func (d decl) recv() *types.Named {
	r := d.fn.Type().(*types.Signature).Recv()
	if r == nil {
		return nil
	}
	t := r.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

func (d decl) key() string {
	if r := d.recv(); r != nil {
		return d.dir + "." + r.Obj().Name() + "." + d.fn.Name()
	}
	return d.dir + "." + d.fn.Name()
}

// implements reports whether d is a method that some interface in
// ifaces requires of its receiver type, where that interface's method
// is one code can call: declared outside the repository, or called by
// its non-test code.
func (l *repo) implements(d decl, ifaces []*types.Interface) bool {
	r := d.recv()
	if r == nil {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			if m.Name() != d.fn.Name() || (m.Pkg() != nil && l.pkgs[m.Pkg().Path()] == m.Pkg() && !l.used[m]) {
				continue
			}
			if types.Implements(r, it) || types.Implements(types.NewPointer(r), it) {
				return true
			}
		}
	}
	return false
}

// loadRepo finds every Go module under root, type-checks each non-test
// package in them and records which functions non-test code references.
func loadRepo(root string) (*repo, error) {
	l := &repo{
		fset:  token.NewFileSet(),
		root:  root,
		dirs:  map[string]*build.Package{},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		used:       map[*types.Func]bool{},
		facadeUsed: map[types.Object]bool{},
	}
	modules := map[string]string{} // directory → module path
	imports := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !e.IsDir() {
			return nil
		}
		if n := e.Name(); path != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
			return filepath.SkipDir
		}
		if mod, err := modulePath(filepath.Join(path, "go.mod")); err == nil {
			modules[path] = mod
		}
		bp, err := build.Default.ImportDir(path, 0)
		if err != nil || len(bp.GoFiles) == 0 {
			return nil
		}
		for dir := path; ; dir = filepath.Dir(dir) {
			if mod, ok := modules[dir]; ok {
				rel, _ := filepath.Rel(dir, path)
				l.dirs[filepath.ToSlash(filepath.Join(mod, rel))] = bp
				for _, imp := range bp.Imports {
					imports[imp] = true
				}
				break
			}
			if dir == root || dir == "." || dir == "/" {
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	l.rootPath = modules[root]
	examples, err := parser.ParseFile(l.fset, filepath.Join(root, "example_test.go"), nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	for _, imp := range examples.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		imports[path] = true
	}
	var std []string
	for imp := range imports {
		if l.dirs[imp] == nil {
			std = append(std, imp)
		}
	}
	if l.std, err = stdImporter(l.fset, std); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			return nil, err
		}
	}
	for _, p := range paths {
		l.record(p)
	}
	if err := l.recordExamples(examples); err != nil {
		return nil, err
	}
	return l, nil
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(mod), `"`), nil
		}
	}
	return "", fs.ErrNotExist
}

// stdImporter reads the standard library's export data, locating the
// files for every path in paths with one `go list -export` run where
// importer.Default would start one per package.
func stdImporter(fset *token.FileSet, paths []string) (types.Importer, error) {
	goTool := filepath.Join(build.Default.GOROOT, "bin", "go")
	out, err := exec.Command(goTool, append([]string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}, paths...)...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok {
			exports[path] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	}), nil
}

// Import type-checks an in-tree package from source, once, and leaves
// every other path to the standard library's export data.
func (l *repo) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	bp, ok := l.dirs[path]
	if !ok {
		return l.std.Import(path)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	l.files[path] = files
	return pkg, nil
}

// record collects path's declarations, interface methods and struct
// fields, and marks every function its code references, except a
// function's references to itself and the facade's references, which
// recordFacade keeps per name. In the commands and the examples it also
// marks the root package's names they reference.
func (l *repo) record(path string) {
	rel, _ := filepath.Rel(l.root, l.dirs[path].Dir)
	name := filepath.ToSlash(rel)
	if name == "." {
		name = "movr"
	}
	user := strings.HasPrefix(name, "cmd/") || strings.HasPrefix(name, "examples/")
	root := l.pkgs[l.rootPath]
	for _, f := range l.files[path] {
		facade := rel == "." && filepath.Base(l.fset.Position(f.Pos()).Filename) == "movr.go"
		for _, d := range f.Decls {
			var self *types.Func
			front := facade // d declares facade names
			if fd, ok := d.(*ast.FuncDecl); ok {
				self = l.info.Defs[fd.Name].(*types.Func)
				front = facade && fd.Recv == nil
				isMain := fd.Recv == nil && fd.Name.Name == "main" && self.Pkg().Name() == "main"
				if fd.Name.Name != "init" && !isMain && !front {
					l.decls = append(l.decls, decl{fn: self, dir: name})
				}
			}
			if front {
				l.recordFacade(d)
			}
			typeName := map[ast.Expr]string{}
			decoded := map[ast.Expr]bool{} // anonymous structs json-tagged fields hold
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if fn, ok := l.info.Uses[n].(*types.Func); ok && fn.Origin() != self && !front {
						l.used[fn.Origin()] = true
					}
					if obj := l.info.Uses[n]; user && obj != nil && obj.Pkg() == root {
						l.facadeUsed[obj] = true
					}
				case *ast.TypeSpec:
					typeName[n.Type] = n.Name.Name
					if _, ok := n.Type.(*ast.InterfaceType); ok {
						it := l.info.Defs[n.Name].Type().Underlying().(*types.Interface)
						for i := 0; i < it.NumExplicitMethods(); i++ {
							l.decls = append(l.decls, decl{fn: it.ExplicitMethod(i), dir: name, abstract: true})
						}
					}
				case *ast.StructType:
					owner, ok := typeName[n]
					if !ok {
						owner = "struct{}"
					}
					for _, fl := range n.Fields.List {
						if decoded[n] || jsonTagged(fl) {
							if inner, ok := fl.Type.(*ast.StructType); ok {
								decoded[inner] = true
							}
							continue
						}
						for _, id := range fl.Names {
							if id.IsExported() {
								l.fields = append(l.fields, field{v: l.info.Defs[id].(*types.Var), key: name + "." + owner + "." + id.Name})
							}
						}
					}
				}
				return true
			})
		}
	}
}

// recordFacade collects the exported names a declaration of movr.go
// declares, each with the functions its own spec references.
func (l *repo) recordFacade(d ast.Decl) {
	units := []ast.Node{d}
	if gd, ok := d.(*ast.GenDecl); ok {
		units = units[:0]
		for _, spec := range gd.Specs {
			units = append(units, spec)
		}
	}
	for _, u := range units {
		var refs []*types.Func
		ast.Inspect(u, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := l.info.Uses[id].(*types.Func); ok {
					refs = append(refs, fn.Origin())
				}
			}
			return true
		})
		for _, id := range declaredNames(u) {
			if id.IsExported() {
				l.facade = append(l.facade, facadeName{obj: l.info.Defs[id], refs: refs})
			}
		}
	}
}

// declaredNames returns the identifiers a top-level function, a
// constant, variable or type spec declares.
func declaredNames(n ast.Node) []*ast.Ident {
	switch n := n.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{n.Name}
	case *ast.ValueSpec:
		return n.Names
	case *ast.TypeSpec:
		return []*ast.Ident{n.Name}
	}
	return nil
}

// recordExamples type-checks example_test.go against the loaded root
// package, marks what it references and the names its Examples are
// named after as used by the facade's users, and then counts each used
// facade name's references as use.
func (l *repo) recordExamples(f *ast.File) error {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: l}
	if _, err := conf.Check(l.rootPath+"_test", l.fset, []*ast.File{f}, info); err != nil {
		return err
	}
	root := l.pkgs[l.rootPath]
	for _, obj := range info.Uses {
		if obj.Pkg() == root {
			l.facadeUsed[obj] = true
		}
	}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv != nil {
			continue
		}
		if name, ok := strings.CutPrefix(fd.Name.Name, "Example"); ok {
			name, _, _ = strings.Cut(name, "_")
			if obj := root.Scope().Lookup(name); obj != nil {
				l.facadeUsed[obj] = true
			}
		}
	}
	for _, fn := range l.facade {
		if l.facadeUsed[fn.obj] {
			for _, ref := range fn.refs {
				l.used[ref] = true
			}
		}
	}
	return nil
}

// jsonTagged reports whether a struct field carries a json tag.
func jsonTagged(fl *ast.Field) bool {
	if fl.Tag == nil {
		return false
	}
	tag, err := strconv.Unquote(fl.Tag.Value)
	if err != nil {
		return false
	}
	_, ok := reflect.StructTag(tag).Lookup("json")
	return ok
}

// fieldAccesses reports which struct fields non-test code reads and
// which it writes. A write is a composite literal's keyed or positional
// element, the target of an assignment or ++/--, the operand of &, or
// the receiver of a pointer method; every field selected along such a
// target (x.A.B = v, x.A[i] = v) counts as written. Any other selection
// of a field is a read.
func (l *repo) fieldAccesses() (reads, writes map[*types.Var]bool) {
	reads, writes = map[*types.Var]bool{}, map[*types.Var]bool{}
	fieldOf := func(sel *ast.SelectorExpr) *types.Var {
		if v, ok := l.info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
			return v.Origin()
		}
		return nil
	}
	// ast.Inspect visits a node before its children, so a write marks
	// its target selectors before the walk reaches them.
	target := map[*ast.SelectorExpr]bool{}
	mark := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				if fieldOf(x) == nil {
					return
				}
				target[x] = true
				e = x.X
			default:
				return
			}
		}
	}
	for _, files := range l.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						mark(e)
					}
				case *ast.IncDecStmt:
					mark(n.X)
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						mark(n.Key)
						mark(n.Value)
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						mark(n.X)
					}
				case *ast.SelectorExpr:
					if s := l.info.Selections[n]; s != nil && s.Kind() == types.MethodVal {
						if _, ptr := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
							mark(n.X)
						}
					}
					if v := fieldOf(n); v != nil {
						if target[n] {
							writes[v] = true
						} else {
							reads[v] = true
						}
					}
				case *ast.CompositeLit:
					t := l.info.TypeOf(n)
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							writes[l.info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin()] = true
						} else {
							writes[st.Field(i).Origin()] = true
						}
					}
				}
				return true
			})
		}
	}
	return reads, writes
}

// interfaces gathers every interface type the loaded code can see: the
// named interfaces of each package it reaches, standard library
// included, and the interface types its own expressions use.
func (l *repo) interfaces() []*types.Interface {
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
			if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
				return
			}
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range l.pkgs {
		visit(p)
	}
	for _, tv := range l.info.Types {
		if tv.IsType() {
			add(tv.Type)
		}
	}
	return out
}
