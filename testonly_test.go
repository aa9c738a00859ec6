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
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed names the functions and methods that no non-test code
// calls but that stay on purpose, each with the reason. Keys are the
// package's directory relative to the repository root, then the
// receiver's type name for a method, then the function's name.
var testOnlyAllowed = map[string]string{
	// Paper baselines the facade exports whole (movr.StaticWHDI, movr.MultiAP).
	"internal/baseline.StaticWHDI.Setup":    "wireless-HDMI baseline (§2) that movr.StaticWHDI exports",
	"internal/baseline.StaticWHDI.Evaluate": "wireless-HDMI baseline (§2) that movr.StaticWHDI exports",
	"internal/baseline.MultiAP.Best":        "multi-AP baseline (§1) that movr.MultiAP exports",

	// Reached from production code through an interface the loaded
	// packages do not declare.
	"internal/experiments.BayPlayerError.Unwrap": "RunSessionVariant unwraps the lone player's error with errors.Unwrap",

	// Oracles and bounds that tests check production code against.
	"internal/geom.SpecularPoint":            "the channel golden tests rebuild reflection points with it",
	"internal/channel.Tracer.TraceInto":      "BenchmarkTracerInto prices the allocation-free full trace through it",
	"internal/relay.CombineSNRdB":            "closed-form relay combine that relay_test holds EndToEnd to",
	"internal/relay.Bound":                   "TestQuickCombinedBelowBound holds the relay SNR below the weaker hop",
	"internal/relay.HopBudget.SNRdB":         "per-hop SNR that TestEndToEndMatchesClosedForm builds the closed form from",
	"internal/radio.LinkSNRAligned":          "aligned LOS SNR that the baseline and radio tests compare against",
	"internal/fleet.MetricSketch.ErrorBound": "documented sketch bound the stream-vs-exact tests hold percentiles to",

	// Fixtures that model-pinning tests need.
	"internal/room.NewLivingRoom":         "furnished room of the channel golden traces and living-room tests",
	"internal/room.Column":                "pillar that TestBlockageDegradesMeasurement blocks the sweep with",
	"internal/room.Room.AddWall":          "interior walls of the golden traces and PathCache retrace tests",
	"internal/room.Room.RemoveObstacle":   "obstacle-set change the PathCache retrace and epoch tests drive",
	"internal/stats.LinearFit":            "TestFig8ReproducesPaperShape fits the Fig 8 error trend with it",
	"internal/stats.MeanAbsError":         "TestFig7ReproducesPaperShape measures the Fig 7 curve error with it",
	"internal/stream.Run":                 "single-session frame streamer the streaming model tests pin",
	"internal/stream.ConstantRate":        "fixed-rate link the streaming model tests drive Run with",
	"internal/stream.RequiredRateBps":     "VR display rate the streaming tests run links exactly at",
	"internal/dsp.SignalPower":            "measures synthesized noise and OFDM signal power in the dsp and ofdm tests",
	"internal/amplifier.Default":          "calibrated amplifier the amplifier model tests build",
	"internal/amplifier.VGA.SetGainDB":    "puts the amplifier at a gain in dB for the amplifier and reflector tests",
	"internal/amplifier.VGA.SetEnabled":   "switches the chain off for the disabled-device tests",
	"internal/antenna.Array.BeamwidthDeg": "TestBeamwidthMatchesPaper holds the half-power beamwidth to the paper's ~10°",
	"internal/channel.Tracer.Trace":       "default-height trace the channel, radio and baseline tests build paths with",
	"internal/radio.New":                  "generic radio the baseline testbed is built from",
	"internal/control.WireToCurrent":      "decodes the controller's current readout in the control and reflector tests",
	"internal/sim.Engine.After":           "relative-delay scheduling that TestAfterAndNow pins nested virtual time through",

	// Accessors that let tests observe state production code keeps.
	"internal/geom.Segment.PointAt":           "the direct-trace and drive-level tests place points along legs",
	"internal/geom.Vec.AlmostEqual":           "tolerance comparison across the geometry tests",
	"internal/metrics.Gauge.Value":            "reads a gauge in the metrics tests",
	"internal/metrics.CounterVec.Value":       "reads one labelled counter in the metrics tests",
	"internal/metrics.Histogram.Count":        "reads a histogram's sample count in the metrics tests",
	"internal/server.Job.Err":                 "reports a job's failure in the scheduler and coalescing tests",
	"internal/server.Server.Scheduler":        "lets server tests substitute the scheduler's executor",
	"internal/channel.PathCache.Stats":        "query-tier counters the PathCache tests assert on",
	"internal/control.Link.Stats":             "exchange and drop counts the lossy-link tests assert on",
	"internal/ofdm.Modem.Config":              "modem layout the ofdm tests read",
	"internal/reflector.Reflector.TXBeamDeg":  "transmit beam the reflector, controller and link-manager tests assert on",
	"internal/reflector.Reflector.Modulating": "OOK state the controller tests check the alignment commands set",

	// The movrd client's read and error surface, checked against a live
	// daemon so client/server drift fails a test.
	"internal/movrclient.Client.Get":  "job status read that client_test checks against movrd",
	"internal/movrclient.Client.List": "cursor listing that client_test walks against movrd",
	"internal/movrclient.IsCode":      "typed error-code check of client_test",
}

// TestNoTestOnlyCode fails on any function or method, in either module
// of the repository, that no non-test code references: what only
// _test.go files call, or nothing calls at all. Such code is maintained,
// documented and reviewed but never runs in the simulator, the daemon,
// the commands or the examples; delete it with the test that covers it. A method that implements a method of an interface
// the code can see, a name the movr.go facade declares, and an entry
// of testOnlyAllowed are exempt. An allowlist entry that non-test code
// has since come to reference, or that names nothing, fails too.
func TestNoTestOnlyCode(t *testing.T) {
	l, err := loadRepo(".")
	if err != nil {
		t.Fatal(err)
	}
	ifaces := l.interfaces()
	found := map[string]bool{}
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
		case d.facade || d.implements(ifaces):
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
	sort.Strings(testOnly)
	if len(testOnly) > 0 {
		t.Errorf("%d functions have no caller outside tests; delete them with the tests that cover them, or add each to testOnlyAllowed with the reason it stays:\n\t%s",
			len(testOnly), strings.Join(testOnly, "\n\t"))
	}
}

// repo is every non-test package of both modules, type-checked from
// source into one universe, with the standard library from export data.
type repo struct {
	fset  *token.FileSet
	root  string
	dirs  map[string]*build.Package // by import path
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	info  *types.Info
	std   types.Importer
	decls []decl
	used  map[*types.Func]bool
}

// decl is one top-level function or method declaration.
type decl struct {
	fn     *types.Func
	dir    string // package directory relative to the repository root, "movr" for the root
	facade bool   // declared in the root package's movr.go
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
// ifaces requires of its receiver type.
func (d decl) implements(ifaces []*types.Interface) bool {
	r := d.recv()
	if r == nil {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == d.fn.Name() &&
				(types.Implements(r, it) || types.Implements(types.NewPointer(r), it)) {
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
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
		used: map[*types.Func]bool{},
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

// record collects path's declarations and marks every function its
// code references, except a function's references to itself.
func (l *repo) record(path string) {
	rel, _ := filepath.Rel(l.root, l.dirs[path].Dir)
	rel = filepath.ToSlash(rel)
	for _, f := range l.files[path] {
		facade := rel == "." && filepath.Base(l.fset.Position(f.Pos()).Filename) == "movr.go"
		for _, d := range f.Decls {
			var self *types.Func
			if fd, ok := d.(*ast.FuncDecl); ok {
				self = l.info.Defs[fd.Name].(*types.Func)
				isMain := fd.Recv == nil && fd.Name.Name == "main" && self.Pkg().Name() == "main"
				if fd.Name.Name != "init" && !isMain {
					name := rel
					if name == "." {
						name = "movr"
					}
					l.decls = append(l.decls, decl{fn: self, dir: name, facade: facade})
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := l.info.Uses[id].(*types.Func); ok && fn.Origin() != self {
						l.used[fn.Origin()] = true
					}
				}
				return true
			})
		}
	}
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
