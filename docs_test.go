package movr_test

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// docFiles are the documents TestDocsResolve holds to the code.
// cmd/movrbench/README.md is left out on purpose: it lives under the
// benchmark's paths, which change only together with the benchmark, and
// its layer table still lists the deleted `ofdm` package until then.
var docFiles = []string{"README.md", "ARCHITECTURE.md", "doc.go", ".claude/skills/verify/SKILL.md"}

// documentedCommands are the commands whose every flag README.md must
// document. movrbench's flags may be cited, but its own README documents
// them.
var documentedCommands = []string{"movrsim", "movrd", "movrtrace", "movrload"}

// TestDocsResolve fails, naming file:line, on any citation in docFiles
// that no longer resolves:
//   - a repository path: a token starting with one of the tree's
//     top-level directories, or a one-token code span with a file
//     extension (a bare name resolves if some file in the tree has it);
//   - a Test, Fuzz, Benchmark or Example name no _test.go declares;
//   - pkg.Name or pkg.Type.Member, where pkg names a package of the
//     repository, that the type-checked packages do not declare;
//   - `make X` for a target the Makefile lacks;
//   - a -flag its command does not register (a code span opening with
//     a flag may name any command's);
//   - a README or ARCHITECTURE section cited by its quoted title.
//
// It then checks the other direction, so that nothing documented is
// lost: README.md must cite every flag documentedCommands register and
// give every route server.New registers as a code span of its own.
func TestDocsResolve(t *testing.T) {
	l, err := loadedRepo()
	if err != nil {
		t.Fatal(err)
	}
	idx, err := indexDocs(l)
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	readmeFlags, readmeSpans := map[string]bool{}, map[string]bool{}
	for _, name := range docFiles {
		doc, err := readDoc(name)
		if err != nil {
			t.Fatal(err)
		}
		cited := map[string]bool{}
		if name == "README.md" {
			cited = readmeFlags
		}
		for _, s := range doc.segs {
			for _, msg := range idx.check(s, cited) {
				bad = append(bad, fmt.Sprintf("%s:%d: %s", name, s.line, msg))
			}
			if name == "README.md" && s.kind == spanSeg {
				readmeSpans[s.text] = true
			}
		}
		for _, ref := range sectionRef.FindAllStringSubmatchIndex(doc.text, -1) {
			file, title := doc.text[ref[2]:ref[3]], strings.Join(strings.Fields(doc.text[ref[4]:ref[5]]), " ")
			if !idx.hasSection(file+".md", title) {
				line := 1 + strings.Count(doc.text[:ref[0]], "\n")
				bad = append(bad, fmt.Sprintf("%s:%d: %s has no section %q", name, doc.lineOf(line), file, title))
			}
		}
	}
	for _, cmd := range documentedCommands {
		for _, f := range idx.flags[cmd] {
			if !readmeFlags[f] {
				bad = append(bad, fmt.Sprintf("cmd/%s registers -%s, which README.md does not document", cmd, f))
			}
		}
	}
	for _, r := range idx.routes {
		if !readmeSpans[r] {
			bad = append(bad, fmt.Sprintf("server.New registers %q, which README.md gives in no code span", r))
		}
	}
	if len(bad) > 0 {
		t.Errorf("%d citations in the docs do not match the code:\n\t%s", len(bad), strings.Join(bad, "\n\t"))
	}
}

var (
	testName   = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z_]\w*`)
	testDecl   = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
	qualified  = regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	makeCall   = regexp.MustCompile(`(?:^|[\s;&|(])make\s+([A-Za-z][\w-]*)`)
	makeTarget = regexp.MustCompile(`(?m)^([A-Za-z][\w-]*(?:[ \t]+[A-Za-z][\w-]*)*)[ \t]*:([^=]|$)`)
	flagToken  = regexp.MustCompile(`^--?([A-Za-z][A-Za-z0-9-]*)`)
	sectionRef = regexp.MustCompile(`\b(README|ARCHITECTURE)(?:\.md)?'s\s+["“]([^"”]+)["”]`)
)

// fileExts are the extensions that mark a token as a file name rather
// than pkg.Name.
var fileExts = map[string]bool{"go": true, "md": true, "json": true, "jsonl": true, "sh": true, "txt": true, "yml": true, "mod": true}

// segKind says where a piece of a document sits: an inline code span, a
// line of a code block, or doc.go prose.
type segKind int

const (
	spanSeg segKind = iota
	blockSeg
	proseSeg
)

// seg is one piece of a document that TestDocsResolve checks, with the
// line it starts on.
type seg struct {
	kind segKind
	text string
	line int
}

// doc is a document split into the segments it checks, plus its text
// with code fences, comment markers and line breaks kept, for the
// section references.
type doc struct {
	segs  []seg
	text  string
	lines []int // text line → file line
}

func (d doc) lineOf(textLine int) int { return d.lines[textLine-1] }

// readDoc splits a Markdown file into its inline code spans and its
// code-block lines, or doc.go's package comment into prose and code
// lines. A code-block line ending in a backslash is joined with the
// next.
func readDoc(name string) (doc, error) {
	raw, err := os.ReadFile(name)
	if err != nil {
		return doc{}, err
	}
	var d doc
	var text []string
	block := func(kind segKind, line int, s string) {
		if n := len(d.segs) - 1; n >= 0 && d.segs[n].kind == kind && strings.HasSuffix(d.segs[n].text, `\`) {
			d.segs[n].text = strings.TrimSuffix(d.segs[n].text, `\`) + " " + s
			return
		}
		d.segs = append(d.segs, seg{kind, s, line})
	}
	if strings.HasSuffix(name, ".go") {
		for i, ln := range strings.Split(string(raw), "\n") {
			c, ok := strings.CutPrefix(ln, "//")
			if !ok {
				if strings.HasPrefix(ln, "package ") {
					break
				}
				continue
			}
			if code, ok := strings.CutPrefix(c, "\t"); ok {
				block(blockSeg, i+1, code)
			} else {
				d.segs = append(d.segs, seg{proseSeg, c, i + 1})
			}
			text = append(text, c)
			d.lines = append(d.lines, i+1)
		}
		d.text = strings.Join(text, "\n")
		return d, nil
	}
	fenced := false
	for i, ln := range strings.Split(string(raw), "\n") {
		d.lines = append(d.lines, i+1)
		if strings.HasPrefix(strings.TrimSpace(ln), "```") {
			fenced = !fenced
			text = append(text, "")
			continue
		}
		if fenced {
			block(blockSeg, i+1, ln)
			text = append(text, "")
			continue
		}
		text = append(text, ln)
	}
	d.text = strings.Join(text, "\n")
	// Inline code spans outside the fences; a span may cross lines.
	for i := 0; i < len(d.text); {
		if d.text[i] != '`' {
			i++
			continue
		}
		n := 1
		for i+n < len(d.text) && d.text[i+n] == '`' {
			n++
		}
		fence := d.text[i : i+n]
		end := strings.Index(d.text[i+n:], fence)
		if end < 0 { // an unmatched backtick is literal text
			i += n
			continue
		}
		body := d.text[i+n : i+n+end]
		line := d.lineOf(1 + strings.Count(d.text[:i], "\n"))
		body = strings.Join(strings.Fields(strings.ReplaceAll(body, `\|`, "|")), " ")
		d.segs = append(d.segs, seg{spanSeg, body, line})
		i += 2*n + end
	}
	return d, nil
}

// docIndex is what the docs may cite: the tree's files, the declared
// tests, the Makefile's targets, each command's flags, the daemon's
// routes, the repository's packages by name and the section titles.
type docIndex struct {
	files    map[string]bool // slash paths of files and directories
	base     map[string]bool // file base names
	top      map[string]bool // top-level directory names
	pkgDirs  map[string]bool // directories holding a package
	tests    map[string]bool
	targets  map[string]bool
	flags    map[string][]string // command → flag names
	allFlags map[string]bool
	routes   []string
	pkgs     map[string][]*types.Package // by package name
	sections map[string][]string         // document → heading titles
}

func indexDocs(l *repo) (*docIndex, error) {
	idx := &docIndex{
		files: map[string]bool{}, base: map[string]bool{}, top: map[string]bool{},
		pkgDirs: map[string]bool{}, tests: map[string]bool{}, targets: map[string]bool{},
		flags: map[string][]string{}, allFlags: map[string]bool{},
		pkgs: map[string][]*types.Package{}, sections: map[string][]string{},
	}
	err := filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err != nil || p == "." {
			return err
		}
		n := e.Name()
		if e.IsDir() && strings.HasPrefix(n, ".") && n != ".github" && n != ".claude" {
			return filepath.SkipDir
		}
		p = filepath.ToSlash(p)
		idx.files[p] = true
		if e.IsDir() {
			if !strings.Contains(p, "/") {
				idx.top[p] = true
			}
			return nil
		}
		idx.base[n] = true
		if strings.HasSuffix(n, "_test.go") {
			src, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			for _, m := range testDecl.FindAllSubmatch(src, -1) {
				idx.tests[string(m[1])] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		return nil, err
	}
	for _, m := range makeTarget.FindAllSubmatch(mk, -1) {
		for _, target := range strings.Fields(string(m[1])) {
			idx.targets[target] = true
		}
	}
	for _, name := range []string{"README.md", "ARCHITECTURE.md"} {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		for _, ln := range strings.Split(string(src), "\n") {
			if title, ok := strings.CutPrefix(ln, "#"); ok {
				idx.sections[name] = append(idx.sections[name], strings.TrimSpace(strings.TrimLeft(title, "#")))
			}
		}
	}
	for p, pkg := range l.pkgs {
		rel, _ := filepath.Rel(l.root, l.dirs[p].Dir)
		rel = filepath.ToSlash(rel)
		idx.pkgDirs[rel] = true
		if pkg.Name() != "main" {
			idx.pkgs[pkg.Name()] = append(idx.pkgs[pkg.Name()], pkg)
		}
		switch cmd, isCmd := strings.CutPrefix(rel, "cmd/"); {
		case isCmd:
			idx.flags[cmd] = registeredFlags(l, p)
			for _, f := range idx.flags[cmd] {
				idx.allFlags[f] = true
			}
		case rel == "internal/server":
			idx.routes = serverRoutes(l, p)
		}
	}
	return idx, nil
}

// flagFuncs are the flag package's functions and methods that register a
// flag, each with the index of the argument that names it.
var flagFuncs = map[string]int{
	"Bool": 0, "BoolFunc": 0, "Duration": 0, "Float64": 0, "Func": 0, "Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "Int64Var": 1, "IntVar": 1, "StringVar": 1, "TextVar": 1, "Uint64Var": 1, "UintVar": 1, "Var": 1,
}

// builtinFlags are the flags the flag package answers for every command.
var builtinFlags = map[string]bool{"h": true, "help": true}

// registeredFlags returns the flag names a command's package registers
// through the flag package, sorted.
func registeredFlags(l *repo, path string) []string {
	out := []string{}
	for _, f := range l.files[path] {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := l.info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
				return true
			}
			arg, ok := flagFuncs[fn.Name()]
			if !ok {
				return true
			}
			if len(call.Args) > arg {
				if tv := l.info.Types[call.Args[arg]]; tv.Value != nil && tv.Value.Kind() == constant.String {
					out = append(out, constant.StringVal(tv.Value))
				}
			}
			return true
		})
	}
	sort.Strings(out)
	return out
}

// serverRoutes returns the patterns server.New registers on its mux.
func serverRoutes(l *repo, path string) []string {
	var out []string
	for _, f := range l.files[path] {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Name.Name != "New" {
				continue
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && len(call.Args) == 2 {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "HandleFunc" || sel.Sel.Name == "Handle") {
						if tv := l.info.Types[call.Args[0]]; tv.Value != nil && tv.Value.Kind() == constant.String {
							out = append(out, constant.StringVal(tv.Value))
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// check returns what in s does not resolve, and adds the flags s cites
// to cited.
func (idx *docIndex) check(s seg, cited map[string]bool) []string {
	var bad []string
	for _, name := range testName.FindAllString(s.text, -1) {
		if !idx.tests[name] {
			bad = append(bad, fmt.Sprintf("%s: no _test.go declares it", name))
		}
	}
	for _, m := range qualified.FindAllStringSubmatch(s.text, -1) {
		if msg := idx.resolveName(m[1], m[2], m[3]); msg != "" {
			bad = append(bad, msg)
		}
	}
	if s.kind != proseSeg {
		for _, m := range makeCall.FindAllStringSubmatch(s.text, -1) {
			if !idx.targets[m[1]] {
				bad = append(bad, fmt.Sprintf("make %s: the Makefile has no such target", m[1]))
			}
		}
	}
	toks := strings.Fields(s.text)
	cmd := ""
	for i, tok := range toks {
		switch tok {
		case "|", "||", "&&", ";", "&", ">", "2>", "<", "#":
			cmd = ""
			continue
		}
		if c := path.Base(strings.TrimRight(tok, ".,;:)")); idx.flags[c] != nil {
			cmd = c
			continue
		}
		if m := flagToken.FindStringSubmatch(tok); m != nil {
			f := m[1]
			switch {
			case cmd != "":
				cited[f] = true
				if !slices.Contains(idx.flags[cmd], f) && !builtinFlags[f] {
					bad = append(bad, fmt.Sprintf("%s -%s: %s registers no such flag", cmd, f, cmd))
				}
			case i == 0 || s.kind == proseSeg:
				cited[f] = true
				if !idx.allFlags[f] && !builtinFlags[f] {
					bad = append(bad, fmt.Sprintf("-%s: no command registers this flag", f))
				}
			}
			continue
		}
		if msg := idx.resolvePath(tok, s.kind == proseSeg || (s.kind == spanSeg && len(toks) == 1)); msg != "" {
			bad = append(bad, msg)
		}
	}
	return bad
}

// resolveName checks pkg.name or pkg.name.member when pkg names one of
// the repository's packages.
func (idx *docIndex) resolveName(pkg, name, member string) string {
	pkgs := idx.pkgs[pkg]
	if len(pkgs) == 0 || (member == "" && fileExts[name]) {
		return ""
	}
	cite := pkg + "." + name
	if member != "" {
		cite += "." + member
	}
	for _, p := range pkgs {
		obj := p.Scope().Lookup(name)
		if obj == nil {
			continue
		}
		if member == "" {
			return ""
		}
		if m, _, _ := types.LookupFieldOrMethod(obj.Type(), true, p, member); m != nil {
			return ""
		}
	}
	return fmt.Sprintf("%s: the package does not declare it", cite)
}

// resolvePath checks a token that names a repository path: one that
// starts with a top-level directory of the tree, or, when bare is set,
// one with a file extension, which resolves if some file has its name
// or ends with it. A placeholder (<sha>, *, $dir) is not checked.
func (idx *docIndex) resolvePath(tok string, bare bool) string {
	tok = strings.TrimLeft(tok, `"'([`)
	tok = strings.TrimRight(tok, `"'),;:.]`)
	tok = strings.TrimPrefix(tok, "./")
	if strings.ContainsAny(tok, "<>*$%=") || strings.Contains(tok, "://") {
		return ""
	}
	first, _, nested := strings.Cut(tok, "/")
	ext := ""
	if i := strings.LastIndex(tok, "."); i > strings.LastIndex(tok, "/") {
		ext, _, _ = strings.Cut(tok[i+1:], ":")
		tok = tok[:i+1] + ext
	}
	switch {
	case nested && idx.top[first]:
	case bare && fileExts[ext]:
	default:
		return ""
	}
	if i := strings.LastIndex(tok, "/"); i >= 0 {
		if dir, _, ok := strings.Cut(tok[i:], "."); ok && idx.pkgDirs[tok[:i]+dir] && !fileExts[ext] {
			return "" // a package-qualified name, which resolveName checks
		}
	}
	for _, p := range expandBraces(tok) {
		p = strings.TrimSuffix(strings.TrimSuffix(p, "/..."), "/")
		if p == "..." || idx.files[p] || (!strings.Contains(p, "/") && idx.base[p]) || idx.endsWith(p) {
			continue
		}
		return fmt.Sprintf("%s: no such file or directory in the tree", p)
	}
	return ""
}

// endsWith reports whether some file's path ends with /p.
func (idx *docIndex) endsWith(p string) bool {
	for f := range idx.files {
		if strings.HasSuffix(f, "/"+p) {
			return true
		}
	}
	return false
}

// hasSection reports whether a document has a heading that starts with
// title.
func (idx *docIndex) hasSection(doc, title string) bool {
	for _, h := range idx.sections[doc] {
		if strings.HasPrefix(h, title) {
			return true
		}
	}
	return false
}

// expandBraces expands one {a,b,...} group: internal/{room,geom} names
// internal/room and internal/geom.
func expandBraces(p string) []string {
	i := strings.Index(p, "{")
	j := strings.Index(p, "}")
	if i < 0 || j < i {
		return []string{p}
	}
	var out []string
	for _, alt := range strings.Split(p[i+1:j], ",") {
		out = append(out, p[:i]+alt+p[j+1:])
	}
	return out
}
