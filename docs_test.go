package attache_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"unicode"

	"attache/internal/exp"
)

// docFiles are the documents whose backticked names must name something
// in the tree.
var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// docAllowlist names the frames inside the standard library that a
// document cites although no code here can name them: an unexported
// function or type of an imported package, or anything of a package the
// module does not import. Ten entries at most; each says which
// measurement cites it.
var docAllowlist = map[string]string{
	"context.(*cancelCtx).Err": "DESIGN.md §12: the mutex DoCtx's entry check takes on go1.24, 11 % of a one-op near hit's CPU",
}

// TestDocsNameRealCode holds DESIGN.md, README.md and EXPERIMENTS.md to
// the tree at hand. It parses every Go file of the module and of bench/,
// tests included, with go/parser alone, and fails on any code span that
// names nothing:
//
//   - pkg.Name, pkg.Type.Member, pkg.(*Type).Method: pkg is a package
//     of the tree (by its name; a main package by its directory) and
//     declares Name, or a type with that method or field;
//   - Type.Member and (*Type).Method: some package declares the type
//     with that member;
//   - a bare Name in mixed case (a lower-case word is prose, a flag
//     value or a metric; an upper-case one an acronym): some package
//     declares it as a package-level name, a method or a field;
//   - pkg:TestName, the form the test suite prints: pkg declares it;
//   - a qualifier the tree imports from outside, such as json: every
//     name after it must be exported, since only an export is citable
//     from here; a deeper frame needs docAllowlist;
//   - a repository path or file name: it exists (<placeholder> and *
//     match anything);
//   - layer.metric: BENCHMARK.json declares it;
//   - attached, attacheload, attachesim or linecomp followed by -flags,
//     in a code span or a fenced block: the command defines each flag.
//
// DESIGN.md's experiment index and layout are checked against the tree
// as well: §3 lists exp.Experiments() in order, §5's layout names every
// directory that holds non-test Go code, and §2 every internal package.
func TestDocsNameRealCode(t *testing.T) {
	if len(docAllowlist) > 10 {
		t.Fatalf("allowlist holds %d names, the bound is 10", len(docAllowlist))
	}
	tree := parseDocTree(t)
	docs := map[string]string{}
	cited := map[string]bool{}
	for _, doc := range docFiles {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		docs[doc] = string(text)
		spans, fenced := codeSpans(docs[doc])
		for _, s := range spans {
			for _, p := range tree.problems(s.text) {
				if _, ok := docAllowlist[p.name]; ok {
					cited[p.name] = true
					continue
				}
				t.Errorf("%s:%d: `%s` %s", doc, s.line, p.name, p.why)
			}
		}
		for _, s := range fenced {
			for _, p := range tree.flagProblems(s.text) {
				t.Errorf("%s:%d: `%s` %s", doc, s.line, p.name, p.why)
			}
		}
	}
	for name := range docAllowlist {
		switch {
		case !cited[name]:
			t.Errorf("allowlist entry %s is cited by no document: drop it", name)
		case len(tree.problems(name)) == 0:
			t.Errorf("allowlist entry %s resolves in the tree: drop it", name)
		}
	}

	sections := designSections(docs["DESIGN.md"])
	var ids []string
	for _, e := range exp.Experiments() {
		ids = append(ids, e.ID)
	}
	if got := firstColumn(sections["3"]); !slices.Equal(got, ids) {
		t.Errorf("DESIGN.md §3 indexes experiments %v; exp.Experiments() registers %v", got, ids)
	}
	_, layout := codeSpans(sections["5"])
	listed := map[string]bool{}
	for _, l := range layout {
		if f := strings.Fields(l.text); len(f) > 0 {
			listed[strings.TrimSuffix(f[0], "/")] = true
		}
	}
	for _, dir := range tree.programDirs {
		if !listed[dir] {
			t.Errorf("DESIGN.md §5's layout does not list %s/, which holds non-test Go code", dir)
		}
		if strings.HasPrefix(dir, "internal/") && !strings.Contains(sections["2"], "`"+dir+"`") {
			t.Errorf("DESIGN.md §2's inventory has no row for `%s`", dir)
		}
	}
}

// docTree is what the documents may name: the declarations, the files
// and the command-line flags of the tree.
type docTree struct {
	decls       map[string]map[string]bool            // package -> package-level names
	members     map[string]map[string]map[string]bool // package -> type -> methods and fields
	typeMembers map[string]map[string]bool            // type name, any package -> methods and fields
	names       map[string]bool                       // every declared name, method and field
	imports     map[string]bool                       // names of the packages imported from outside the module
	flags       map[string]map[string]bool            // command -> the flags it defines
	metrics     map[string]bool                       // the metrics BENCHMARK.json declares
	paths       []string                              // every file and directory, slash-separated
	dirs        map[string]bool
	programDirs []string // directories holding non-test Go code, sorted
}

func parseDocTree(t *testing.T) *docTree {
	tr := &docTree{
		decls:       map[string]map[string]bool{},
		members:     map[string]map[string]map[string]bool{},
		typeMembers: map[string]map[string]bool{},
		names:       map[string]bool{},
		imports:     map[string]bool{},
		flags:       map[string]map[string]bool{},
		dirs:        map[string]bool{},
		metrics:     map[string]bool{},
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &bench)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		tr.metrics[m.Name] = true
	}
	fset := token.NewFileSet()
	programs := map[string]bool{}
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			tr.dirs[p] = true
		}
		tr.paths = append(tr.paths, p)
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.Contains("/"+p, "/testdata/") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := path.Dir(p)
		if !strings.HasSuffix(p, "_test.go") && dir != "." {
			programs[dir] = true
		}
		tr.add(packageKey(f, dir), f)
		if strings.HasPrefix(dir, "cmd/") && path.Base(p) == "main.go" {
			tr.addFlags(path.Base(dir), f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir := range programs {
		tr.programDirs = append(tr.programDirs, dir)
	}
	sort.Strings(tr.programDirs)
	return tr
}

// packageKey is the name a document qualifies the file's package by:
// its package clause, without an external test's suffix, or for a main
// package its directory.
func packageKey(f *ast.File, dir string) string {
	name := strings.TrimSuffix(f.Name.Name, "_test")
	if name == "main" {
		return path.Base(dir)
	}
	return name
}

func (tr *docTree) add(pkg string, f *ast.File) {
	if tr.decls[pkg] == nil {
		tr.decls[pkg] = map[string]bool{}
		tr.members[pkg] = map[string]map[string]bool{}
	}
	member := func(typ, name string) {
		if tr.members[pkg][typ] == nil {
			tr.members[pkg][typ] = map[string]bool{}
		}
		if tr.typeMembers[typ] == nil {
			tr.typeMembers[typ] = map[string]bool{}
		}
		tr.members[pkg][typ][name] = true
		tr.typeMembers[typ][name] = true
		tr.names[name] = true
	}
	decl := func(name string) {
		tr.decls[pkg][name] = true
		tr.names[name] = true
	}
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p == "attache" || strings.HasPrefix(p, "attache/") {
			continue
		}
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		} else if majorRE.MatchString(name) {
			name = path.Base(path.Dir(p))
		}
		tr.imports[name] = true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				decl(d.Name.Name)
			} else {
				member(typeName(d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					decl(s.Name.Name)
					tr.addMembers(s.Name.Name, s.Type, member)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						decl(n.Name)
					}
				}
			}
		}
	}
}

// addMembers records a type's fields (an embedded one by its type's
// name, an anonymous struct's fields as its own) and an interface's
// methods.
func (tr *docTree) addMembers(typ string, x ast.Expr, member func(typ, name string)) {
	var fields *ast.FieldList
	switch x := x.(type) {
	case *ast.StructType:
		fields = x.Fields
	case *ast.InterfaceType:
		fields = x.Methods
	default:
		return
	}
	for _, f := range fields.List {
		for _, n := range f.Names {
			member(typ, n.Name)
		}
		if len(f.Names) == 0 {
			member(typ, typeName(f.Type))
		}
		tr.addMembers(typ, f.Type, member)
	}
}

// typeName is the name of a receiver or embedded type: T for T, *T,
// pkg.T and T[P].
func typeName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	}
	return ""
}

// addFlags records the flags a command's main.go defines: the first
// string literal of every flag.T(…) or fs.T(…) call that defines one.
func (tr *docTree) addFlags(cmd string, f *ast.File) {
	defined := map[string]bool{}
	tr.flags[cmd] = defined
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" && x.Name != "fs" || !flagDefRE.MatchString(sel.Sel.Name) {
			return true
		}
		for _, a := range call.Args {
			if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				defined[strings.Trim(lit.Value, "`\"")] = true
				break
			}
		}
		return true
	})
}

// problem is one name a code span cites that the tree does not hold.
type problem struct{ name, why string }

var (
	chainRE       = regexp.MustCompile(`^(?:[A-Za-z_]\w*|\(\*[A-Za-z_]\w*\))(?:\.(?:[A-Za-z_]\w*|\(\*[A-Za-z_]\w*\)))*$`)
	testRefRE     = regexp.MustCompile(`^([a-z]\w*):((?:Test|Fuzz|Benchmark|Example)\w*)(?:/\S*)?$`)
	subTestRE     = regexp.MustCompile(`^((?:Test|Fuzz|Benchmark)\w*)/`)
	fileNameRE    = regexp.MustCompile(`^[\w.*<>\-]+\.(?:go|md|json|sh|txt|snapv1|families|mod|yml)$`)
	braceRE       = regexp.MustCompile(`^([^{}\s]*)\{([^{}\s]+)\}([^{}\s]*)$`)
	majorRE       = regexp.MustCompile(`^v[0-9]+$`)
	flagDefRE     = regexp.MustCompile(`^(?:(?:Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)(?:Var)?|(?:Bool)?Func|(?:Text)?Var)$`)
	placeholderRE = regexp.MustCompile(`<[^>]*>`)
)

// problems checks one code span.
func (tr *docTree) problems(span string) []problem {
	span = strings.TrimSpace(span)
	if strings.ContainsAny(span, " \t") {
		return tr.flagProblems(span)
	}
	if m := braceRE.FindStringSubmatch(span); m != nil {
		var ps []problem
		for _, alt := range strings.Split(m[2], ",") {
			ps = append(ps, tr.problems(m[1]+alt+m[3])...)
		}
		return ps
	}
	if m := testRefRE.FindStringSubmatch(span); m != nil {
		switch {
		case tr.decls[m[1]] == nil:
			return []problem{{span, "names no package of the tree"}}
		case !tr.decls[m[1]][m[2]]:
			return []problem{{span, "is not declared in package " + m[1]}}
		}
		return nil
	}
	if m := subTestRE.FindStringSubmatch(span); m != nil {
		span = m[1]
	}
	if strings.Contains(span, "/") || fileNameRE.MatchString(span) {
		return tr.pathProblems(span)
	}
	span = strings.TrimLeft(span, "*&[]")
	if strings.HasSuffix(span, ")") {
		if i := strings.LastIndex(span, "("); i > 0 && span[i+1] != '*' {
			span = span[:i]
		}
	}
	if !chainRE.MatchString(span) || tr.metrics[span] {
		return nil
	}
	if why := tr.resolve(span); why != "" {
		return []problem{{span, why}}
	}
	return nil
}

// resolve checks an identifier chain and says what is wrong with it.
func (tr *docTree) resolve(chain string) string {
	segs := strings.Split(strings.NewReplacer("(*", "", ")", "").Replace(chain), ".")
	first := segs[0]
	if len(segs) == 1 {
		if !mixedCase(first) || tr.names[first] {
			return ""
		}
		return "is declared nowhere in the tree"
	}
	loose := func(rest []string) string {
		for _, s := range rest {
			if !tr.names[s] {
				return fmt.Sprintf("has %s, which no type of the tree declares", s)
			}
		}
		return ""
	}
	switch {
	case tr.decls[first] != nil:
		name := segs[1]
		if len(segs) == 2 && tr.pkgMember(first, name) {
			return ""
		}
		if !tr.decls[first][name] {
			return "is not declared in package " + first
		}
		if len(segs) == 2 {
			return ""
		}
		if ms := tr.members[first][name]; ms != nil || strings.Contains(chain, "(*") {
			if !ms[segs[2]] {
				return fmt.Sprintf("%s.%s has no method or field %s", first, name, segs[2])
			}
			return loose(segs[3:])
		}
		return loose(segs[2:])
	case tr.typeMembers[first] != nil:
		if !tr.typeMembers[first][segs[1]] {
			return fmt.Sprintf("no type %s of the tree has a method or field %s", first, segs[1])
		}
		return loose(segs[2:])
	case tr.imports[first]:
		for _, s := range segs[1:] {
			if !token.IsExported(s) {
				return "is unexported in a package outside the tree"
			}
		}
		return ""
	}
	return "has a qualifier that is no package, type or import of the tree"
}

// pkgMember reports whether some type of package pkg has a method or
// field called name: `client.DoCtx` names Client's DoCtx.
func (tr *docTree) pkgMember(pkg, name string) bool {
	for _, ms := range tr.members[pkg] {
		if ms[name] {
			return true
		}
	}
	return false
}

// mixedCase reports whether a bare word reads as a Go name rather than
// prose, a flag value or an acronym: it has both cases.
func mixedCase(s string) bool {
	return strings.IndexFunc(s, unicode.IsUpper) >= 0 && strings.IndexFunc(s, unicode.IsLower) >= 0
}

// pathProblems checks a repository path or file name. A route (/v1/…),
// a standard library import path and a bench sub-benchmark name are not
// repository paths: a span is one when its first element is an entry at
// the root, when it is an attache/… import path, or when it ends in a
// file name or a slash.
func (tr *docTree) pathProblems(span string) []problem {
	p := strings.TrimPrefix(span, "./")
	if strings.HasPrefix(p, "/") {
		return nil
	}
	if p == "attache" || strings.HasPrefix(p, "attache/") {
		p = strings.TrimPrefix(strings.TrimPrefix(p, "attache"), "/")
		if p == "" {
			return nil
		}
	} else if first, _, _ := strings.Cut(p, "/"); !tr.dirs[first] &&
		!strings.HasSuffix(p, "/") && !fileNameRE.MatchString(path.Base(p)) {
		return nil
	}
	wantDir := strings.HasSuffix(p, "/")
	pattern := placeholderRE.ReplaceAllString(strings.TrimSuffix(p, "/"), "*")
	n := strings.Count(pattern, "/") + 1
	for _, q := range tr.paths {
		elems := strings.Split(q, "/")
		if len(elems) < n || wantDir && !tr.dirs[q] {
			continue
		}
		if ok, _ := path.Match(pattern, strings.Join(elems[len(elems)-n:], "/")); ok {
			return nil
		}
	}
	return []problem{{span, "is no file or directory of the tree"}}
}

// flagProblems checks the -flags that follow a command's name on one
// line of text.
func (tr *docTree) flagProblems(line string) []problem {
	var ps []problem
	var cmd string
	for _, w := range strings.Fields(line) {
		w = strings.TrimRight(strings.TrimLeft(w, "("), "),;:.")
		if _, ok := tr.flags[path.Base(strings.TrimSuffix(w, "/"))]; ok {
			cmd = path.Base(strings.TrimSuffix(w, "/"))
			continue
		}
		if cmd == "" || len(w) < 2 || w[0] != '-' || w[1] >= '0' && w[1] <= '9' {
			continue
		}
		name, _, _ := strings.Cut(strings.TrimLeft(w, "-"), "=")
		if prefix, ok := strings.CutSuffix(name, "*"); ok {
			found := false
			for f := range tr.flags[cmd] {
				found = found || strings.HasPrefix(f, prefix)
			}
			if !found {
				ps = append(ps, problem{cmd + " " + w, "matches no flag " + cmd + " defines"})
			}
		} else if !tr.flags[cmd][name] {
			ps = append(ps, problem{cmd + " -" + name, "is no flag " + cmd + " defines"})
		}
	}
	return ps
}

// docSpan is a code span, or one line of a fenced block, and the line it
// starts on.
type docSpan struct {
	text string
	line int
}

// codeSpans returns a Markdown text's inline code spans and the lines of
// its fenced blocks. A span may cross lines; it closes at the next run
// of as many backticks as opened it.
func codeSpans(doc string) (spans, fenced []docSpan) {
	lines := strings.Split(doc, "\n")
	inFence := false
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			inFence = !inFence
			lines[i] = ""
			continue
		}
		if inFence {
			fenced = append(fenced, docSpan{l, i + 1})
			lines[i] = ""
		}
	}
	prose := strings.Join(lines, "\n")
	line := 1
	for i := 0; i < len(prose); {
		if prose[i] != '`' {
			if prose[i] == '\n' {
				line++
			}
			i++
			continue
		}
		n := 1
		for i+n < len(prose) && prose[i+n] == '`' {
			n++
		}
		run := prose[i : i+n]
		end := -1
		for j := i + n; j < len(prose); {
			k := strings.Index(prose[j:], run)
			if k < 0 {
				break
			}
			k += j
			m := k + n
			for m < len(prose) && prose[m] == '`' {
				m++
			}
			if m-k == n {
				end = k
				break
			}
			j = m
		}
		if end < 0 {
			i += n
			continue
		}
		text := prose[i+n : end]
		spans = append(spans, docSpan{strings.TrimSpace(strings.ReplaceAll(text, "\n", " ")), line})
		line += strings.Count(text, "\n")
		i = end + n
	}
	return spans, fenced
}

// designSections splits DESIGN.md at its "## N." headings, keyed by N.
func designSections(doc string) map[string]string {
	sections := map[string]string{}
	key := ""
	for _, l := range strings.SplitAfter(doc, "\n") {
		if rest, ok := strings.CutPrefix(l, "## "); ok {
			key, _, _ = strings.Cut(rest, ".")
		}
		sections[key] += l
	}
	return sections
}

// firstColumn returns the first cell of every body row of the tables in
// a section, without backticks.
func firstColumn(section string) []string {
	var cells []string
	header := true
	for _, l := range strings.Split(section, "\n") {
		if !strings.HasPrefix(l, "|") {
			header = true
			continue
		}
		cell := strings.Trim(strings.Split(l, "|")[1], " `")
		switch {
		case header:
			header = false
		case strings.Trim(cell, "-: ") == "":
		default:
			cells = append(cells, cell)
		}
	}
	return cells
}
