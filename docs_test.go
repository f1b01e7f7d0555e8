package historygraph_test

// TestDocsLinks is the docs gate: every relative cross-reference in
// README.md and docs/*.md must point at a file that exists, and every
// #anchor must resolve to a real heading in its target — so the
// architecture guide, wire spec, and runbook cannot silently drift
// apart. External (http/https/mailto) links are out of scope.

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches [text](target) while skipping images and code spans
// crudely enough for these docs.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// headingAnchor converts a markdown heading line to its GitHub-style
// anchor: lowercase, punctuation stripped, spaces to hyphens.
func headingAnchor(heading string) string {
	h := strings.ToLower(strings.TrimSpace(heading))
	var b strings.Builder
	for _, r := range h {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// anchorsOf returns the set of heading anchors a markdown file defines.
func anchorsOf(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	anchors := map[string]bool{}
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(line, "#") {
			continue
		}
		anchors[headingAnchor(strings.TrimLeft(line, "# "))] = true
	}
	return anchors
}

func TestDocsLinks(t *testing.T) {
	files := []string{"README.md"}
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) < 3 {
		t.Fatalf("expected at least ARCHITECTURE/WIRE/OPERATIONS under docs/, found %v", docs)
	}
	files = append(files, docs...)

	anchorCache := map[string]map[string]bool{}
	anchors := func(path string) map[string]bool {
		if a, ok := anchorCache[path]; ok {
			return a
		}
		a := anchorsOf(t, path)
		anchorCache[path] = a
		return a
	}

	var problems []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			path, frag, _ := strings.Cut(target, "#")
			resolved := file
			if path != "" {
				resolved = filepath.Join(filepath.Dir(file), path)
				if _, err := os.Stat(resolved); err != nil {
					problems = append(problems, fmt.Sprintf("%s: link %q: target does not exist", file, target))
					continue
				}
			}
			if frag != "" && strings.HasSuffix(resolved, ".md") {
				if !anchors(resolved)[frag] {
					problems = append(problems, fmt.Sprintf("%s: link %q: no heading for anchor %q in %s", file, target, frag, resolved))
				}
			}
		}
	}
	for _, p := range problems {
		t.Error(p)
	}

	// Sections other parts of the repo promise exist (server godoc and
	// the README point operators at them) must not be renamed away.
	required := map[string][]string{
		"README.md": {"observability", "load-testing"},
		filepath.Join("docs", "ARCHITECTURE.md"): {
			"the-analytics-plane", "merge-semantics",
			"pagerank-superstep-wire-flow", "the-csr-scan-substrate",
			"the-write-path", "streaming-ingest",
			"what-is-on-disk-what-is-derived",
		},
		filepath.Join("docs", "OPERATIONS.md"): {
			"observability", "metric-reference", "liveness-vs-readiness",
			"scrape-configuration", "alert-rules",
			"load-testing", "scenario-file-reference", "chaos-hooks",
			"reading-a-result-artifact",
			"analytics-endpoints", "analytics-tuning",
			"ingest-tuning-and-troubleshooting",
			"checkpoints-and-restarts",
		},
	}
	for file, want := range required {
		a := anchors(file)
		for _, anchor := range want {
			if !a[anchor] {
				t.Errorf("%s: required section anchor %q missing", file, anchor)
			}
		}
	}
}

// metricLiteral matches a metric name written as a Go string literal.
var metricLiteral = regexp.MustCompile(`"(dg_[a-z0-9_]+)"`)

// TestDocsMetricNames keeps the runbook's metric reference true: every
// metric name the non-test sources under internal/ and cmd/ spell out must
// be documented in docs/OPERATIONS.md.
func TestDocsMetricNames(t *testing.T) {
	ops, err := os.ReadFile(filepath.Join("docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]string{} // metric name -> a file that registers it
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range metricLiteral.FindAllStringSubmatch(string(src), -1) {
				names[m[1]] = path
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"dg_index_disk_bytes", "dg_index_checkpoint_bytes", "dg_index_leaves"} {
		if names[want] == "" {
			t.Errorf("index gauge %s is not registered anywhere under internal/ or cmd/", want)
		}
	}
	for name, path := range names {
		if !strings.Contains(string(ops), "`"+name+"`") && !strings.Contains(string(ops), name+"[") && !strings.Contains(string(ops), name+"{") {
			t.Errorf("%s (in %s) is not documented in docs/OPERATIONS.md", name, path)
		}
	}
}

// flagDef matches a flag registration ("flag.Int(", "fs.Bool(", ...) and
// captures the flag's name.
var flagDef = regexp.MustCompile(`\.(?:Bool|Int|Int64|Uint|Uint64|Float64|String|Duration)\(\s*"([^"]+)"`)

// codeSpan matches an inline code span; docFlag a "-flag" token inside one.
var (
	codeSpan = regexp.MustCompile("`([^`]+)`")
	docFlag  = regexp.MustCompile(`(?:^|\s)-([A-Za-z][\w-]*)`)
)

// goToolFlags are the go-toolchain flags the docs mention; no command
// under cmd/ registers them.
var goToolFlags = map[string]bool{"race": true, "shuffle": true, "benchtime": true, "count": true}

// TestDocsFlagNames keeps the runbook's flag reference true in both
// directions: every flag cmd/dgserve/main.go registers is documented in
// docs/OPERATIONS.md, and every backticked -flag in README.md and
// docs/*.md is one a command under cmd/ registers — dgserve itself when
// the code span names dgserve — so a removed flag cannot linger in the
// docs.
func TestDocsFlagNames(t *testing.T) {
	registered := map[string]map[string]bool{} // command -> its flag names
	mains, err := filepath.Glob(filepath.Join("cmd", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range mains {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cmd := filepath.Base(filepath.Dir(path))
		if registered[cmd] == nil {
			registered[cmd] = map[string]bool{}
		}
		for _, m := range flagDef.FindAllStringSubmatch(string(src), -1) {
			registered[cmd][m[1]] = true
		}
	}
	dgserve := registered["dgserve"]
	if len(dgserve) == 0 {
		t.Fatal("found no flag registrations in cmd/dgserve")
	}

	ops, err := os.ReadFile(filepath.Join("docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for name := range dgserve {
		if !strings.Contains(string(ops), "`-"+name+"`") {
			t.Errorf("dgserve flag -%s is not documented in docs/OPERATIONS.md", name)
		}
	}

	files, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range append(files, "README.md") {
		// Fenced blocks are shell transcripts, not flag references.
		for _, span := range codeSpan.FindAllStringSubmatch(strings.Join(fenceFree(t, file), "\n"), -1) {
			for _, m := range docFlag.FindAllStringSubmatch(span[1], -1) {
				name := m[1]
				if strings.Contains(span[1], "dgserve") {
					if !dgserve[name] {
						t.Errorf("%s: `%s` names -%s, which dgserve does not register", file, span[1], name)
					}
					continue
				}
				known := goToolFlags[name]
				for _, flags := range registered {
					known = known || flags[name]
				}
				if !known {
					t.Errorf("%s: `%s` names -%s, which no command under cmd/ registers", file, span[1], name)
				}
			}
		}
	}
}

// fenceFree returns a Markdown file's lines outside ``` fences: the prose
// and headings, with shell transcripts left out.
func fenceFree(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var prose []string
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
		} else if !inFence {
			prose = append(prose, line)
		}
	}
	return prose
}

// prHeading matches a heading that names a change by its number.
var prHeading = regexp.MustCompile(`\bPR ?\d+`)

// TestDocsHeadingsNameNoPR keeps the working documents organised by what
// the program does, not by the change that built it: no Markdown heading
// of the verify skill, ARCHITECTURE.md or OPERATIONS.md names a PR.
// History is in git and CHANGES.md.
func TestDocsHeadingsNameNoPR(t *testing.T) {
	for _, file := range []string{
		filepath.Join(".claude", "skills", "verify", "SKILL.md"),
		filepath.Join("docs", "ARCHITECTURE.md"),
		filepath.Join("docs", "OPERATIONS.md"),
	} {
		for _, line := range fenceFree(t, file) {
			if strings.HasPrefix(line, "#") && prHeading.MatchString(line) {
				t.Errorf("%s: heading names a PR: %q", file, line)
			}
		}
	}
}

// goDecls is every name the repository's Go source declares: by package
// name, the top-level names, methods and fields; by package and type, a
// type's fields, methods and embedded types; and all of them together.
type goDecls struct {
	pkg   map[string]map[string]bool
	types map[string]map[string]*goType
	all   map[string]bool
}

type goType struct {
	members  map[string]bool
	embedded []string
}

func (d *goDecls) typ(pkg, name string) *goType {
	if d.types[pkg] == nil {
		d.types[pkg] = map[string]*goType{}
	}
	if d.types[pkg][name] == nil {
		d.types[pkg][name] = &goType{members: map[string]bool{}}
	}
	return d.types[pkg][name]
}

func (d *goDecls) declare(pkg, name string) {
	if d.pkg[pkg] == nil {
		d.pkg[pkg] = map[string]bool{}
	}
	d.pkg[pkg][name] = true
	d.all[name] = true
}

// typeName is the name of a receiver or embedded type: T, *T, T[P], pkg.T.
func typeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

// parseRepoDecls parses every Go file of the repository. Test files count:
// the documents name tests, benchmarks and the references tests hold the
// program to.
func parseRepoDecls(t *testing.T) *goDecls {
	t.Helper()
	d := &goDecls{pkg: map[string]map[string]bool{}, types: map[string]map[string]*goType{}, all: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e os.DirEntry, err error) error {
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
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				d.declare(pkg, decl.Name.Name)
				if decl.Recv != nil && len(decl.Recv.List) > 0 {
					d.typ(pkg, typeName(decl.Recv.List[0].Type)).members[decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							d.declare(pkg, n.Name)
						}
					case *ast.TypeSpec:
						d.declare(pkg, spec.Name.Name)
						d.declareMembers(pkg, d.typ(pkg, spec.Name.Name), spec.Type)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// declareMembers records a struct's fields (nested struct types included)
// or an interface's methods, and what either embeds.
func (d *goDecls) declareMembers(pkg string, gt *goType, e ast.Expr) {
	var fields *ast.FieldList
	switch x := e.(type) {
	case *ast.StructType:
		fields = x.Fields
	case *ast.InterfaceType:
		fields = x.Methods
	default:
		return
	}
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			gt.embedded = append(gt.embedded, typeName(f.Type))
			continue
		}
		for _, n := range f.Names {
			gt.members[n.Name] = true
			d.declare(pkg, n.Name)
		}
		if st, ok := f.Type.(*ast.StructType); ok {
			d.declareMembers(pkg, gt, st)
		}
	}
}

// member reports whether name is a field or method of type typ declared
// in pkg, itself or through what it embeds.
func (d *goDecls) member(pkg, typ, name string, depth int) bool {
	gt := d.types[pkg][typ]
	if gt == nil || depth > 4 {
		return false
	}
	if gt.members[name] {
		return true
	}
	for _, emb := range gt.embedded {
		for p := range d.types {
			if d.member(p, emb, name, depth+1) {
				return true
			}
		}
	}
	return false
}

// resolve reports whether a dotted Go name is declared: pkg.Name in that
// package, Type.Member on that type in some package, a receiver or
// variable's x.Member anywhere, and each further .Member on the type
// before it where that is known.
func (d *goDecls) resolve(parts []string) bool {
	head, rest := parts[0], parts[1:]
	if len(rest) == 0 {
		return d.all[head]
	}
	if d.pkg[head] != nil {
		if !d.pkg[head][rest[0]] {
			return false
		}
		if len(rest) == 1 {
			return true
		}
		if d.types[head][rest[0]] != nil {
			return d.member(head, rest[0], rest[1], 0) && d.anywhere(rest[2:])
		}
		return d.anywhere(rest[1:])
	}
	for pkg, types := range d.types {
		if types[head] != nil && d.member(pkg, head, rest[0], 0) {
			return d.anywhere(rest[1:])
		}
	}
	isType := false
	for _, types := range d.types {
		isType = isType || types[head] != nil
	}
	return !isType && d.anywhere(rest)
}

func (d *goDecls) anywhere(names []string) bool {
	for _, n := range names {
		if !d.all[n] {
			return false
		}
	}
	return true
}

var (
	// goName matches a code span that is a dotted name: a pointer star in
	// front and a call's () behind allowed.
	goName = regexp.MustCompile(`^\*?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(\))?$`)
	// interiorCap is a single word that is a Go name by its shape: a
	// capital after a lower-case letter (so not NN or GET).
	interiorCap = regexp.MustCompile(`^[A-Za-z]\w*[a-z0-9]\w*[A-Z]`)
	// command is a backticked word that names one of the repository's
	// commands, which must be a directory under cmd/.
	command = regexp.MustCompile(`^dg[a-z]+$`)
)

// fileExt are the last parts of a dotted span that make it a file name.
var fileExt = map[string]bool{"go": true, "md": true, "json": true, "jsonl": true, "log": true,
	"txt": true, "sh": true, "yml": true, "yaml": true, "bin": true, "prof": true, "heap": true,
	"test": true, "store": true, "mod": true}

// docNamesOutside are names the documents use that the repository does
// not declare: Kubernetes probe fields and the standard library's.
var docNamesOutside = map[string]bool{
	"livenessProbe":       true, // Kubernetes
	"readinessProbe":      true, // Kubernetes
	"runtime.MemStats":    true,
	"MemStats.TotalAlloc": true, // runtime
	"flate.BestSpeed":     true, // compress/flate
	"io.ErrUnexpectedEOF": true,
}

// TestDocsNamesExist holds the names the working documents give the code
// to the code: every backticked Go name in docs/*.md, README.md and the
// verify skill — pkg.Name, Type.Member, or a word with an interior
// capital — is declared in the repository's Go source (parsed with
// go/parser), a qualified name in its own package or on its own type;
// every backticked dg… command is a directory under cmd/. Benchmark
// metric names (BENCHMARK.json) and names with an underscore are not Go
// names here; TestDocsMetricNames checks the dg_ metrics.
func TestDocsNamesExist(t *testing.T) {
	decls := parseRepoDecls(t)
	var bench struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
		EndToEnd []struct{ Name string } `json:"end_to_end"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	metric := map[string]bool{}
	for _, m := range append(bench.PerLayer, bench.EndToEnd...) {
		metric[m.Name] = true
	}
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range append(docs, "README.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")) {
		for _, span := range codeSpan.FindAllStringSubmatch(strings.Join(fenceFree(t, file), "\n"), -1) {
			s := span[1]
			if command.MatchString(s) {
				if st, err := os.Stat(filepath.Join("cmd", s)); err != nil || !st.IsDir() {
					t.Errorf("%s: `%s` names no command under cmd/", file, s)
				}
				continue
			}
			m := goName.FindStringSubmatch(s)
			if m == nil || docNamesOutside[m[1]] || metric[m[1]] || strings.Contains(m[1], "_") {
				continue
			}
			parts := strings.Split(m[1], ".")
			if fileExt[parts[len(parts)-1]] || (len(parts) == 1 && !interiorCap.MatchString(parts[0])) {
				continue
			}
			if !decls.resolve(parts) {
				t.Errorf("%s: `%s` is declared nowhere in the Go source", file, s)
			}
		}
	}
}
