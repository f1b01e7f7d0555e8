package historygraph_test

// TestDocsLinks is the docs gate: every relative cross-reference in
// README.md and docs/*.md must point at a file that exists, and every
// #anchor must resolve to a real heading in its target — so the
// architecture guide, wire spec, and runbook cannot silently drift
// apart. External (http/https/mailto) links are out of scope.

import (
	"fmt"
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
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		// Fenced blocks are shell transcripts, not flag references.
		var prose []string
		inFence := false
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
			} else if !inFence {
				prose = append(prose, line)
			}
		}
		for _, span := range codeSpan.FindAllStringSubmatch(strings.Join(prose, "\n"), -1) {
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
