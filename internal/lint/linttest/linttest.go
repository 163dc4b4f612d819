// Package linttest runs a lint.Analyzer over a directory of fixture
// sources and checks its diagnostics against `// want` expectations —
// the same contract as golang.org/x/tools' analysistest, rebuilt on the
// in-tree framework since the container carries no x/tools module.
//
// A fixture line that should trigger a finding carries a trailing
// comment with a quoted regexp the diagnostic message must match:
//
//	rand.Intn(10) // want `global rand`
//
// Every diagnostic must be wanted and every want must be matched;
// anything else fails the test.
package linttest

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
	"testing"

	"rapidmrc/internal/lint"
)

// wantRe pulls the quoted pattern out of a `// want "..."` or
// `// want `...“ comment. Block-comment wants (`/* want `...` */`) are
// accepted too, for fixture lines whose trailing line comment is itself
// the marker under test.
var wantRe = regexp.MustCompile("(?://|/\\*)\\s*want\\s+(?:\"([^\"]*)\"|`([^`]*)`)")

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run checks analyzer against the fixture package rooted at dir,
// type-checked under import path pkgpath (so layering fixtures can
// impersonate internal packages).
//
//lint:allow deadexport test helper: the analyzer fixture tests (TestHotPathAlloc and its siblings) call it
func Run(t *testing.T, analyzer *lint.Analyzer, dir, pkgpath string) {
	t.Helper()
	pkg, err := lint.CheckDir(dir, pkgpath)
	if err != nil {
		t.Fatalf("loading fixtures from %s: %v", dir, err)
	}
	diags, err := lint.RunAnalyzers([]*lint.Package{pkg}, []*lint.Analyzer{analyzer})
	if err != nil {
		t.Fatalf("running %s on %s: %v", analyzer.Name, dir, err)
	}

	wants := collectWants(t, pkg.Fset, pkg.Files)
	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected a diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.Contains(c.Text, "want") {
					continue
				}
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("bad want pattern %q: %v", pat, err)
					}
					pos := fset.Position(c.Pos())
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return wants
}

func claim(wants []*expectation, d lint.Diagnostic) bool {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.pattern.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}
