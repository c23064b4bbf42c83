package smappic_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// experimentsRef matches a reference that names a section of EXPERIMENTS.md
// by quoting its heading, in parentheses or after a comma; group 1 is the
// quoted text.
var experimentsRef = regexp.MustCompile(`EXPERIMENTS\.md(?: \(|, )"([^"]+)"`)

// wrap is a line break inside a paragraph or a comment, with the next
// line's indentation and comment marker.
var wrap = regexp.MustCompile(`[ \t]*\n[ \t]*(?://[ \t]*)?`)

// TestExperimentsReferencesResolve keeps the pointers into EXPERIMENTS.md
// honest: every quoted heading that a Go file outside benchmark/, README.md
// or DESIGN.md cites after EXPERIMENTS.md must be (a case-insensitive
// substring of) one of the document's headings. ROADMAP.md and CHANGES.md
// are history and may name sections that are gone.
func TestExperimentsReferencesResolve(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var headings []string
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "#") {
			headings = append(headings, strings.ToLower(strings.TrimLeft(line, "# ")))
		}
	}

	files := []string{"README.md", "DESIGN.md"}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (path == "benchmark" || d.Name()[0] == '.' || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	refs := 0
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range experimentsRef.FindAllStringSubmatch(wrap.ReplaceAllString(string(b), " "), -1) {
			refs++
			if !resolves(headings, strings.ToLower(m[1])) {
				t.Errorf("%s: EXPERIMENTS.md has no heading containing %q", path, m[1])
			}
		}
	}
	if refs == 0 {
		t.Fatal("no references found; the pattern no longer matches how the docs cite EXPERIMENTS.md")
	}
}

func resolves(headings []string, quoted string) bool {
	for _, h := range headings {
		if strings.Contains(h, quoted) {
			return true
		}
	}
	return false
}
