package triclust

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocsNameLiveTests: every test name the CI workflow, the verify skill
// and the README point at still exists. A -run or -skip pattern that
// matches nothing passes silently, so a deleted or renamed test would leave
// a CI step that checks nothing. Each alternative of every -run, -skip and
// -fuzz pattern must match some Test, Example or Fuzz function of the
// module the way go test matches it (unanchored, top level before any "/";
// "^$", the "run nothing" idiom, is exempt), and every Test… name inside a
// README code span must match one too.
func TestDocsNameLiveTests(t *testing.T) {
	var names []string
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Example|Fuzz)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// bench/ and any other nested module hold another module's tests.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && (err == nil || d.Name() == ".git" || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			for _, m := range decl.FindAllSubmatch(src, -1) {
				names = append(names, string(m[1]))
			}
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("found no test functions: the walk is broken")
	}
	live := func(pattern string) bool {
		re, err := regexp.Compile(strings.SplitN(pattern, "/", 2)[0])
		return err == nil && slices.ContainsFunc(names, re.MatchString)
	}

	flag := regexp.MustCompile(`-(?:run|skip|fuzz)(?:=|\s+)(?:'([^']*)'|"([^"]*)"|([^\s'"` + "`" + `]+))`)
	for _, file := range []string{".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		found := flag.FindAllSubmatchIndex(src, -1)
		if len(found) == 0 {
			t.Fatalf("%s: no -run pattern found: the extraction is stale", file)
		}
		for _, m := range found {
			start := bytes.LastIndexByte(src[:m[0]], '\n') + 1
			if line := string(src[start:m[0]]); strings.Contains(line, "go run") && !strings.Contains(line, "go test") {
				continue // a program's own flag, not go test's
			}
			var pattern string
			for i := 2; i < len(m); i += 2 {
				if m[i] >= 0 {
					pattern = string(src[m[i]:m[i+1]])
				}
			}
			for _, alt := range strings.Split(pattern, "|") {
				if alt != "^$" && !live(alt) {
					t.Errorf("%s: %q in %q matches no test of the module", file, alt, src[m[0]:m[1]])
				}
			}
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`\bTest[A-Z0-9_]\w*`)
	for _, span := range regexp.MustCompile("`[^`\n]+`").FindAll(readme, -1) {
		for _, name := range cited.FindAll(span, -1) {
			if !live(string(name)) {
				t.Errorf("README.md: %s in %s matches no test of the module", name, span)
			}
		}
	}
}
