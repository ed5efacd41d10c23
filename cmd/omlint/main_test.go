package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const goodExposition = `# TYPE dexlego_jobs_submitted counter
# HELP dexlego_jobs_submitted Jobs accepted.
dexlego_jobs_submitted_total 3
# EOF
`

func TestLintAcceptsValidExposition(t *testing.T) {
	path := filepath.Join(t.TempDir(), "good.txt")
	if err := os.WriteFile(path, []byte(goodExposition), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{path}); err != nil {
		t.Errorf("valid exposition rejected: %v", err)
	}
}

func TestLintRejectsBrokenExposition(t *testing.T) {
	cases := map[string]string{
		"missing EOF":  "# TYPE a counter\na_total 1\n",
		"no such file": "", // sentinel: path does not exist
	}
	dir := t.TempDir()
	for name, body := range cases {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-")+".txt")
		if body != "" {
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		err := run([]string{path})
		if err == nil {
			t.Errorf("%s: lint passed, want error", name)
		} else if !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error %q does not name the failing file", name, err)
		}
	}
}
