// Command omlint lints OpenMetrics text exposition: it parses stdin or
// each file argument with the same strict parser the test suite uses and
// exits non-zero naming the first failing source. CI pipes the service's
// GET /metrics into it so a malformed exposition fails the build instead
// of silently breaking scrapers.
//
// Usage:
//
//	curl -fsS http://localhost:8080/metrics | omlint
//	omlint scrape1.txt scrape2.txt
package main

import (
	"fmt"
	"io"
	"os"

	"dexlego/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "omlint:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return lint("stdin", os.Stdin)
	}
	for _, arg := range args {
		if err := lintSource(arg); err != nil {
			return err
		}
	}
	return nil
}

// lintSource lints one file argument. The error names the file, so a
// multi-file invocation points at the first failing one.
func lintSource(arg string) error {
	f, err := os.Open(arg)
	if err != nil {
		return err
	}
	defer f.Close()
	return lint(arg, f)
}

func lint(name string, r io.Reader) error {
	exp, err := obs.ParseExposition(r)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	samples := 0
	for _, fam := range exp.Families {
		samples += len(fam.Samples)
	}
	fmt.Printf("%s: ok — %d metric families, %d samples\n", name, len(exp.Families), samples)
	return nil
}
