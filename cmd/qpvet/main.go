// Command qpvet runs the repository's determinism static-analysis suite
// (internal/analysis) over module packages.
//
// Usage:
//
//	qpvet ./...           # analyze the whole module
//	qpvet ./internal/...  # analyze a subtree
//	qpvet -list           # list the checks
//
// qpvet runs every check and prints each finding, then each
// //qpvet:ignore directive that suppresses nothing, in file:line:col form.
// It exits 0 when it prints nothing, 1 when it prints findings or stale
// directives, and 2 on usage or load errors. An intentional finding is
// suppressed in place with `//qpvet:ignore <check> -- reason`; see
// internal/analysis.
package main

import (
	"flag"
	"fmt"
	"os"

	"quantpar/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the checks and exit")
	flag.Parse()

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "qpvet:", err)
		os.Exit(2)
	}
	w, err := analysis.Load(cwd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qpvet:", err)
		os.Exit(2)
	}
	diags, stale := w.RunWithAudit()
	analysis.WriteText(os.Stdout, diags, stale, cwd)
	if len(diags) > 0 || len(stale) > 0 {
		os.Exit(1)
	}
}
