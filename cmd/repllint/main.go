// Command repllint runs the repo's custom static analyzers (lockcheck and
// trustcheck — see internal/analysis) over the module and exits non-zero
// if any finding survives suppression.
//
// Usage:
//
//	repllint [-only name[,name]] [patterns]
//
// Patterns default to ./... (the whole module). Test files are not
// analyzed. Suppress an individual finding with
// `//lint:ignore <analyzer> <reason>` on or above the flagged line, or
// in a function's doc comment to cover the whole function.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	all := []*analysis.Analyzer{
		analysis.Lockcheck,
		analysis.Trustcheck,
	}
	analyzers := all
	if *only != "" {
		want := map[string]bool{}
		for _, n := range strings.Split(*only, ",") {
			want[strings.TrimSpace(n)] = true
		}
		analyzers = nil
		for _, a := range all {
			if want[a.Name] {
				analyzers = append(analyzers, a)
				delete(want, a.Name)
			}
		}
		for n := range want {
			fmt.Fprintf(os.Stderr, "repllint: unknown analyzer %q\n", n)
			os.Exit(2)
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "repllint:", err)
		os.Exit(2)
	}
	pkgs, err := analysis.LoadModule(wd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repllint:", err)
		os.Exit(2)
	}

	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repllint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		pos := pkgs[0].Fset.Position(d.Pos)
		fmt.Printf("%s: %s: %s\n", pos, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "repllint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
