// Command wwlint runs the repository's static-analysis suite (see
// internal/lint and DESIGN.md "Static analysis") as one pass: the
// determinism, lockcheck, ctxcheck, goleak, wirecheck and doccheck
// analyzers over every package matched by the given patterns.
// It is the single lint gate CI runs:
//
//	go run ./scripts/wwlint ./...
//
// Flags:
//
//	-only a,b    run only the named analyzers
//	-list        print the analyzer table and exit
//
// Exit status: 0 clean, 1 diagnostics found, 2 load or internal error.
// Suppress a finding with //wwlint:allow <analyzer> <reason> on (or
// directly above) the offending line, or //wwlint:allowfile for a whole
// file; the reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "print the analyzer table and exit")
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, az := range analyzers {
			fmt.Printf("%-12s %s\n", az.Name, az.Doc)
		}
		return
	}
	if *only != "" {
		analyzers = lint.ByName(strings.Split(*only, ","))
		if analyzers == nil {
			fmt.Fprintf(os.Stderr, "wwlint: unknown analyzer in -only=%s (use -list)\n", *only)
			os.Exit(2)
		}
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	world, err := lint.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags, err := lint.Run(world, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "wwlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
