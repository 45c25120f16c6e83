// Command ctlint runs the MiniC static analyzer over source files and
// prints positioned diagnostics: unused variables and parameters,
// unreachable statements, constant branch conditions, dead stores,
// maybe-uninitialized reads, value-range findings (dead-branch,
// unreachable-block, loop-unbounded), and static cost bounds (provable
// WCET cycles, stack depth, recursion, flash size) against the M16 part
// limits. With -pages it adds a flash-page report: pages each procedure
// occupies and avoidable page straddles.
//
// Usage:
//
//	ctlint [-json] [-costs] [-pages] [-max-cycles n] file.mc...
//
// Exit status is 0 when no error-severity diagnostics were found, 1 when
// at least one file has errors, and 2 on usage mistakes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"codetomo/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	costs := flag.Bool("costs", false, "include an informational cost summary per procedure")
	pages := flag.Bool("pages", false, "include a flash-page occupancy and straddle report per procedure")
	maxCycles := flag.Uint64("max-cycles", 0, "warn when a procedure's provable worst-case cycle bound exceeds this (0 = off)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: ctlint [flags] file.mc...")
		flag.PrintDefaults()
		os.Exit(2)
	}

	opts := lint.Options{CostReport: *costs, PageReport: *pages, MaxCycles: *maxCycles}
	var all []lint.Diag
	for _, name := range flag.Args() {
		src, err := os.ReadFile(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ctlint:", err)
			os.Exit(2)
		}
		all = append(all, lint.Run(name, string(src), opts)...)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if all == nil {
			all = []lint.Diag{} // a run with no findings is [], not null
		}
		if err := enc.Encode(all); err != nil {
			fmt.Fprintln(os.Stderr, "ctlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range all {
			fmt.Println(d)
		}
	}

	for _, d := range all {
		if d.Severity == lint.SevError {
			os.Exit(1)
		}
	}
}
