// Command promise-bench prints the evaluation tables of the experiment
// suite. Each experiment (E1–E11) validates one claim from the paper; the
// claim tests in internal/experiments/experiments_test.go name each claim
// and assert its shape.
//
// Usage:
//
//	promise-bench            run every experiment (full iteration counts)
//	promise-bench -quick     trimmed iteration counts (CI-sized)
//	promise-bench -e E4,E7   run selected experiments
//	promise-bench -list      list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "trimmed iteration counts")
	sel := flag.String("e", "", "comma-separated experiment ids (default all)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	ids := experiments.IDs()
	if *sel != "" {
		ids = nil
		for _, id := range strings.Split(*sel, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			if experiments.Registry[id] == nil {
				fmt.Fprintf(os.Stderr, "promise-bench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		tbl, err := experiments.Registry[id](*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "promise-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		tbl.Fprint(os.Stdout)
	}
}
