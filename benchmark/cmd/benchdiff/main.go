// Command benchdiff compares two result sets written by bench, metric
// by metric, against the bounds in BENCHMARK.json.
//
//	benchdiff old.json new.json
//
// It exits 1 when new regressed: an end-to-end metric worse than old by
// more than its bound, more failed ops, or a counted quantity of the
// traced runs that differs. Given two sets from the same commit it is the
// A/A check of the benchmark itself.
package main

import (
	"fmt"
	"os"

	"repro/benchmark/harness"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff old.json new.json")
		os.Exit(2)
	}
	if err := run(os.Args[1], os.Args[2]); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
}

func run(oldPath, newPath string) error {
	root, err := harness.FindRoot()
	if err != nil {
		return err
	}
	spec, err := harness.LoadSpec(root)
	if err != nil {
		return err
	}
	old, err := harness.ReadResultFile(oldPath)
	if err != nil {
		return err
	}
	new, err := harness.ReadResultFile(newPath)
	if err != nil {
		return err
	}
	if harness.PrintDiff(os.Stdout, spec, old, new) {
		os.Exit(1)
	}
	return nil
}
