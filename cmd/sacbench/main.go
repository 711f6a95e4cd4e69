// Command sacbench regenerates the paper's evaluation tables
// (Figure 4.A/B/C) and the ablation studies on the in-process engine.
//
//	sacbench -fig 4a              # matrix addition series
//	sacbench -fig 4b -tile 100    # multiplication series
//	sacbench -fig 4c -k 200       # factorization series
//	sacbench -fig ablation        # Rule 13 / storage / tile-size ablations
//	sacbench -fig kernels         # local GEMM kernel GFLOP/s table
//	sacbench -fig all -quick      # everything, small sizes
//	sacbench -fig stages          # per-stage timing table for a GBJ multiply
//	sacbench -fig 4b -stages      # append the stage table to any figure run
//	sacbench -fig 4b -json out.json  # machine-readable per-stage doc for any figure
//	sacbench -fig 4b -mem 64MiB   # out-of-core run: spill columns appear in the tables
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/debug"
	"repro/internal/memory"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: 4a, 4b, 4c, ablation, kernels, stages, all")
	tile := flag.Int("tile", 100, "tile size N (the paper used 1000)")
	parts := flag.Int("parts", 8, "dataset partitions (the paper had 8 executors)")
	k := flag.Int64("k", 100, "factorization rank k (the paper used 1000)")
	quick := flag.Bool("quick", false, "use small sizes for a fast smoke run")
	stages := flag.Bool("stages", false, "print a per-stage timing table for a GBJ multiply after the figures")
	mem := flag.String("mem", "", "engine memory budget (e.g. 64MiB); work beyond it spills to disk and the tables gain spill columns. Default: $SAC_MEMORY_BUDGET, else unlimited")
	sizesFlag := flag.String("sizes", "", "comma-separated matrix side lengths, overriding defaults")
	jsonOut := flag.String("json", "", "write the per-stage/histogram document of the last measured run as JSON to this file")
	flag.Parse()

	budget := memory.BudgetFromEnv(0)
	if *mem != "" {
		var err error
		if budget, err = memory.ParseBytes(*mem); err != nil {
			fmt.Fprintf(os.Stderr, "sacbench: %v\n", err)
			os.Exit(2)
		}
	}
	if budget > 0 {
		fmt.Printf("memory budget: %s (spilling to disk beyond it)\n", memory.FormatBytes(budget))
	}

	cfg := bench.Config{TileSize: *tile, Partitions: *parts, MemoryBudget: budget}

	addSizes := []int64{400, 800, 1200, 1600, 2000}
	mulSizes := []int64{200, 400, 600, 800}
	facSizes := []int64{200, 400, 600}
	if *quick {
		addSizes = []int64{200, 400}
		mulSizes = []int64{200, 300}
		facSizes = []int64{150}
	}
	if *sizesFlag != "" {
		var sizes []int64
		for _, s := range strings.Split(*sizesFlag, ",") {
			var v int64
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &v); err != nil {
				fmt.Fprintf(os.Stderr, "sacbench: bad size %q\n", s)
				os.Exit(2)
			}
			sizes = append(sizes, v)
		}
		addSizes, mulSizes, facSizes = sizes, sizes, sizes
	}

	run4a := func() {
		s := bench.Fig4A(cfg, addSizes)
		fmt.Println(s.Format())
		fmt.Printf("paper shape: SAC slightly faster than MLlib — measured max SAC speedup over MLlib: %.2fx\n\n",
			s.Ratios("SAC", "MLlib"))
	}
	run4b := func() {
		s := bench.Fig4B(cfg, mulSizes)
		fmt.Println(s.Format())
		fmt.Printf("paper shape: SAC GBJ up to 6x faster than MLlib; SAC (join+group-by) up to 3x slower than MLlib\n")
		fmt.Printf("measured: GBJ speedup over MLlib %.2fx; MLlib speedup over SAC %.2fx\n\n",
			s.Ratios("SAC GBJ", "MLlib"), s.Ratios("MLlib", "SAC"))
	}
	run4c := func() {
		s := bench.Fig4C(cfg, facSizes, *k)
		fmt.Println(s.Format())
		fmt.Printf("paper shape: SAC GBJ up to 3x faster than MLlib — measured: %.2fx\n\n",
			s.Ratios("SAC GBJ", "MLlib"))
	}
	runStages := func() {
		fmt.Println(bench.StageBreakdown(cfg, mulSizes[len(mulSizes)-1]))
	}
	runKernels := func() {
		fmt.Println(bench.Kernels(cfg, bench.KernelSizes(*quick)))
	}
	runAblation := func() {
		fmt.Println(bench.AblationReduceByKey(cfg, mulSizes[:min(2, len(mulSizes))]).Format())
		fmt.Println(bench.AblationCoordinate(cfg, []int64{100, 150}).Format())
		fmt.Println(bench.AblationTileSize(cfg, mulSizes[0], []int{25, 50, 100, 200}).Format())
	}
	switch *fig {
	case "4a":
		run4a()
	case "4b":
		run4b()
	case "4c":
		run4c()
	case "ablation":
		runAblation()
	case "kernels":
		runKernels()
	case "stages":
		runStages()
		return
	case "all":
		run4a()
		run4b()
		run4c()
		runAblation()
	default:
		fmt.Fprintf(os.Stderr, "sacbench: unknown figure %q\n", *fig)
		os.Exit(2)
	}
	if *stages {
		runStages()
	}
	// For figure runs, -json exports the per-stage counters and skew
	// histograms of the most recent measured context.
	if *jsonOut == "" {
		return
	}
	blob, err := json.MarshalIndent(debug.StagesJSON(bench.CurrentMetrics()), "", " ")
	if err == nil {
		err = os.WriteFile(*jsonOut, append(blob, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sacbench: writing %s: %v\n", *jsonOut, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *jsonOut)
}
