// Command benchdiff compares two benchmark result files (bench/results/
// BENCH_*.json, or bench/out/result.json) and prints only the end-to-end
// metric×workload cells that moved beyond the bound BENCHMARK.json records
// for the metric — or "unresolved" where a file's own run-to-run spread
// exceeds that bound — one row per workload. It exits 1 on a regression.
//
//	go run ./cmd/benchdiff [-spec ../BENCHMARK.json] A.json B.json
package main

import (
	"flag"
	"fmt"
	"os"

	"condorg/bench/report"
)

func main() {
	specPath := flag.String("spec", "../BENCHMARK.json", "the benchmark contract holding the bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-spec BENCHMARK.json] A.json B.json")
		os.Exit(2)
	}
	regressed, err := diff(*specPath, flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if regressed {
		os.Exit(1)
	}
}

func diff(specPath, pathA, pathB string) (regressed bool, err error) {
	spec, err := report.LoadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := report.LoadFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := report.LoadFile(pathB)
	if err != nil {
		return false, err
	}
	if a.Env != b.Env || a.Seconds != b.Seconds {
		fmt.Printf("note: measured under different conditions\n  A: %+v, %d s\n  B: %+v, %d s\n", a.Env, a.Seconds, b.Env, b.Seconds)
	}
	moves := report.Diff(spec, a, b)
	fmt.Print(report.FormatMoves(moves))
	for _, m := range moves {
		if m.Verdict == report.Regressed {
			regressed = true
		}
	}
	return regressed, nil
}
