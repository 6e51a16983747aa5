// Command replsim runs the paper-reproduction experiments in the
// deterministic simulator and prints their tables.
//
// Usage:
//
//	replsim -list
//	replsim -exp E1,E7 [-seed 42] [-scale 1] [-markdown | -json]
//	replsim -all
//	replsim -scenario -masters 3 -slaves 4 -clients 8 -liars 2 -duration 2m
//	replsim -scenario -clients 16 -writeevery 2 -batch 16 -maxlatency 10ms
//	replsim -scenario -writeevery 2 -batch 16 -checkpoint 1s -duration 5m
//	replsim -matrix [-matrixout BENCH_matrix.json] [-matrixfull]
//	replsim -matrixdiff BASE.json HEAD.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list experiments and exit")
		expList    = flag.String("exp", "", "comma-separated experiment ids (e.g. E1,E7)")
		all        = flag.Bool("all", false, "run every experiment")
		scenario   = flag.Bool("scenario", false, "run a free-form scenario from the scenario flags")
		matrixOn   = flag.Bool("matrix", false, "run the workload × fault matrix and write the consolidated report")
		matrixOut  = flag.String("matrixout", "BENCH_matrix.json", "matrix report output path")
		matrixFull = flag.Bool("matrixfull", os.Getenv("MATRIX_FULL") != "", "run the full grid instead of the smoke grid (also via MATRIX_FULL=1)")
		matrixDiff = flag.Bool("matrixdiff", false, "compare two matrix reports (arguments BASE.json HEAD.json): print every cell whose figures differ, fail only if a cell failed in either")
		seed       = flag.Int64("seed", 1, "simulation seed")
		scale      = flag.Int("scale", 1, "divide experiment sizes by this factor (1 = full)")
		markdown   = flag.Bool("markdown", false, "emit tables as markdown")
		jsonOut    = flag.Bool("json", false, "emit the experiments' tables as one JSON document, without wall times: a seed's output is byte-identical run to run")
	)
	scFlags := registerScenarioFlags()
	flag.Parse()
	stopProfiles := startProfiles()
	defer stopProfiles()

	if *scenario {
		runScenario(*seed, scFlags)
		return
	}

	if *matrixDiff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: replsim -matrixdiff BASE.json HEAD.json")
			os.Exit(2)
		}
		os.Exit(runMatrixDiff(flag.Arg(0), flag.Arg(1)))
	}

	if *matrixOn {
		code := runMatrix(*seed, *matrixOut, *matrixFull, *markdown)
		if code != 0 {
			stopProfiles() // os.Exit skips the deferred call
			os.Exit(code)
		}
		return
	}

	if *list {
		fmt.Println("available experiments:")
		for _, e := range harness.Registry() {
			fmt.Printf("  %-4s %s\n", e.ID, e.Claim)
		}
		return
	}

	var ids []string
	switch {
	case *all:
		for _, e := range harness.Registry() {
			ids = append(ids, e.ID)
		}
	case *expList != "":
		for _, id := range strings.Split(*expList, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	type expTables struct {
		ID, Claim string
		Tables    []*metrics.Table
	}
	var report []expTables
	for _, id := range ids {
		e, err := harness.Find(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			stopProfiles() // os.Exit skips the deferred call
			os.Exit(1)
		}
		if *jsonOut {
			report = append(report, expTables{e.ID, e.Claim, e.Run(*seed, harness.Scale(*scale))})
			continue
		}
		fmt.Printf("== %s: %s\n", e.ID, e.Claim)
		start := time.Now()
		tables := e.Run(*seed, harness.Scale(*scale))
		for _, t := range tables {
			fmt.Println()
			if *markdown {
				fmt.Print(t.Markdown())
			} else {
				fmt.Print(t.String())
			}
		}
		fmt.Printf("\n   (%s in %v wall time)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		err := enc.Encode(struct {
			Seed        int64
			Scale       int
			Experiments []expTables
		}{*seed, *scale, report})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			stopProfiles() // os.Exit skips the deferred call
			os.Exit(1)
		}
	}
}
