// The -matrix mode: run the workload × fault matrix and consolidate
// every cell's result into one BENCH_matrix.json trajectory document.
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/matrix"
	"repro/internal/metrics"
)

// runMatrix executes the smoke (or, with full, the exhaustive) grid,
// writes the consolidated report to out, prints the per-cell table,
// and returns the process exit code: non-zero when any cell failed its
// converged-digest / zero-lost / zero-duplicated check, so `make
// verify` enforces the matrix's ground truth, not just its existence.
func runMatrix(seed int64, out string, full bool, markdown bool) int {
	grid := "smoke"
	cells := matrix.SmokeGrid()
	if full {
		grid = "full"
		cells = matrix.FullGrid()
	}

	dataDir, err := os.MkdirTemp("", "replsim-matrix-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "matrix:", err)
		return 1
	}
	defer os.RemoveAll(dataDir)

	fmt.Printf("== matrix: %s grid, %d cells, seed %d\n", grid, len(cells), seed)
	start := time.Now()
	results, err := matrix.RunGrid(cells, seed, dataDir, func(r matrix.Result, err error) {
		if err != nil {
			return
		}
		status := "ok"
		if !r.OK() {
			status = fmt.Sprintf("FAIL (lost=%d dup=%d divergent=%d committed=%d liars at large=%d honest excluded=%d audit reports=%d)",
				r.Lost, r.Duplicated, r.Divergent, r.Committed, r.LiarsAtLarge, r.HonestExcluded, r.AuditReports)
		}
		fmt.Printf("   %-44s %s\n", r.Cell.Label(), status)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "matrix:", err)
		return 1
	}

	tab := metrics.NewTable(
		fmt.Sprintf("workload × fault matrix (%s grid, seed %d)", grid, seed),
		"cell", "commits", "w/s", "wp50 ms", "wp99 ms", "rp99 ms", "reads", "faults", "converged")
	for _, r := range results {
		tab.Add(r.Cell.Label(), r.Committed, fmt.Sprintf("%.1f", r.WritesPerSec),
			fmt.Sprintf("%.1f", r.WriteP50ms), fmt.Sprintf("%.1f", r.WriteP99ms),
			fmt.Sprintf("%.1f", r.ReadP99ms), r.Reads, r.FaultsFired, r.Converged)
	}
	tab.Note("every cell ends in a quiesced digest check; lost/duplicated writes fail the run")
	fmt.Println()
	if markdown {
		fmt.Print(tab.Markdown())
	} else {
		fmt.Print(tab.String())
	}

	rep := matrix.BuildReport(grid, seed, results)
	if err := rep.WriteFile(out); err != nil {
		fmt.Fprintln(os.Stderr, "matrix:", err)
		return 1
	}
	fmt.Printf("\n   %d cells -> %s in %v wall time\n", len(results), out, time.Since(start).Round(time.Millisecond))
	if rep.FailedCells > 0 {
		fmt.Fprintf(os.Stderr, "matrix: %d cell(s) failed the ground-truth check\n", rep.FailedCells)
		return 1
	}
	return 0
}
