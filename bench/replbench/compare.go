package main

import (
	"errors"
	"fmt"
)

// verdicts of a comparison row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// compareRow is one (end-to-end metric, workload) pair of two files.
type compareRow struct {
	workload, metric string
	a, b             float64 // medians
	spreadA, spreadB float64 // (q3-q1)/median over each file's own runs
	worse            float64 // share of a's median by which b is worse (negative: better)
	bound            float64
	verdict          string
}

// spread is the distance between the first and third quartile as a share
// of the median; a single run has none.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// compareRecords grades b against a, metric by metric and workload by
// workload, with the bounds of the end-to-end table. Only untraced runs
// count: end-to-end numbers never come from a traced run.
func compareRecords(a, b []record) []compareRow {
	collect := func(recs []record, workload, metric string) []float64 {
		var xs []float64
		for _, r := range recs {
			if r.Workload == workload && r.Trace == 0 {
				if v, ok := r.Metrics[metric]; ok {
					xs = append(xs, v.Value)
				}
			}
		}
		return xs
	}
	var rows []compareRow
	for _, w := range workloads {
		for _, d := range endToEnd {
			xa, xb := collect(a, w.name, d.Name), collect(b, w.name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			row := compareRow{
				workload: w.name, metric: d.Name, bound: d.Bound,
				a: median(xa), b: median(xb),
				spreadA: spread(xa), spreadB: spread(xb),
			}
			sign := 1.0 // lower is better: b worse when larger
			if d.Better == higher {
				sign = -1
			}
			row.worse = sign * ratio(row.b-row.a, row.a)
			allBetter := true
			for _, vb := range xb {
				for _, va := range xa {
					if sign*(vb-va) >= 0 {
						allBetter = false
					}
				}
			}
			switch {
			case max(row.spreadA, row.spreadB) > d.Bound && !allBetter:
				row.verdict = verdictUnresolved
			case row.worse > d.Bound:
				row.verdict = verdictRegressed
			default:
				row.verdict = verdictOK
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func compareFiles(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: replbench -compare a.json b.json")
	}
	a, err := readRecords(args[0])
	if err != nil {
		return err
	}
	b, err := readRecords(args[1])
	if err != nil {
		return err
	}
	rows := compareRecords(a, b)
	if len(rows) == 0 {
		return errors.New("the two files share no untraced (workload, metric) pair")
	}
	fmt.Printf("%-12s %-18s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "a", "b", "b/a", "spreadA", "spreadB", "bound", "verdict")
	regressed := 0
	for _, r := range rows {
		fmt.Printf("%-12s %-18s %12.4f %12.4f %8.3f %8.3f %8.3f %6.2f  %s\n",
			r.workload, r.metric, r.a, r.b, ratio(r.b, r.a), r.spreadA, r.spreadB, r.bound, r.verdict)
		if r.verdict == verdictRegressed {
			regressed++
		}
	}
	for _, recs := range [][]record{a, b} {
		for _, r := range recs {
			if r.Failed != 0 || !r.Correct {
				fmt.Printf("note: %s seed %d trace %d: correct=%t failed=%d of %d\n",
					r.Workload, r.Seed, r.Trace, r.Correct, r.Failed, r.Attempted)
			}
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d (metric, workload) pairs regressed", regressed)
	}
	return nil
}
