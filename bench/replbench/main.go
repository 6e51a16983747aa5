// replbench is the repository's benchmark: the unmodified core nodes over
// real loopback TCP, the real clock, real ed25519 and real fsync, graded
// by checks the system under test does not perform on itself. See
// ../README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// processStart approximates the start of the process; setup_s counts
// from it.
var processStart = time.Now()

// buildDir is the only place the benchmark writes: WAL directories,
// trace files, and (through run.sh) the Go build cache and the binary.
const buildDir = ".bench_build"

// runSeconds is the window BENCHMARK.json asks the driver to pass.
const runSeconds = 24

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run as kept in an -out file (JSON lines, appended).
type record struct {
	Workload string  `json:"workload"`
	Trace    int     `json:"trace"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	result
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: "+workloadList()+", or ledger")
		seed         = flag.Int64("seed", 1, "seed of the workload generators (key draws, mix draws, write values)")
		seconds      = flag.Float64("seconds", runSeconds, "length of the measured window")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		out          = flag.String("out", "", "append each run's record to this file (JSON lines)")
		traceOut     = flag.String("trace-out", "", "span file of a traced run (default "+buildDir+"/trace-<workload>.jsonl)")
		set          = flag.Bool("set", false, "run every workload, untraced then traced, each in a child process")
		compare      = flag.Bool("compare", false, "compare two -out files: replbench -compare a.json b.json")
		describe     = flag.Bool("describe", false, "print BENCHMARK.json")
	)
	flag.Parse()

	var err error
	switch {
	case *describe:
		err = printBenchmarkJSON()
	case *compare:
		err = compareFiles(flag.Args())
	case *set:
		err = runSet(*seed, *seconds, *out)
	case *workloadName == "ledger":
		err = printLedger()
	default:
		spec := findWorkload(*workloadName)
		if spec == nil {
			err = fmt.Errorf("unknown workload %q; have %s, ledger", *workloadName, workloadList())
			break
		}
		err = runOne(spec, *seed, *seconds, *trace != 0, *out, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "replbench:", err)
		os.Exit(1)
	}
}

func workloadList() string {
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return strings.Join(names, ", ")
}

func workDir() (string, error) {
	dir := filepath.Join(buildDir, "work")
	return dir, os.MkdirAll(dir, 0o755)
}

// measure runs one workload and turns it into a result. A run whose
// output checks fail still yields a result (correct=false) next to the
// error, so the evidence and the verdict are both printed.
func measure(cfg *runConfig) (*result, error) {
	rd, err := execute(cfg)
	if rd == nil || rd.final == nil {
		return nil, err // never got as far as measuring
	}
	var values map[string]float64
	var load *loadStats
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		spans := rd.dep.rec.recorded()
		orphans := resolveParents(spans)
		if werr := writeTrace(cfg.traceOut, spans); werr != nil {
			return nil, werr
		}
		ts := analyze(spans)
		ledger, lerr := runLedger(cfg.workDir, min(1, cfg.seconds/runSeconds))
		if lerr != nil {
			return nil, lerr
		}
		values, load = rd.perLayerMetrics(ts, ledger)
		err = errors.Join(err, checkTrace(rd, spans, orphans))
	} else {
		values, load = rd.endToEndMetrics()
	}
	res := &result{
		Correct: err == nil, Attempted: load.attempted(), Failed: load.failed(),
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return res, err
}

// checkTrace verifies the trace is complete enough to trust: nothing
// dropped, (nearly) every handler span paired with its caller, and on
// read workloads the self times of a read's span tree adding up to the
// root's duration.
func checkTrace(rd *runData, spans []span, orphans int) error {
	var errs []error
	if n := rd.dep.rec.dropped.Load(); n > 0 {
		errs = append(errs, fmt.Errorf("trace: %d spans dropped, slab of %d too small", n, len(rd.dep.rec.spans)))
	}
	handlers := 0
	for i := range spans {
		if spans[i].kind == spanHandler {
			handlers++
		}
	}
	// Calls in flight when tracing switched on or off leave a handler
	// without its caller; anything beyond that edge effect is a bug.
	if orphans > 50+handlers/100 {
		errs = append(errs, fmt.Errorf("trace: %d of %d handler spans have no caller span", orphans, handlers))
	}
	if len(rd.readers) > 0 {
		if r := treeSelfRatio(spans); r < 0.95 || r > 1.05 {
			errs = append(errs, fmt.Errorf("trace: self times of client.read trees sum to %.3f of the root durations", r))
		}
	}
	return errors.Join(errs...)
}

func runOne(spec *workloadSpec, seed int64, seconds float64, trace bool, out, traceOut string) error {
	if seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	dir, err := workDir()
	if err != nil {
		return err
	}
	if traceOut == "" {
		traceOut = filepath.Join(buildDir, "trace-"+spec.name+".jsonl")
	}
	cfg := &runConfig{spec: spec, seed: seed, seconds: seconds, trace: trace, started: processStart, workDir: dir, traceOut: traceOut}
	res, runErr := measure(cfg)
	if res == nil {
		return runErr
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	fmt.Printf("%s seed=%d seconds=%g trace=%t attempted=%d failed=%d\n",
		spec.name, seed, seconds, trace, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Printf("  %-40s %14.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	if out != "" {
		t := 0
		if trace {
			t = 1
		}
		if err := appendRecord(out, record{Workload: spec.name, Trace: t, Seed: seed, Seconds: seconds, result: *res}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return runErr
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, i+1, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// runSet runs every workload untraced and then traced, each in a fresh
// child process of this binary so heap, RSS and CPU counters are
// isolated, and prints one table of every metric.
func runSet(seed int64, seconds float64, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := false
	for _, trace := range []int{0, 1} {
		for i := range workloads {
			w := &workloads[i]
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace)}
			if out != "" {
				args = append(args, "-out", out)
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			fmt.Println(strings.Join(lines[:len(lines)-1], "\n")) // the table; the JSON line is in -out
			if err != nil {
				fmt.Fprintf(os.Stderr, "replbench: %s trace=%d: %v\n", w.name, trace, err)
				failed = true
			}
		}
	}
	if failed {
		return errors.New("at least one run failed")
	}
	return nil
}

func printLedger() error {
	dir, err := workDir()
	if err != nil {
		return err
	}
	ledger, err := runLedger(dir, 1)
	if err != nil {
		return err
	}
	fmt.Printf("%-34s %12s %12s %12s  (median and quartiles of %d batches)\n", "unit cost", "median", "q1", "q3", ledgerBatches)
	for _, it := range ledgerItems {
		r := ledger[it.name]
		fmt.Printf("%-34s %12.4f %12.4f %12.4f %s\n", it.name, r.median, r.q1, r.q3, it.unit)
	}
	return nil
}

// printBenchmarkJSON renders BENCHMARK.json from the metric and workload
// tables, so the declaration cannot drift from what the runs emit.
func printBenchmarkJSON() error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"` // bounds are 0 and omitted
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
