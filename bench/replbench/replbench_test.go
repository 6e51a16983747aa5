package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestSeedFeedsOnlyTheGenerators: the same seed yields the same first
// 1000 generated operations of every workload, another seed does not.
func TestSeedFeedsOnlyTheGenerators(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, c := w.opStream(1, 1000), w.opStream(1, 1000), w.opStream(2, 1000)
		if len(a) != 1000 {
			t.Fatalf("%s: %d operations generated, want 1000", w.name, len(a))
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two different operation streams", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same operation stream", w.name)
		}
	}
}

// TestBenchmarkJSONMatchesTables: the committed BENCHMARK.json is what
// -describe prints, so the declaration and the runs cannot drift apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	stdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	derr := printBenchmarkJSON()
	os.Stdout = stdout
	w.Close()
	if derr != nil {
		t.Fatal(derr)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(buf.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(committed, &got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("BENCHMARK.json differs from `replbench -describe`; regenerate it")
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
}

func smokeConfig(t *testing.T, name string, trace bool) *runConfig {
	t.Helper()
	dir := t.TempDir()
	return &runConfig{
		spec: findWorkload(name), seed: 1, seconds: 1, trace: trace, started: time.Now(),
		workDir: dir, traceOut: filepath.Join(dir, "trace.jsonl"),
	}
}

// TestSmoke runs every workload traced with a 1 s window: output checks,
// every per-layer metric emitted, and the written trace parses with
// every parent present and enclosing its child. One workload also runs
// untraced for the end-to-end path.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-clock test")
	}
	for i := range workloads {
		name := workloads[i].name
		t.Run(name, func(t *testing.T) {
			cfg := smokeConfig(t, name, true)
			res, err := measure(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range perLayer {
				if _, ok := res.Metrics[d.Name]; !ok {
					t.Errorf("per-layer metric %s missing", d.Name)
				}
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(perLayer))
			}
			n, err := checkTraceFile(cfg.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Fatal("empty trace")
			}
			m := func(name string) float64 { return res.Metrics[name].Value }
			switch name {
			case "write-waves":
				if m("master.pacing_waits") != 0 || m("master.flush_timer_ratio") != 0 {
					t.Errorf("pacing_waits=%v flush_timer_ratio=%v, want 0 and 0", m("master.pacing_waits"), m("master.flush_timer_ratio"))
				}
			case "mixed":
				if m("master.flush_timer_ratio") < 0.9 {
					t.Errorf("flush_timer_ratio=%v, want >= 0.9", m("master.flush_timer_ratio"))
				}
			}
		})
	}
	t.Run("untraced", func(t *testing.T) {
		res, err := measure(smokeConfig(t, "mixed", false))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.Name]; !ok || v.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v.Value)
			}
		}
	})
}

// TestBrokenOracleFailsTheRun: comparing accepted reads against an
// altered copy of the content must fail the run, not bump a counter.
func TestBrokenOracleFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real-clock test")
	}
	cfg := smokeConfig(t, "read-point", false)
	cfg.corruptOracle = true
	res, err := measure(cfg)
	if err == nil {
		t.Fatal("run passed against a corrupted oracle")
	}
	if !strings.Contains(err.Error(), "differs from the oracle") {
		t.Fatalf("unexpected failure: %v", err)
	}
	if res == nil || res.Correct {
		t.Fatal("result must be reported with correct=false")
	}
}

func rec(workload string, v float64) record {
	r := record{Workload: workload, result: result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}}
	for _, d := range endToEnd {
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return r
}

func TestCompareVerdicts(t *testing.T) {
	verdict := func(a, b []record, metric string) string {
		for _, row := range compareRecords(a, b) {
			if row.workload == "mixed" && row.metric == metric {
				return row.verdict
			}
		}
		t.Fatalf("no row for %s", metric)
		return ""
	}
	steadyA := []record{rec("mixed", 100), rec("mixed", 101), rec("mixed", 99)}
	// Direction-aware: +30% is a regression for latency, a gain for throughput.
	up := []record{rec("mixed", 130), rec("mixed", 131), rec("mixed", 129)}
	if got := verdict(steadyA, up, "op_p50_ms"); got != verdictRegressed {
		t.Errorf("latency +30%%: %s", got)
	}
	if got := verdict(steadyA, up, "ops_s"); got != verdictOK {
		t.Errorf("throughput +30%%: %s", got)
	}
	down := []record{rec("mixed", 70), rec("mixed", 71), rec("mixed", 69)}
	if got := verdict(steadyA, down, "ops_s"); got != verdictRegressed {
		t.Errorf("throughput -30%%: %s", got)
	}
	// Within the bound.
	near := []record{rec("mixed", 104), rec("mixed", 105), rec("mixed", 103)}
	if got := verdict(steadyA, near, "op_p50_ms"); got != verdictOK {
		t.Errorf("latency +4%%: %s", got)
	}
	// A file whose own runs spread wider than the bound resolves nothing.
	noisy := []record{rec("mixed", 60), rec("mixed", 100), rec("mixed", 160)}
	if got := verdict(steadyA, noisy, "op_p50_ms"); got != verdictUnresolved {
		t.Errorf("noisy file: %s", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
}

// TestSlicesAndSlowdown: samples land in the slice their end falls in,
// and a slice's slowdown is the mean burst time of the bursts begun in it.
func TestSlicesAndSlowdown(t *testing.T) {
	const ms = int64(time.Millisecond)
	rd := &runData{
		marks: []mark{{at: 0}, {at: 1000 * ms, cpuNS: 500 * ms, wire: 4000}, {at: 2000 * ms, cpuNS: 1500 * ms, wire: 6000}},
		cal: &calibrator{samples: []calSample{
			{at: 10 * ms, dur: ms}, {at: 500 * ms, dur: 3 * ms}, // slice 0: mean 2 ms
			{at: 1500 * ms, dur: ms},     // slice 1: 1 ms
			{at: 2500 * ms, dur: 9 * ms}, // after the last mark
		}},
		readers: []*reader{{samples: []readSample{
			{start: 0, end: 2 * ms, ok: true},
			{start: 990 * ms, end: 1001 * ms, ok: true}, // ends in slice 1
			{start: 1100 * ms, end: 1104 * ms, ok: false},
			{start: 1999 * ms, end: 2000 * ms, ok: true}, // ends at the last mark: outside
		}}},
	}
	got := rd.slices()
	if len(got) != 2 {
		t.Fatalf("%d slices, want 2", len(got))
	}
	if got[0].reads != 1 || got[1].reads != 1 {
		t.Errorf("reads per slice = %d, %d, want 1, 1", got[0].reads, got[1].reads)
	}
	if got[0].slow != 2 || got[1].slow != 1 {
		t.Errorf("slowdown per slice = %v, %v, want 2, 1", got[0].slow, got[1].slow)
	}
	if got[1].cpuUS != 1e6 || got[1].wire != 2000 || got[1].seconds != 1 {
		t.Errorf("slice 1 = %+v", got[1])
	}
	if s := rd.cal.slowdown(3000*ms, 4000*ms); s != 0 {
		t.Errorf("slowdown of a stretch without bursts = %v, want 0", s)
	}
}
