package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
)

const (
	warmUp      = 2 * time.Second
	extraSetups = 8 // set-ups timed after the measured run; setup_s is the median of 1+extraSetups

	// sliceLen cuts the timed window of an untraced run into slices, each
	// holding exactly four write waves. The end-to-end timings are taken
	// per slice, divided by the slice's slowdown (calibrate.go), and
	// reported as the median over the slices.
	sliceLen = 4 * wavePeriod
)

// mark is what is read at a slice boundary: little enough that reading
// it does not disturb the run (no ReadMemStats, no node locks).
type mark struct {
	at    int64
	cpuNS int64
	wire  int64 // request+reply body bytes through every dialer so far
}

func (d *deployment) mark() mark {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	m := mark{at: d.rec.now(), cpuNS: cpuNS(&ru)}
	for r := range d.rec.dial {
		for i := range d.rec.dial[r] {
			c := &d.rec.dial[r][i]
			m.wire += c.reqBytes.Load() + c.respBytes.Load()
		}
	}
	return m
}

// runConfig is one invocation: one workload, traced or not.
type runConfig struct {
	spec     *workloadSpec
	seed     int64
	seconds  float64
	trace    bool
	started  time.Time // when the first set-up is timed from: process start for a real run
	workDir  string    // scratch for WAL directories, inside the checkout
	traceOut string    // span file of a traced run

	corruptOracle bool // test hook: alter the oracle copy so the read check must fail
}

// snapshot is everything read at a phase boundary.
type snapshot struct {
	at      int64
	ru      syscall.Rusage
	mem     runtime.MemStats
	masters [2]core.MasterStats
	slaves  [2]core.SlaveStats
	auditor core.AuditorStats
	clients [3]core.ClientStats
	dial    [nRoles][]counterSnapshot
	served  [nRoles][]counterSnapshot
}

func (d *deployment) snapshot() *snapshot {
	s := &snapshot{at: d.rec.now()}
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &s.ru)
	runtime.ReadMemStats(&s.mem)
	for i := range d.masters {
		s.masters[i] = d.masters[i].Stats()
		s.slaves[i] = d.slaves[i].Stats()
	}
	for i := range d.clients {
		s.clients[i] = d.clients[i].Stats()
	}
	s.auditor = d.auditor.Stats()
	for r := range s.dial {
		s.dial[r] = make([]counterSnapshot, len(methodNames))
		s.served[r] = make([]counterSnapshot, len(methodNames))
		for m := range methodNames {
			s.dial[r][m] = d.rec.dial[r][m].snapshot()
			s.served[r][m] = d.rec.served[r][m].snapshot()
		}
	}
	return s
}

func cpuNS(ru *syscall.Rusage) int64 {
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// phase is one timed stretch of a run between two snapshots.
type phase struct {
	name       string
	from, to   int64
	begin, end *snapshot
}

// runData is what a finished run hands to the metric code.
type runData struct {
	cfg     *runConfig
	dep     *deployment
	readers []*reader
	writer  *writer
	phases  []*phase
	marks   []mark // slice boundaries of the "window" phase
	cal     *calibrator

	setupS     []float64
	convergeMS float64
	drainMS    float64
	peakRSSMB  float64
	final      *snapshot
}

func (rd *runData) phase(name string) *phase {
	for _, p := range rd.phases {
		if p.name == name {
			return p
		}
	}
	return nil
}

// watchdog dumps every goroutine and exits non-zero if the run outlives
// its budget; a hung benchmark must not look like a slow one.
func watchdog(budget time.Duration) (cancel func()) {
	t := time.AfterFunc(budget, func() {
		fmt.Fprintf(os.Stderr, "replbench: watchdog: run exceeded %v; goroutines:\n", budget)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
	return func() { t.Stop() }
}

// execute runs one workload to completion: set-up, warm-up, the timed
// phases, drain, output checks; untraced runs then repeat the set-up.
func execute(cfg *runConfig) (*runData, error) {
	window := time.Duration(cfg.seconds * float64(time.Second))
	defer watchdog(window + warmUp + 30*time.Second)()

	spanCap := 0
	if cfg.trace {
		spanCap = 200_000 + int(150_000*cfg.seconds)
	}
	dep, err := deploy(cfg.workDir, spanCap)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	defer dep.close()
	rd := &runData{cfg: cfg, dep: dep, setupS: []float64{time.Since(cfg.started).Seconds()}}

	// Phase plan. A traced run times an untraced stretch first, so the
	// tracing overhead is measured inside one process, back to back.
	warm := warmUp
	if window/2 < warm {
		warm = window / 2
	}
	type plan struct {
		name string
		d    time.Duration
	}
	plans := []plan{{"warm", warm}, {"window", window}}
	if cfg.trace {
		plans = []plan{{"warm", warm}, {"plain", window / 4}, {"traced", window * 2 / 5}}
	}
	rec := dep.rec
	t0 := rec.now() + int64(5*time.Millisecond)
	at := t0
	for _, pl := range plans {
		rd.phases = append(rd.phases, &phase{name: pl.name, from: at, to: at + int64(pl.d)})
		at += int64(pl.d)
	}
	stopAt := at

	spec := cfg.spec
	var wg sync.WaitGroup
	for _, c := range spec.readers() {
		r := &reader{
			client: dep.clients[c], dial: dep.cdial[c], gen: spec.readGen(cfg.seed, c),
			opBase: uint64(c+1) << 32, keep: spec.readOnly(),
			samples: make([]readSample, 0, int(30_000*(cfg.seconds+2))),
		}
		rd.readers = append(rd.readers, r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.run(rec, stopAt)
		}()
	}
	rd.cal = newCalibrator(time.Duration(stopAt-t0) + time.Second)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rd.cal.run(rec, stopAt)
	}()
	if spec.waveSize > 0 {
		rd.writer = &writer{client: dep.clients[writerClient], dial: dep.cdial[writerClient], gen: spec.writeGen(cfg.seed), size: spec.waveSize}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd.writer.run(rec, t0, stopAt)
		}()
	}

	sleepUntil := func(t int64) {
		if d := t - rec.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
	}
	for i, ph := range rd.phases {
		sleepUntil(ph.from)
		if i == 0 {
			ph.begin = dep.snapshot()
		} else {
			ph.begin = rd.phases[i-1].end
		}
		rec.tracing.Store(ph.name == "traced")
		if ph.name == "window" {
			// A mark every sliceLen, and one at the end: a window that is
			// no multiple of sliceLen ends in a shorter slice.
			for t := ph.from; ; t = min(t+int64(sliceLen), ph.to) {
				sleepUntil(t)
				rd.marks = append(rd.marks, dep.mark())
				if t == ph.to {
					break
				}
			}
		}
		sleepUntil(ph.to)
		ph.end = dep.snapshot()
	}
	rec.tracing.Store(false)
	wg.Wait()
	loadEnd := rec.now()

	if err := rd.drain(loadEnd); err != nil {
		return rd, err
	}
	rd.final = dep.snapshot()
	rd.peakRSSMB = float64(rd.final.ru.Maxrss) / 1024 // Linux reports KiB
	if err := rd.check(); err != nil {
		return rd, err
	}

	if !cfg.trace {
		// setup_s is the median of several set-ups. The extra ones run
		// after the peak-RSS reading so they cannot inflate it.
		dep.close()
		for i := 0; i < extraSetups; i++ {
			debug.FreeOSMemory()
			begin := time.Now()
			extra, err := deploy(cfg.workDir, 0)
			if err != nil {
				return rd, fmt.Errorf("extra set-up %d: %w", i, err)
			}
			rd.setupS = append(rd.setupS, time.Since(begin).Seconds())
			extra.close()
		}
	}
	return rd, nil
}

// drain waits for the system to settle after the load stops: slaves
// reach the masters' version, the auditor accounts for every pledge it
// received and reaches that version too.
func (rd *runData) drain(loadEnd int64) error {
	d := rd.dep
	deadline := time.Now().Add(15 * time.Second)
	expired := func() bool { return time.Now().After(deadline) }

	for {
		v := d.masters[0].Version()
		if d.masters[1].Version() == v && d.slaves[0].Version() == v && d.slaves[1].Version() == v {
			break
		}
		if expired() {
			return fmt.Errorf("drain: replicas did not converge: masters %d/%d slaves %d/%d",
				d.masters[0].Version(), d.masters[1].Version(), d.slaves[0].Version(), d.slaves[1].Version())
		}
		time.Sleep(time.Millisecond)
	}
	rd.convergeMS = float64(d.rec.now()-loadEnd) / 1e6

	for {
		a := d.auditor.Stats()
		done := a.PledgesAudited+a.PledgesSampled+a.PledgesLate+a.PledgesBadSig == a.PledgesReceived
		if done && rd.drainMS == 0 {
			rd.drainMS = float64(d.rec.now()-loadEnd) / 1e6
		}
		if done && d.auditor.Version() == d.masters[0].Version() {
			return nil
		}
		if expired() {
			return fmt.Errorf("drain: auditor stuck: version %d of %d, stats %+v",
				d.auditor.Version(), d.masters[0].Version(), a)
		}
		time.Sleep(time.Millisecond)
	}
}
