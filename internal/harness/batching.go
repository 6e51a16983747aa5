package harness

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/workload"
)

// E15BatchThroughput measures the batched write pipeline: concurrent
// writers drive one master whose batch accumulator flushes at size N,
// so one signature (the §3.4 per-write bottleneck) covers N commits.
// Committed throughput is swept over batch sizes under both cost
// models. The paper's cap — ~1/Sign writes/s on 2003-era hardware —
// should lift by roughly the batch size until pacing, per-op verify or
// apply costs take over; under modern costs batching instead lifts the
// max_latency pacing cap, because a batch occupies a single spacing
// slot.
func E15BatchThroughput(seed int64, scale Scale) *metrics.Table {
	t := metrics.NewTable(
		"E15 — batched write pipeline: one signature per batch (stamps over the batch digest)",
		"cost model", "batch", "committed", "throughput (/s)", "speedup vs b=1",
		"batches (=sigs)", "sigs/write", "timer flushes")

	dur := 10 * time.Second
	if scale > 1 {
		dur = time.Duration(int64(dur) / int64(scale))
	}

	models := []struct {
		name  string
		costs cryptoutil.CostModel
	}{
		{"2003 (RSA-class)", cryptoutil.DefaultCosts()},
		{"modern (Ed25519-class)", cryptoutil.ModernCosts()},
	}
	for _, m := range models {
		base := 0.0
		for _, batch := range []int{1, 4, 16, 64} {
			r := runWrites(seed, dur, m.costs, batch, 0)
			if batch == 1 {
				base = r.tput
			}
			speedup := 0.0
			if base > 0 {
				speedup = r.tput / base
			}
			t.Add(m.name, batch, r.committed, r.tput, fmt.Sprintf("%.1fx", speedup),
				r.ms.BatchesApplied, r.sigsPerWrite(), r.ms.BatchFlushTimer)
		}
	}
	return t
}

// writeRun carries one write-only run's measurements.
type writeRun struct {
	committed uint64
	tput      float64
	ms        core.MasterStats
}

// sigsPerWrite is the signatures (one per batch) each applied write cost.
func (r writeRun) sigsPerWrite() float64 {
	if r.ms.WritesApplied == 0 {
		return 0
	}
	return float64(r.ms.BatchesApplied) / float64(r.ms.WritesApplied)
}

// runWrites drives one write-only deployment for E15 and E18: one master
// and one slave under costs, a 1 ms max_latency (so admission pacing,
// one slot per batched commit, is not the dominant cap at b=1 under 2003
// costs, where signing should be) and batches of batch ops flushed at
// most 2 ms after their first wave. wave == 0 is the E15 shape: 64
// writers each submitting one signed write per RPC. wave > 0 gives 16
// writers that group their submissions into WriteMulti frames of that
// size, the hot-path shape.
func runWrites(seed int64, dur time.Duration, costs cryptoutil.CostModel, batch, wave int) writeRun {
	cfg := DefaultScenario()
	cfg.Seed = seed
	cfg.NMasters = 1
	cfg.SlavesPerMaster = 1
	cfg.CatalogSize = 50
	cfg.DocCount = 5
	cfg.Params.Costs = costs
	cfg.Params.MaxLatency = time.Millisecond
	cfg.BatchSize = batch
	cfg.BatchTimeout = 2 * time.Millisecond
	sc := NewScenario(cfg)
	cl := sc.AddClient(func(cc *core.ClientConfig) { cc.PreferredMaster = 0 })

	var res writeRun
	var firstCommit, lastCommit time.Time
	writers := 64
	if wave > 0 {
		writers = 16
	}
	sc.S.Go(func() {
		sc.S.Sleep(sc.Warmup())
		if err := cl.Setup(); err != nil {
			sc.S.Stop()
			return
		}
		end := sc.S.Now().Add(dur)
		for i := 0; i < writers; i++ {
			i := i
			sc.S.Spawn(func() {
				gen := workload.NewGen(rand.New(rand.NewSource(seed+int64(i)*31)),
					workload.DefaultMix(), cfg.CatalogSize, cfg.DocCount)
				seq := 0
				for sc.S.Now().Before(end) {
					start := sc.S.Now()
					if wave == 0 {
						if _, err := cl.Write(gen.NextWrite(seq)); err != nil {
							return
						}
						seq++
						res.committed++
					} else {
						ops := make([]store.Op, wave)
						for j := range ops {
							ops[j] = gen.NextWrite(seq)
							seq++
						}
						versions, err := cl.WriteMulti(ops)
						if err != nil {
							return
						}
						for _, v := range versions {
							if v != 0 {
								res.committed++
							}
						}
					}
					if firstCommit.IsZero() {
						firstCommit = start
					}
					lastCommit = sc.S.Now()
				}
			})
		}
		sc.S.Sleep(dur + time.Second)
		sc.S.Stop()
	})
	sc.Run(12 * time.Hour)

	span := lastCommit.Sub(firstCommit)
	if span > 0 && res.committed > 1 {
		res.tput = float64(res.committed-1) / span.Seconds()
	}
	res.ms = sc.TotalMasterStats()
	return res
}
