package harness

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/metrics"
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
	const writers = 64

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
			cfg := DefaultScenario()
			cfg.Seed = seed
			cfg.NMasters = 1
			cfg.SlavesPerMaster = 1
			cfg.CatalogSize = 50
			cfg.DocCount = 5
			cfg.Params.Costs = m.costs
			// Writes only: shrink max_latency so admission pacing (one
			// slot per batched commit) is not the dominant cap at b=1
			// under 2003 costs, where signing should be.
			cfg.Params.MaxLatency = time.Millisecond
			cfg.BatchSize = batch
			cfg.BatchTimeout = 2 * time.Millisecond
			sc := NewScenario(cfg)
			cl := sc.AddClient(func(cc *core.ClientConfig) { cc.PreferredMaster = 0 })

			var committed uint64
			var firstCommit, lastCommit time.Time
			sc.S.Go(func() {
				sc.S.Sleep(sc.Warmup())
				if err := cl.Setup(); err != nil {
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
							if _, err := cl.Write(gen.NextWrite(seq)); err != nil {
								return
							}
							seq++
							committed++
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
			tput := 0.0
			if span > 0 && committed > 1 {
				tput = float64(committed-1) / span.Seconds()
			}
			if batch == 1 {
				base = tput
			}
			speedup := 0.0
			if base > 0 {
				speedup = tput / base
			}
			ms := sc.TotalMasterStats()
			sigPerWrite := 0.0
			if ms.WritesApplied > 0 {
				sigPerWrite = float64(ms.BatchesApplied) / float64(ms.WritesApplied)
			}
			t.Add(m.name, batch, committed, tput, fmt.Sprintf("%.1fx", speedup),
				ms.BatchesApplied, sigPerWrite, ms.BatchFlushTimer)
		}
	}
	return t
}
