package harness

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/workload"
)

// E18HotPath measures the zero-alloc hot path under modern signature
// costs. The write rows share E15's modern-cost configuration: the
// first reproduces it exactly (individual Write calls, static flush
// timeout) as the reference point, and the "hot" rows push the same
// load through write waves (WriteMulti) with the adaptive flush
// enabled, so batches fill and the flush timer tracks the arrival
// rate — committed throughput should clear 2x the reference row. The
// final row exercises the read path, where stamps repeat: between
// content updates every read reply carries the same master stamp, so
// the verified-stamp cache replaces those signature verifications —
// its stamp-cache columns count the checks skipped.
func E18HotPath(seed int64, scale Scale) *metrics.Table {
	t := metrics.NewTable(
		"E18 — zero-alloc hot path: pooled frames, one-hash batch digest, stamp cache, adaptive flush",
		"mode", "batch", "committed", "throughput (/s)", "speedup",
		"batches (=sigs)", "sigs/write", "timer flushes", "reads", "stamp hits", "stamp misses")

	dur := 10 * time.Second
	if scale > 1 {
		dur = time.Duration(int64(dur) / int64(scale))
	}

	rows := []struct {
		mode     string
		batch    int
		wave     int // 0 = individual Write calls (the E15 shape)
		adaptive bool
	}{
		{"e15-equiv (reference)", 16, 0, false},
		{"hot path", 16, 16, true},
		{"hot path", 64, 64, true},
	}

	base := 0.0
	for _, row := range rows {
		r := runE18(seed, dur, row.batch, row.wave, row.adaptive)
		if base == 0 {
			base = r.tput
		}
		speedup := 0.0
		if base > 0 {
			speedup = r.tput / base
		}
		sigPerWrite := 0.0
		if r.ms.WritesApplied > 0 {
			sigPerWrite = float64(r.ms.BatchesApplied) / float64(r.ms.WritesApplied)
		}
		t.Add(row.mode, row.batch, r.committed, r.tput, fmt.Sprintf("%.1fx", speedup),
			r.ms.BatchesApplied, sigPerWrite, r.ms.BatchFlushTimer, "-", "-", "-")
	}

	rr := runE18Reads(seed, dur)
	t.Add("read path (stamp cache)", "-", "-", "-", "-", "-", "-", "-",
		rr.reads, rr.stampHits, rr.stampMisses)
	return t
}

// e18Result carries one E18 write run's measurements.
type e18Result struct {
	committed uint64
	tput      float64
	ms        core.MasterStats
}

// runE18 drives one write-only deployment. wave == 0 reproduces the
// E15 shape (64 writers each submitting one signed write per RPC);
// wave > 0 groups each writer's submissions into WriteMulti frames of
// that size, the hot-path shape.
func runE18(seed int64, dur time.Duration, batch, wave int, adaptive bool) e18Result {
	cfg := DefaultScenario()
	cfg.Seed = seed
	cfg.NMasters = 1
	cfg.SlavesPerMaster = 1
	cfg.CatalogSize = 50
	cfg.DocCount = 5
	cfg.Params.Costs = cryptoutil.ModernCosts()
	cfg.Params.MaxLatency = time.Millisecond
	cfg.BatchSize = batch
	cfg.BatchTimeout = 2 * time.Millisecond
	cfg.BatchAdaptive = adaptive
	sc := NewScenario(cfg)
	cl := sc.AddClient(func(cc *core.ClientConfig) { cc.PreferredMaster = 0 })

	var res e18Result
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

// e18ReadResult carries the read-path run's measurements.
type e18ReadResult struct {
	reads       uint64
	stampHits   uint64
	stampMisses uint64
}

// runE18Reads drives a read-heavy deployment under the default (read
// protocol) freshness bounds: occasional writes advance the stamp
// while readers hammer the slave. Between updates each request names the
// stamp the client holds and the reply leaves it out (a client stamp
// hit); a new stamp reaches the client whole, and is verified, once for
// each of its readers whose request was in flight when it changed (a
// miss). The slave's verified-stamp memo adds its own hits and misses.
func runE18Reads(seed int64, dur time.Duration) e18ReadResult {
	cfg := DefaultScenario()
	cfg.Seed = seed
	cfg.NMasters = 1
	cfg.SlavesPerMaster = 1
	cfg.CatalogSize = 50
	cfg.DocCount = 5
	cfg.Params.Costs = cryptoutil.ModernCosts()
	sc := NewScenario(cfg)
	cl := sc.AddClient(func(cc *core.ClientConfig) { cc.PreferredMaster = 0 })

	var res e18ReadResult
	const readers = 4
	sc.S.Go(func() {
		sc.S.Sleep(sc.Warmup())
		if err := cl.Setup(); err != nil {
			sc.S.Stop()
			return
		}
		end := sc.S.Now().Add(dur)
		// A slow writer: stamps change occasionally, as in a mostly-read
		// deployment, so repeats dominate.
		sc.S.Spawn(func() {
			seq := 0
			for sc.S.Now().Before(end) {
				if _, err := cl.Write(store.Put{
					Key: workload.CatalogKey(seq % cfg.CatalogSize), Value: []byte("v"),
				}); err != nil {
					return
				}
				seq++
				if sc.S.Sleep(500*time.Millisecond) != nil {
					return
				}
			}
		})
		for i := 0; i < readers; i++ {
			i := i
			sc.S.Spawn(func() {
				for sc.S.Now().Before(end) {
					key := workload.CatalogKey((i * 7) % cfg.CatalogSize)
					if _, err := cl.Read(query.Get{Key: key}); err == nil {
						res.reads++
					}
				}
			})
		}
		sc.S.Sleep(dur + time.Second)
		sc.S.Stop()
	})
	sc.Run(12 * time.Hour)

	cs := sc.TotalClientStats()
	ss := sc.TotalSlaveStats()
	res.stampHits = cs.StampCacheHits + ss.StampCacheHits
	res.stampMisses = cs.StampCacheMisses + ss.StampCacheMisses
	return res
}
