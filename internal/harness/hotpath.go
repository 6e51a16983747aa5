package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/workload"
)

// E18HotPath measures the zero-alloc hot path under modern signature
// costs. The write rows run on E15's runner (runWrites) under its
// modern-cost configuration: the first reproduces E15's b=16 row exactly
// (individual Write calls) as the reference point, and the "hot" rows
// push the same load through write waves (WriteMulti), so each wave
// fills a batch by itself and no flush waits on the timer — committed
// throughput should clear 2x the reference row. The final row exercises
// the read path, where stamps repeat: between content updates every read
// reply carries the same master stamp, so the verified-stamp cache
// replaces those signature verifications — its stamp-cache columns count
// the checks skipped.
func E18HotPath(seed int64, scale Scale) *metrics.Table {
	t := metrics.NewTable(
		"E18 — zero-alloc hot path: pooled frames, one-hash batch digest, stamp cache",
		"mode", "batch", "committed", "throughput (/s)", "speedup",
		"batches (=sigs)", "sigs/write", "timer flushes", "reads", "stamp hits", "stamp misses")

	dur := 10 * time.Second
	if scale > 1 {
		dur = time.Duration(int64(dur) / int64(scale))
	}

	rows := []struct {
		mode  string
		batch int
		wave  int // 0 = individual Write calls (the E15 shape)
	}{
		{"e15-equiv (reference)", 16, 0},
		{"hot path", 16, 16},
		{"hot path", 64, 64},
	}

	base := 0.0
	for _, row := range rows {
		r := runWrites(seed, dur, cryptoutil.ModernCosts(), row.batch, row.wave)
		if base == 0 {
			base = r.tput
		}
		speedup := 0.0
		if base > 0 {
			speedup = r.tput / base
		}
		t.Add(row.mode, row.batch, r.committed, r.tput, fmt.Sprintf("%.1fx", speedup),
			r.ms.BatchesApplied, r.sigsPerWrite(), r.ms.BatchFlushTimer, "-", "-", "-")
	}

	rr := runE18Reads(seed, dur)
	t.Add("read path (stamp cache)", "-", "-", "-", "-", "-", "-", "-",
		rr.reads, rr.stampHits, rr.stampMisses)
	return t
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
