package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/workload"
)

// E19Sharding measures aggregate committed-write throughput as the
// keyspace is partitioned across independent master groups. One group's
// throughput is capped by the write-pacing bound (§3.1: a commit wave
// per max_latency), no matter how fast its hardware is; partitioning
// the catalog across N groups multiplies the cap because each group
// runs its own ordered broadcast. Every row drives the same total
// writer population through a client that sets up from the owner-signed
// shard table in the directory and routes each wave to the owning group —
// so the speedup column isolates the routing plane's scaling, not a change
// in client behaviour.
func E19Sharding(seed int64, scale Scale) *metrics.Table {
	t := metrics.NewTable(
		"E19 — sharded multi-master groups: aggregate committed writes/s by shard count",
		"shards", "committed", "throughput (/s)", "speedup",
		"wrong-shard rejects", "redirects")

	dur := 8 * time.Second
	if scale > 1 {
		dur = time.Duration(int64(dur) / int64(scale))
	}

	base := 0.0
	for _, shards := range []int{1, 2, 4, 8} {
		r := runE19(seed, dur, shards)
		if base == 0 {
			base = r.tput
		}
		speedup := 0.0
		if base > 0 {
			speedup = r.tput / base
		}
		t.Add(shards, r.committed, r.tput, fmt.Sprintf("%.1fx", speedup),
			r.ms.WrongShardRejects, r.cs.Redirects)
	}
	return t
}

// e19Result carries one E19 run's measurements.
type e19Result struct {
	committed uint64
	tput      float64
	ms        core.MasterStats
	cs        core.ClientStats
}

// runE19 drives one sharded deployment: `shards` single-master groups,
// each with one slave, under modern costs and a tight 1ms pacing bound
// so the per-group ceiling (not CPU) is the binding constraint. Each
// group gets two writers pushing 16-op waves of catalog keys drawn from
// that group's sub-range through one client, so every wave routes
// to exactly one group and groups commit independently.
func runE19(seed int64, dur time.Duration, shards int) e19Result {
	cfg := DefaultScenario()
	cfg.Seed = seed
	cfg.NMasters = 1
	cfg.SlavesPerMaster = 1
	cfg.Shards = shards
	cfg.CatalogSize = 64
	cfg.DocCount = 4
	cfg.Params.Costs = cryptoutil.ModernCosts()
	cfg.Params.MaxLatency = time.Millisecond
	cfg.BatchSize = 16
	cfg.BatchTimeout = 2 * time.Millisecond
	sc := NewScenario(cfg)
	cl := sc.AddClient(nil)

	var res e19Result
	var firstCommit, lastCommit time.Time
	const wave = 16
	const writersPerShard = 2
	sc.S.Go(func() {
		sc.S.Sleep(sc.Warmup())
		if err := cl.Setup(); err != nil {
			sc.S.Stop()
			return
		}
		end := sc.S.Now().Add(dur)
		for g := 0; g < shards; g++ {
			lo := cfg.CatalogSize * g / shards
			hi := cfg.CatalogSize * (g + 1) / shards
			for w := 0; w < writersPerShard; w++ {
				w := w
				lo, hi := lo, hi
				sc.S.Spawn(func() {
					seq := 0
					for sc.S.Now().Before(end) {
						start := sc.S.Now()
						ops := make([]store.Op, wave)
						for j := range ops {
							k := lo + (seq+w*7)%(hi-lo)
							ops[j] = store.Put{
								Key:   workload.CatalogKey(k),
								Value: []byte{byte(seq), byte(seq >> 8)},
							}
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
						if firstCommit.IsZero() {
							firstCommit = start
						}
						lastCommit = sc.S.Now()
					}
				})
			}
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
	res.cs = cl.Stats()
	return res
}
