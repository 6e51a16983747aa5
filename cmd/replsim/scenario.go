package main

import (
	"flag"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/workload"
)

// scenarioFlags configures the free-form scenario mode (-scenario): a
// custom deployment driven by a mixed workload, with the end-of-run stats
// printed as tables. It is the "kick the tires" mode — the E-experiments
// are the calibrated ones.
type scenarioFlags struct {
	masters    *int
	slaves     *int
	shards     *int
	clients    *int
	liars      *int
	lieProb    *float64
	checkProb  *float64
	maxLatency *time.Duration
	duration   *time.Duration
	readRate   *float64
	writeEvery *int
	batch      *int
	batchWait  *time.Duration
	checkpoint *time.Duration
	ckptRetain *int
	dataDir    *string
}

func registerScenarioFlags() scenarioFlags {
	return scenarioFlags{
		masters:    flag.Int("masters", 2, "scenario: number of masters"),
		slaves:     flag.Int("slaves", 2, "scenario: slaves per master"),
		shards:     flag.Int("shards", 1, "scenario: independent master groups partitioning the keyspace (1 = unsharded)"),
		clients:    flag.Int("clients", 4, "scenario: number of clients"),
		liars:      flag.Int("liars", 0, "scenario: number of lying slaves"),
		lieProb:    flag.Float64("lieprob", 1.0, "scenario: per-answer lie probability of liars"),
		checkProb:  flag.Float64("checkprob", 0.05, "scenario: client double-check probability"),
		maxLatency: flag.Duration("maxlatency", 2*time.Second, "scenario: max_latency"),
		duration:   flag.Duration("duration", time.Minute, "scenario: virtual run time"),
		readRate:   flag.Float64("readrate", 5, "scenario: reads/s per client"),
		writeEvery: flag.Int("writeevery", 50, "scenario: one write per this many reads (0 = none)"),
		batch:      flag.Int("batch", 1, "scenario: master write-batch size (1 = unbatched)"),
		batchWait:  flag.Duration("batchwait", 0, "scenario: batch flush timeout (0 = max_latency/4)"),
		checkpoint: flag.Duration("checkpoint", 0, "scenario: stability-checkpoint cadence (0 = off; log/archive grow forever)"),
		ckptRetain: flag.Int("ckptretain", 0, "scenario: ops always kept below the stable version, rounded up to a whole batch (0 = default)"),
		dataDir:    flag.String("datadir", "", "scenario: base dir for per-master durable WAL+snapshot (\"\" = in-memory)"),
	}
}

func runScenario(seed int64, f scenarioFlags) {
	cfg := harness.DefaultScenario()
	cfg.Seed = seed
	cfg.NMasters = *f.masters
	cfg.SlavesPerMaster = *f.slaves
	cfg.Shards = *f.shards
	cfg.Params.DoubleCheckP = *f.checkProb
	cfg.Params.MaxLatency = *f.maxLatency
	cfg.BatchSize = *f.batch
	cfg.BatchTimeout = *f.batchWait
	cfg.CheckpointEvery = *f.checkpoint
	cfg.CheckpointMinRetain = *f.ckptRetain
	cfg.DataDir = *f.dataDir
	cfg.SlaveBehaviors = map[int]core.Behavior{}
	for i := 0; i < *f.liars && i < *f.masters**f.slaves; i++ {
		cfg.SlaveBehaviors[i] = core.LieWithProb{P: *f.lieProb}
	}
	sc := harness.NewScenario(cfg)
	sharded := *f.shards > 1
	for i := 0; i < *f.clients; i++ {
		i := i
		cl := sc.AddClient(nil)
		sc.S.Go(func() {
			sc.S.Sleep(sc.Warmup())
			if err := cl.Setup(); err != nil {
				return
			}
			rng := rand.New(rand.NewSource(seed + int64(i)*101))
			gen := workload.NewGen(rng, workload.DefaultMix(), cfg.CatalogSize, cfg.DocCount)
			arr := workload.Poisson{Rate: *f.readRate, Rng: rng}
			end := sc.S.Now().Add(*f.duration)
			n := 0
			for sc.S.Now().Before(end) {
				if sc.S.Sleep(arr.NextGap(0)) != nil {
					return
				}
				n++
				if *f.writeEvery > 0 && n%*f.writeEvery == 0 {
					cl.Write(gen.NextWrite(n))
					continue
				}
				// A multi-range table routes only point reads, drawn from
				// the catalog; unsharded keeps the full dynamic-query mix.
				if sharded {
					cl.Read(query.Get{Key: workload.CatalogKey(rng.Intn(cfg.CatalogSize))})
				} else {
					cl.Read(gen.Next())
				}
			}
		})
	}
	sc.S.GoAfter(*f.duration+10*time.Second, func() { sc.S.Stop() })
	start := time.Now()
	sc.Run(*f.duration + time.Minute)

	cs := sc.TotalClientStats()
	ms := sc.TotalMasterStats()
	ss := sc.TotalSlaveStats()
	as := sc.Auditor.Stats()

	t := metrics.NewTable(
		fmt.Sprintf("scenario: %dm x %ds/m, %d clients, %d liars (q=%.2f), p=%.2f, max_latency=%v, batch=%d, %v virtual",
			cfg.NMasters, cfg.SlavesPerMaster, *f.clients, *f.liars, *f.lieProb,
			*f.checkProb, *f.maxLatency, *f.batch, *f.duration),
		"metric", "value")
	t.Add("reads accepted", cs.ReadsAccepted)
	t.Add("lies accepted (ground truth)", cs.LiesAccepted)
	t.Add("reads failed", cs.ReadsFailed)
	t.Add("stale rejects", cs.StaleRejects)
	t.Add("retries", cs.Retries)
	t.Add("double-checks", cs.DoubleChecks)
	t.Add("liars caught red-handed", cs.CaughtImmediate)
	t.Add("writes committed", cs.WritesOK)
	if sharded {
		t.Add("wrong-shard redirects", cs.Redirects)
		t.Add("wrong-shard rejects (masters)", ms.WrongShardRejects)
	}
	t.Add("write batches (= signatures)", ms.BatchesApplied)
	t.Add("write pacing waits", ms.WritePacingWaits)
	t.Add("checkpoints applied", ms.CheckpointsApplied)
	t.Add("op records truncated", ms.OpsTruncated)
	t.Add("op records retained (master 0)", sc.Masters[0].RetainedOps())
	t.Add("broadcast archive entries (master 0)", sc.Masters[0].ArchiveLen())
	t.Add("snapshot-first syncs served", ms.SnapshotSyncs)
	t.Add("exclusions", ms.Exclusions)
	t.Add("client reassignments", cs.Reassignments)
	t.Add("slave reads served", ss.ReadsServed)
	t.Add("slave reads refused (stale)", ss.ReadsRefused)
	t.Add("slave pledge signatures memoised (hits/misses)", fmt.Sprintf("%d/%d", ss.PledgeCacheHits, ss.PledgeCacheMisses))
	t.Add("client pledge verifications memoised (hits/misses)", fmt.Sprintf("%d/%d", cs.PledgeCacheHits, cs.PledgeCacheMisses))
	t.Add("pledges audited", as.PledgesAudited)
	t.Add("auditor pledge verifications memoised (hits/misses)", fmt.Sprintf("%d/%d", as.PledgeCacheHits, as.PledgeCacheMisses))
	t.Add("audit mismatches", as.Mismatches)
	t.Add("auditor max backlog", as.BacklogMax)
	t.Add("auditor versions held (max)", as.VersionLagMax)
	t.Add("master CPU busy", sc.MasterBusy())
	t.Add("slave CPU busy", sc.SlaveBusy())
	t.Add("wall time", time.Since(start).Round(time.Millisecond))
	fmt.Print(t.String())
}
