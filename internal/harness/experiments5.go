package harness

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/workload"
)

// E16Checkpointing measures stability-driven checkpointing: under a
// sustained write load the master's op log and the ordered-broadcast
// archive either grow with total writes (checkpointing off — the seed
// behaviour) or stay bounded by the retain window (checkpointing on),
// because slaves piggyback their applied version on keep-alive/update
// acks and the master truncates history below the stable version. A
// slave taken offline across the checkpoint boundary must recover
// through the snapshot-first sync fallback and still converge to the
// master's exact state digest.
func E16Checkpointing(seed int64, scale Scale) *metrics.Table {
	t := metrics.NewTable(
		"E16 — stability checkpointing: bounded master memory, snapshot-first sync for stale slaves",
		"checkpoint", "committed", "retained ops", "op KB", "archive msgs",
		"archive KB", "base version", "ckpts", "stale sync", "sync time", "digest ==")

	dur := 8 * time.Second
	if scale > 1 {
		dur = time.Duration(int64(dur) / int64(scale))
	}

	for _, ckpt := range []time.Duration{0, 500 * time.Millisecond} {
		r := runE16(seed, dur, ckpt)
		mode := "off"
		if ckpt > 0 {
			mode = fmt.Sprintf("every %v", ckpt)
		}
		t.Add(mode, r.committed, r.retainedOps, r.retainedKB, r.archiveLen,
			r.archiveKB, r.baseVersion, r.checkpoints, r.staleSync,
			r.syncTime.Round(time.Millisecond), r.digestEqual)
	}
	return t
}

// e16Result carries one E16 run's measurements.
type e16Result struct {
	committed   uint64
	retainedOps int
	retainedKB  int
	archiveLen  int
	archiveKB   int
	baseVersion uint64
	checkpoints uint64
	auditorArch int // the auditor's archive entries; not in the table
	staleSync   string
	syncTime    time.Duration
	digestEqual bool
}

// runE16 drives one deployment: sustained write waves while one slave is
// partitioned off, then the slave is revived and its recovery is timed.
func runE16(seed int64, dur time.Duration, checkpointEvery time.Duration) e16Result {
	cfg := DefaultScenario()
	cfg.Seed = seed
	cfg.NMasters = 1
	cfg.SlavesPerMaster = 3
	cfg.CatalogSize = 50
	cfg.DocCount = 5
	// Writes only: shrink the pacing slot so batches, not pacing,
	// dominate, and tighten keep-alives so acks (the stability signal)
	// flow fast. Keep link latency well under KeepAliveEvery/2: it
	// doubles as the broadcast RPC timeout.
	cfg.Params.MaxLatency = 4 * time.Millisecond
	cfg.Params.KeepAliveEvery = 100 * time.Millisecond
	cfg.BatchSize = 8
	cfg.BatchTimeout = 2 * time.Millisecond
	cfg.CheckpointEvery = checkpointEvery
	sc := NewScenario(cfg)
	cl := sc.AddClient(func(cc *core.ClientConfig) { cc.PreferredMaster = 0 })

	var res e16Result
	const writers = 8
	const wave = 8
	sc.S.Go(func() {
		sc.S.Sleep(sc.Warmup())
		if err := cl.Setup(); err != nil {
			sc.S.Stop()
			return
		}
		// Partition one slave off for the whole write phase: with
		// checkpointing on, the history it misses is truncated under it.
		stale := sc.Slaves[2]
		sc.Net.SetDown(stale.Addr(), true)

		end := sc.S.Now().Add(dur)
		done := 0
		for i := 0; i < writers; i++ {
			i := i
			sc.S.Spawn(func() {
				defer func() { done++ }()
				gen := workload.NewGen(rand.New(rand.NewSource(seed+int64(i)*31)),
					workload.DefaultMix(), cfg.CatalogSize, cfg.DocCount)
				seq := 0
				for sc.S.Now().Before(end) {
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
			})
		}
		for done < writers {
			sc.S.Sleep(50 * time.Millisecond)
		}
		// Let the last acks and (if enabled) a final checkpoint land.
		sc.S.Sleep(2*cfg.Params.KeepAliveEvery + 2*checkpointEvery + 100*time.Millisecond)

		m := sc.Masters[0]
		res.retainedOps = m.RetainedOps()
		res.retainedKB = m.RetainedOpBytes() / 1024
		res.archiveLen = m.ArchiveLen()
		res.archiveKB = m.ArchiveBytes() / 1024
		res.baseVersion = m.BaseVersion()
		res.checkpoints = m.Stats().CheckpointsApplied
		res.auditorArch = sc.Auditor.ArchiveLen()

		// Revive the stale slave and time its recovery: the next
		// keep-alive shows it behind and triggers a sync, which is a
		// record replay when history is intact and a snapshot-first
		// transfer when a checkpoint truncated it.
		reviveAt := sc.S.Now()
		sc.Net.SetDown(stale.Addr(), false)
		deadline := reviveAt.Add(time.Minute)
		for stale.Version() < m.Version() && sc.S.Now().Before(deadline) {
			sc.S.Sleep(10 * time.Millisecond)
		}
		res.syncTime = sc.S.Now().Sub(reviveAt)
		res.digestEqual = stale.StateDigest().Equal(m.StateDigest())
		if stale.Stats().SnapshotSyncs > 0 {
			res.staleSync = "snapshot"
		} else {
			res.staleSync = "records"
		}
		sc.S.Stop()
	})
	sc.Run(12 * time.Hour)
	return res
}
