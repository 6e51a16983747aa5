package harness

import (
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/workload"
)

// E17CrashRecovery measures durable crash-restart recovery: masters run
// with a DataDir, so every committed batch is appended to a write-ahead
// log (fsynced before the client ack) and every applied checkpoint
// atomically persists a signed snapshot and truncates the WAL. One
// master is killed mid-load and restarted over the same DataDir. Two
// regimes:
//
//   - wal-replay: short outage, broadcast archive intact. The restarted
//     master replays its snapshot+WAL to the pre-crash state and closes
//     the remaining gap through ordinary broadcast fetch — no recovery
//     sync at all.
//   - snapshot-sync: the outage spans checkpoint truncation, so the
//     records the master missed are gone from every peer's archive. It
//     still replays its local state first, then falls back to one
//     snapshot-first sync from a peer instead of reprovisioning.
//
// In both regimes the restarted master must converge to the exact state
// digest of the survivor.
func E17CrashRecovery(seed int64, scale Scale) *metrics.Table {
	t := metrics.NewTable(
		"E17 — durable WAL + crash restart: replay locally, snapshot-sync only past truncation",
		"regime", "committed", "wal replayed", "recovery syncs", "catch-up",
		"final version", "digest ==")

	dur := 4 * time.Second
	if scale > 1 {
		dur = time.Duration(int64(dur) / int64(scale))
	}

	for _, reg := range []struct {
		name string
		down time.Duration
		ckpt time.Duration
	}{
		// Checkpointing off keeps the broadcast archive intact, so the
		// short outage is covered entirely by local replay + fetch.
		{"wal-replay", 200 * time.Millisecond, 0},
		// Checkpoints keep truncating while the master is down, so by
		// restart its gap starts below every peer's archive floor.
		{"snapshot-sync", 1500 * time.Millisecond, 300 * time.Millisecond},
	} {
		r := runE17(seed, dur, reg.down, reg.ckpt)
		t.Add(reg.name, r.committed, r.walReplayed, r.recoverySyncs,
			r.catchUp.Round(time.Millisecond), r.finalVersion, r.digestEqual)
	}
	return t
}

// e17Result carries one E17 run's measurements.
type e17Result struct {
	committed     uint64
	walReplayed   uint64
	recoverySyncs uint64
	catchUp       time.Duration
	finalVersion  uint64
	digestEqual   bool
}

// runE17 drives one deployment: sustained write waves against master-0
// while master-1 is killed and restarted over its durable state.
func runE17(seed int64, dur, down, checkpointEvery time.Duration) e17Result {
	dataDir, err := os.MkdirTemp("", "e17-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dataDir)

	cfg := DefaultScenario()
	cfg.Seed = seed
	cfg.NMasters = 2
	cfg.SlavesPerMaster = 2
	cfg.CatalogSize = 50
	cfg.DocCount = 5
	// Same write-heavy tuning as E16: batches, not pacing, dominate, and
	// keep-alives (the stability signal) flow fast.
	cfg.Params.MaxLatency = 4 * time.Millisecond
	cfg.Params.KeepAliveEvery = 100 * time.Millisecond
	cfg.BatchSize = 8
	cfg.BatchTimeout = 2 * time.Millisecond
	cfg.CheckpointEvery = checkpointEvery
	cfg.DataDir = dataDir
	sc := NewScenario(cfg)
	cl := sc.AddClient(func(cc *core.ClientConfig) { cc.PreferredMaster = 0 })

	var res e17Result
	const writers = 8
	const wave = 8
	sc.S.Go(func() {
		sc.S.Sleep(sc.Warmup())
		if err := cl.Setup(); err != nil {
			sc.S.Stop()
			return
		}
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

		// Kill master-1 a third of the way through the load, leave it
		// down for the regime's outage, then restart it over the same
		// DataDir.
		sc.S.Sleep(dur / 3)
		sc.KillMaster(1)
		sc.S.Sleep(down)
		goal := sc.Masters[0].Version()
		restartAt := sc.S.Now()
		m1 := sc.RestartMaster(1)

		// Catch-up: time until the restarted master has at least the
		// version the survivor held at restart.
		deadline := restartAt.Add(2 * time.Minute)
		for m1.Version() < goal && sc.S.Now().Before(deadline) {
			sc.S.Sleep(5 * time.Millisecond)
		}
		res.catchUp = sc.S.Now().Sub(restartAt)

		for done < writers {
			sc.S.Sleep(50 * time.Millisecond)
		}
		sc.S.Sleep(2*cfg.Params.KeepAliveEvery + 2*checkpointEvery + 200*time.Millisecond)

		// Full convergence: both masters at the same version and digest.
		m0 := sc.Masters[0]
		convDeadline := sc.S.Now().Add(time.Minute)
		for m1.Version() != m0.Version() && sc.S.Now().Before(convDeadline) {
			sc.S.Sleep(10 * time.Millisecond)
		}
		st := m1.Stats()
		res.walReplayed = st.WALReplayed
		res.recoverySyncs = st.RecoverySyncs
		res.finalVersion = m1.Version()
		res.digestEqual = m1.StateDigest().Equal(m0.StateDigest())
		sc.S.Stop()
	})
	sc.Run(12 * time.Hour)
	return res
}
