package harness

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// E13CostAblation re-runs the cost-sensitive conclusions under a modern
// (Ed25519-era) cost model instead of the paper's 2003-era one. It
// answers: which of the paper's arguments depend on expensive signatures
// and which are architectural?
//
//   - The auditor's throughput advantage (§3.4) shrinks when signing is
//     cheap — it was mostly "the auditor does not sign".
//   - The 1-vs-(2f+1) execution count (§1/§5) is unchanged: it never
//     depended on crypto costs.
func E13CostAblation(seed int64, scale Scale) *metrics.Table {
	t := metrics.NewTable(
		"E13 — ablation: 2003-era vs modern signature costs",
		"cost model", "slave ops/s/core", "auditor ops/s/core (miss)", "auditor:slave ratio",
		"ours untrusted execs/read", "smr f=1 execs/read")
	nReads := scale.reads(200)

	models := []struct {
		name  string
		costs cryptoutil.CostModel
	}{
		{"2003 (RSA-class)", cryptoutil.DefaultCosts()},
		{"modern (Ed25519-class)", cryptoutil.ModernCosts()},
	}
	for _, m := range models {
		slaveTotal := m.costs.QueryCost(1024) + m.costs.HashCost(1024) + m.costs.Sign + m.costs.SendReply
		audTotal := m.costs.QueryCost(1024) + m.costs.HashCost(1024) // an honest pledge: no signature check

		// Measured execs/read under this cost model (the architectural
		// invariant: it must not move).
		cfg := DefaultScenario()
		cfg.Seed = seed
		cfg.NMasters = 1
		cfg.SlavesPerMaster = 2
		cfg.Params.Costs = m.costs
		cfg.Params.DoubleCheckP = 0.05
		sc := NewScenario(cfg)
		cl := sc.AddClient(nil)
		sc.S.Go(func() {
			defer sc.S.Stop()
			sc.S.Sleep(sc.Warmup())
			if err := cl.Setup(); err != nil {
				return
			}
			gen := workload.NewGen(rand.New(rand.NewSource(seed)), workload.DefaultMix(), cfg.CatalogSize, cfg.DocCount)
			driveReads(sc, cl, gen, nReads, 2*time.Millisecond)
		})
		sc.Run(time.Hour)
		accepted := float64(cl.Stats().ReadsAccepted)
		slaveExecs := float64(sc.TotalSlaveStats().ReadsServed)

		t.Add(m.name,
			1/slaveTotal.Seconds(),
			1/audTotal.Seconds(),
			float64(slaveTotal)/float64(audTotal),
			metrics.Ratio(slaveExecs, accepted),
			float64(2*1+1)) // SMR read-quorum size is architecture, not crypto
	}
	t.Note("cheap signatures shrink the auditor's edge (it stops being 'free of the signing cost')")
	t.Note("the execs/read comparison is untouched: the paper's resource argument is architectural")
	return t
}

// E14Recovery measures the §3.5 slave life cycle end to end: conviction
// (immediate discovery), recovery to a safe state with a verified
// snapshot transfer, readmission, and post-recovery clean service.
func E14Recovery(seed int64, scale Scale) *metrics.Table {
	t := metrics.NewTable(
		"E14 — compromised-slave life cycle (§3.5): convict, recover, readmit",
		"phase", "outcome", "elapsed since conviction")
	cfg := DefaultScenario()
	cfg.Seed = seed
	cfg.NMasters = 1
	cfg.SlavesPerMaster = 2
	cfg.Params.DoubleCheckP = 1.0
	cfg.Params.GreedyMinBurst = 1 << 30
	sc := NewScenario(cfg)
	cfgMut := func(cc *core.ClientConfig) { cc.PreferredMaster = 0 }
	cl := sc.AddClient(cfgMut)
	liar := sc.Slaves[0]
	liarPub := liar.PublicKey()

	// Install the malicious behaviour dynamically (the scenario default
	// is honest).
	liar.SetBehavior(core.AlwaysLie{})

	var convictedAt, recoveredAt, readmittedAt, servedAt time.Time
	var postRecoveryOK bool
	sc.S.Go(func() {
		defer sc.S.Stop()
		sc.S.Sleep(sc.Warmup())
		if err := cl.Setup(); err != nil {
			return
		}
		gen := workload.NewGen(rand.New(rand.NewSource(seed)), workload.StaticOnly(), cfg.CatalogSize, cfg.DocCount)

		// Phase 1: conviction via mandatory double-check.
		cl.Read(gen.Next())
		if !sc.Dir.IsExcluded(sc.Owner.Public, liarPub) {
			return
		}
		convictedAt = sc.S.Now()

		// A write while the slave is out, so recovery must transfer state.
		cl.Write(gen.NextWrite(1))

		// Phase 2: recovery — safe behaviour + verified snapshot.
		liar.SetBehavior(core.Honest{})
		if err := liar.Bootstrap(); err != nil {
			return
		}
		recoveredAt = sc.S.Now()

		// Phase 3: readmission through the master set.
		if err := sc.Masters[0].ReadmitSlave(liar.Addr(), liarPub); err != nil {
			return
		}
		sc.S.Sleep(2 * cfg.Params.KeepAliveEvery)
		if sc.Dir.IsExcluded(sc.Owner.Public, liarPub) {
			return
		}
		readmittedAt = sc.S.Now()

		// Phase 4: the readmitted slave serves clean answers.
		others := []string{sc.Slaves[1].Addr()}
		_ = others
		before := cl.Stats().LiesAccepted
		for i := 0; i < 20; i++ {
			cl.Read(gen.Next())
		}
		servedAt = sc.S.Now()
		postRecoveryOK = cl.Stats().LiesAccepted == before
		sc.S.Sleep(2 * time.Second)
	})
	sc.Run(time.Hour)

	since := func(ts time.Time) time.Duration {
		if ts.IsZero() || convictedAt.IsZero() {
			return 0
		}
		return ts.Sub(convictedAt)
	}
	t.Add("convicted + excluded", !convictedAt.IsZero(), time.Duration(0))
	t.Add("recovered (verified snapshot at master version)", !recoveredAt.IsZero(), since(recoveredAt))
	t.Add("readmitted (exclusion cleared everywhere)", !readmittedAt.IsZero(), since(readmittedAt))
	t.Add("serving clean answers post-recovery", postRecoveryOK, since(servedAt))
	t.Note("§3.5: a slave that was the victim of an attack can be recovered to a safe state and brought back to use")
	return t
}
