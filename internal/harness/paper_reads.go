package harness

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Scale divides experiment sizes so benchmarks can run the same code at
// reduced cost: reads are divided by Scale (minimum 1).
type Scale int

func (s Scale) reads(n int) int {
	if s <= 1 {
		return n
	}
	out := n / int(s)
	if out < 10 {
		out = 10
	}
	return out
}

// driveReads issues n reads from gen through cl, pacing by gap, and
// returns the latency histogram.
func driveReads(sc *Scenario, cl *core.Client, gen *workload.Gen, n int, gap time.Duration) *metrics.Histogram {
	h := &metrics.Histogram{}
	for i := 0; i < n; i++ {
		q := gen.Next()
		start := sc.S.Now()
		if _, err := cl.Read(q); err == nil {
			h.Add(sc.S.Now().Sub(start))
		}
		if gap > 0 {
			if sc.S.Sleep(gap) != nil {
				return h
			}
		}
	}
	return h
}

// E1ReadCost compares the per-read server cost of the paper's scheme
// against state machine replication (2f+1 executions) and state signing
// (trusted host for dynamic queries). Validates §1/§5: "avoiding much of
// the overhead associated with state machine replication".
func E1ReadCost(seed int64, scale Scale) *metrics.Table {
	t := metrics.NewTable(
		"E1 — per-read server cost by architecture (query mix: 70% point reads, 30% dynamic)",
		"architecture", "untrusted execs/read", "trusted execs/read", "sigs/read", "client p50", "client p95")
	nReads := scale.reads(400)

	// --- Ours -----------------------------------------------------------
	cfg := DefaultScenario()
	cfg.Seed = seed
	cfg.NMasters = 1
	cfg.SlavesPerMaster = 2
	cfg.Params.DoubleCheckP = 0.05
	sc := NewScenario(cfg)
	cl := sc.AddClient(nil)
	var hist *metrics.Histogram
	sc.S.Go(func() {
		sc.S.Sleep(sc.Warmup())
		if err := cl.Setup(); err != nil {
			return
		}
		gen := workload.NewGen(rand.New(rand.NewSource(seed)), workload.DefaultMix(), cfg.CatalogSize, cfg.DocCount)
		hist = driveReads(sc, cl, gen, nReads, 2*time.Millisecond)
		sc.S.Sleep(5 * time.Second) // drain the audit queue
		sc.S.Stop()
	})
	sc.Run(time.Hour)
	cst := cl.Stats()
	accepted := float64(cst.ReadsAccepted)
	slaveExec := float64(sc.TotalSlaveStats().ReadsServed)
	slaveSigs := signaturesGiven(sc.TotalSlaveStats())
	masterExec := float64(sc.TotalMasterStats().DoubleChecks)
	auditExec := float64(sc.Auditor.Stats().PledgesAudited - sc.Auditor.Stats().CacheHits)
	t.Add("ours (p=0.05, audit all)",
		metrics.Ratio(slaveExec, accepted),
		metrics.Ratio(masterExec+auditExec, accepted),
		metrics.Ratio(slaveSigs, accepted), // a slave signs only when a client asks
		hist.Quantile(0.5), hist.Quantile(0.95))

	// Ours with sampled audit (cheaper trusted path).
	cfg2 := cfg
	cfg2.Params.AuditSampleP = 0.2
	sc2 := NewScenario(cfg2)
	cl2 := sc2.AddClient(nil)
	var hist2 *metrics.Histogram
	sc2.S.Go(func() {
		sc2.S.Sleep(sc2.Warmup())
		if err := cl2.Setup(); err != nil {
			return
		}
		gen := workload.NewGen(rand.New(rand.NewSource(seed)), workload.DefaultMix(), cfg2.CatalogSize, cfg2.DocCount)
		hist2 = driveReads(sc2, cl2, gen, nReads, 2*time.Millisecond)
		sc2.S.Sleep(5 * time.Second)
		sc2.S.Stop()
	})
	sc2.Run(time.Hour)
	cst2 := cl2.Stats()
	acc2 := float64(cst2.ReadsAccepted)
	sl2 := float64(sc2.TotalSlaveStats().ReadsServed)
	sigs2 := signaturesGiven(sc2.TotalSlaveStats())
	ms2 := float64(sc2.TotalMasterStats().DoubleChecks)
	au2 := float64(sc2.Auditor.Stats().PledgesAudited - sc2.Auditor.Stats().CacheHits)
	t.Add("ours (p=0.05, audit 20%)",
		metrics.Ratio(sl2, acc2),
		metrics.Ratio(ms2+au2, acc2),
		metrics.Ratio(sigs2, acc2), // under sampling a client asks on every read
		hist2.Quantile(0.5), hist2.Quantile(0.95))

	// --- SMR -------------------------------------------------------------
	for _, f := range []int{1, 2, 3} {
		s := sim.New(seed + int64(f))
		net := rpc.NewSimNet(s, sim.Const(5*time.Millisecond))
		content := workload.BuildContent(cfg.CatalogSize, cfg.DocCount)
		n := 3*f + 1
		var addrs []string
		var pubs []cryptoutil.PublicKey
		for i := 0; i < n; i++ {
			addr := fmt.Sprintf("rep-%d", i)
			keys := cryptoutil.DeriveKeyPair("smr", i)
			rep := baseline.NewSMRReplica(baseline.SMRReplicaConfig{
				Addr: addr, Keys: keys, Costs: cfg.Params.Costs,
				CPU: s.NewResource(addr+"/cpu", 1),
			}, content)
			net.Register(addr, rep.Handle)
			addrs = append(addrs, addr)
			pubs = append(pubs, keys.Public)
		}
		smrc := baseline.NewSMRClient(baseline.SMRClientConfig{
			Replicas: addrs, ReplicaPubs: pubs, F: f, Seed: seed,
		}, net.Dialer("client"))
		hsmr := &metrics.Histogram{}
		s.Go(func() {
			gen := workload.NewGen(rand.New(rand.NewSource(seed)), workload.DefaultMix(), cfg.CatalogSize, cfg.DocCount)
			for i := 0; i < nReads; i++ {
				q := gen.Next()
				start := s.Now()
				if _, err := smrc.Read(q); err == nil {
					hsmr.Add(s.Now().Sub(start))
				}
			}
		})
		s.Run()
		st := smrc.Stats()
		t.Add(fmt.Sprintf("SMR quorum (f=%d, 2f+1=%d)", f, 2*f+1),
			metrics.Ratio(float64(st.ServerExecs), float64(st.ReadsAccepted)),
			0.0,
			metrics.Ratio(float64(st.ServerExecs), float64(st.ReadsAccepted)),
			hsmr.Quantile(0.5), hsmr.Quantile(0.95))
	}

	// --- State signing ----------------------------------------------------
	{
		s := sim.New(seed + 100)
		net := rpc.NewSimNet(s, sim.Const(5*time.Millisecond))
		owner := cryptoutil.DeriveKeyPair("owner", 0)
		content := workload.BuildContent(cfg.CatalogSize, cfg.DocCount)
		tree := baseline.BuildTree(content)
		root := baseline.SignRoot(owner, content.Version(), tree.Root())
		storage := baseline.NewSSStorage(baseline.SSStorageConfig{
			Addr: "storage", Costs: cfg.Params.Costs, CPU: s.NewResource("storage/cpu", 1),
		}, content, root)
		trusted := baseline.NewSSTrusted(baseline.SSStorageConfig{
			Addr: "trusted", Costs: cfg.Params.Costs, CPU: s.NewResource("trusted/cpu", 1),
		}, content)
		net.Register("storage", storage.Handle)
		net.Register("trusted", trusted.Handle)
		ssc := &baseline.SSClient{
			StorageAddr: "storage", TrustedAddr: "trusted",
			OwnerPub: owner.Public, Costs: cfg.Params.Costs,
			Dialer: net.Dialer("client"),
		}
		hss := &metrics.Histogram{}
		s.Go(func() {
			gen := workload.NewGen(rand.New(rand.NewSource(seed)), workload.DefaultMix(), cfg.CatalogSize, cfg.DocCount)
			for i := 0; i < nReads; i++ {
				q := gen.Next()
				start := s.Now()
				if _, _, err := ssc.Read(q); err == nil {
					hss.Add(s.Now().Sub(start))
				}
			}
		})
		s.Run()
		st := ssc.Stats()
		total := float64(st.StaticReads + st.DynamicReads)
		t.Add("state signing (Merkle)",
			metrics.Ratio(float64(st.StaticReads), total),
			metrics.Ratio(float64(st.DynamicReads), total),
			0.0,
			hss.Quantile(0.5), hss.Quantile(0.95))
	}

	t.Note("ours: untrusted work stays ~1 exec/read; trusted work = p + audit, tunable below 1")
	t.Note("ours: a slave signs a pledge only when its client asks: on every read under a sampled audit, under a full audit only on a reply that brings its stamp whole")
	t.Note("SMR: every read costs 2f+1 signed executions; state signing: every dynamic read runs on trusted CPU")
	return t
}

// E2Detection measures how quickly a lying slave is caught red-handed by
// probabilistic double-checking, across the check probability p and the
// lie rate q. Validates §3.3 "caught red-handed quickly" and the
// geometric 1/(p*q) expectation.
func E2Detection(seed int64, scale Scale) *metrics.Table {
	t := metrics.NewTable(
		"E2 — reads until a lying slave is caught by double-checking",
		"check prob p", "lie rate q", "median reads-to-catch", "mean", "analytic 1/(p*q)", "trials")
	cap := scale.reads(4000)
	trials := 3
	for _, p := range []float64{0.01, 0.05, 0.1, 0.5} {
		for _, q := range []float64{0.1, 0.5, 1.0} {
			var counts []int
			for tr := 0; tr < trials; tr++ {
				cfg := DefaultScenario()
				cfg.Seed = seed + int64(tr)*17
				cfg.NMasters = 1
				cfg.SlavesPerMaster = 2
				cfg.Params.DoubleCheckP = p
				cfg.Params.GreedyMinBurst = 1 << 30 // isolate detection from throttling
				cfg.Params.AuditSampleP = 0         // isolate detection from the audit path
				cfg.SlaveBehaviors = map[int]core.Behavior{0: core.LieWithProb{P: q}}
				sc := NewScenario(cfg)
				cl := sc.AddClient(func(cc *core.ClientConfig) { cc.PreferredMaster = 0 })
				reads := 0
				sc.S.Go(func() {
					defer sc.S.Stop()
					sc.S.Sleep(sc.Warmup())
					if err := cl.Setup(); err != nil {
						return
					}
					gen := workload.NewGen(rand.New(rand.NewSource(cfg.Seed)), workload.StaticOnly(), cfg.CatalogSize, cfg.DocCount)
					for reads < cap {
						cl.Read(gen.Next())
						reads++
						if cl.Stats().CaughtImmediate > 0 {
							return
						}
					}
				})
				sc.Run(12 * time.Hour)
				if cl.Stats().CaughtImmediate > 0 {
					counts = append(counts, reads)
				} else {
					counts = append(counts, cap) // censored
				}
			}
			med, mean := intStats(counts)
			t.Add(p, q, med, mean, 1/(p*q), trials)
		}
	}
	t.Note("reads-to-catch follows a geometric distribution with success prob p*q")
	return t
}

func intStats(xs []int) (median, mean float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sorted := append([]int(nil), xs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	median = float64(sorted[len(sorted)/2])
	total := 0
	for _, x := range xs {
		total += x
	}
	mean = float64(total) / float64(len(xs))
	return median, mean
}

// E3MasterLoad sweeps the double-check probability and reports how much
// read work lands on the trusted masters — §3.3's tuning trade-off.
func E3MasterLoad(seed int64, scale Scale) *metrics.Table {
	t := metrics.NewTable(
		"E3 — master load vs double-check probability (honest slaves)",
		"check prob p", "double-checks/read", "master CPU per read", "slave CPU per read", "trusted share of CPU")
	nReads := scale.reads(300)
	for _, p := range []float64{0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0} {
		cfg := DefaultScenario()
		cfg.Seed = seed
		cfg.NMasters = 1
		cfg.SlavesPerMaster = 2
		cfg.Params.DoubleCheckP = p
		cfg.Params.AuditSampleP = 0 // isolate the double-check load
		cfg.Params.GreedyMinBurst = 1 << 30
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
		checks := float64(sc.TotalMasterStats().DoubleChecks)
		mBusy := sc.MasterBusy()
		sBusy := sc.SlaveBusy()
		t.Add(p,
			metrics.Ratio(checks, accepted),
			time.Duration(metrics.Ratio(float64(mBusy), accepted)),
			time.Duration(metrics.Ratio(float64(sBusy), accepted)),
			metrics.Pct(metrics.Ratio(float64(mBusy), float64(mBusy+sBusy))))
	}
	t.Note("master CPU includes keep-alives and write/commit work; p=1 shifts every read onto trusted hosts")
	return t
}

// E4Audit shows the audit guarantee of §3.4: with double-checking off,
// every lying slave is still detected (delayed discovery) and excluded.
func E4Audit(seed int64, scale Scale) *metrics.Table {
	t := metrics.NewTable(
		"E4 — audit-only detection (double-checking disabled)",
		"lie rate q", "reads", "lies accepted", "audit mismatches", "excluded", "lie->exclusion delay")
	nReads := scale.reads(200)
	for _, q := range []float64{0.02, 0.1, 0.5, 1.0} {
		cfg := DefaultScenario()
		cfg.Seed = seed
		cfg.NMasters = 1
		cfg.SlavesPerMaster = 2
		cfg.Params.DoubleCheckP = 0
		cfg.SlaveBehaviors = map[int]core.Behavior{0: core.LieWithProb{P: q}}
		sc := NewScenario(cfg)
		cl := sc.AddClient(func(cc *core.ClientConfig) { cc.PreferredMaster = 0 })
		var firstLieAt, excludedAt time.Time
		liarPub := sc.Slaves[0].PublicKey()
		sc.S.Go(func() {
			defer sc.S.Stop()
			sc.S.Sleep(sc.Warmup())
			if err := cl.Setup(); err != nil {
				return
			}
			gen := workload.NewGen(rand.New(rand.NewSource(seed)), workload.StaticOnly(), cfg.CatalogSize, cfg.DocCount)
			// Read at least nReads times and until the slave has actually
			// lied once (at low q a small sample may contain no lie).
			for i := 0; i < 50*nReads; i++ {
				cl.Read(gen.Next())
				if firstLieAt.IsZero() && cl.Stats().LiesAccepted > 0 {
					firstLieAt = sc.S.Now()
				}
				if excludedAt.IsZero() && sc.Dir.IsExcluded(sc.Owner.Public, liarPub) {
					excludedAt = sc.S.Now()
					return
				}
				if i >= nReads && !firstLieAt.IsZero() {
					break
				}
				sc.S.Sleep(5 * time.Millisecond)
			}
			// Keep waiting for the audit to catch up.
			for i := 0; i < 1000 && excludedAt.IsZero(); i++ {
				if sc.Dir.IsExcluded(sc.Owner.Public, liarPub) {
					excludedAt = sc.S.Now()
				}
				if sc.S.Sleep(100*time.Millisecond) != nil {
					return
				}
			}
		})
		sc.Run(time.Hour)
		cst := cl.Stats()
		ast := sc.Auditor.Stats()
		delay := time.Duration(0)
		if !excludedAt.IsZero() && !firstLieAt.IsZero() {
			delay = excludedAt.Sub(firstLieAt)
		}
		t.Add(q, cst.ReadsAccepted, cst.LiesAccepted, ast.Mismatches,
			!excludedAt.IsZero(), delay)
	}
	t.Note("with p=0 a lie is accepted first, but the forwarded pledge convicts the slave at audit")
	return t
}

// signaturesGiven counts the pledge signatures slaves handed out, made
// afresh or recalled from their memo: one per read whose client asked.
func signaturesGiven(st core.SlaveStats) float64 {
	return float64(st.PledgeCacheHits + st.PledgeCacheMisses)
}
