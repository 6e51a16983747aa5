package harness

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/workload"
)

// E5Auditor reproduces the §3.4 throughput argument: the auditor, which
// signs nothing, replies to nobody, and caches, sustains a higher
// verification rate than any slave's serving rate — and under a diurnal
// load that passes its capacity at the daily peak, it answers every pledge
// on arrival, so the peak shows as slower acks, not as a backlog.
func E5Auditor(seed int64, scale Scale) []*metrics.Table {
	// (a) Micro throughput: modelled cost per operation.
	costs := core.DefaultParams().Costs
	micro := metrics.NewTable(
		"E5a — modelled per-operation cost: slave read vs auditor verify (1 KiB result)",
		"operation", "query", "hash", "sign", "reply", "total", "ops/s/core")
	slaveTotal := costs.QueryCost(1024) + costs.HashCost(1024) + costs.Sign + costs.SendReply
	micro.Add("slave serve+pledge", costs.QueryCost(1024), costs.HashCost(1024), costs.Sign, costs.SendReply,
		slaveTotal, 1/slaveTotal.Seconds())
	audUncached := costs.QueryCost(1024) + costs.HashCost(1024)
	micro.Add("auditor verify (cache miss)", costs.QueryCost(1024), costs.HashCost(1024),
		time.Duration(0), time.Duration(0), audUncached, 1/audUncached.Seconds())
	audCached := costs.CacheLookup
	micro.Add("auditor verify (cache hit)", time.Duration(0), time.Duration(0),
		time.Duration(0), time.Duration(0), audCached, 1/audCached.Seconds())
	micro.Note("the auditor never signs and never replies to clients — the two big slave costs (§3.4)")
	micro.Note("a pledge that agrees with the replica costs no signature check; one that disagrees adds %v (VerifySig) before it is reported", costs.VerifySig)

	// (b) Diurnal run: offered load oscillates around the auditor's
	// capacity. The auditor executes an uncached query as its pledge
	// arrives, so the peak shows as slower acks (a lower rate of pledges
	// received) rather than as a backlog.
	day := 2 * time.Minute // scaled virtual day
	cfg := DefaultScenario()
	cfg.Seed = seed
	cfg.NMasters = 1
	cfg.SlavesPerMaster = 2
	cfg.Params.DoubleCheckP = 0
	cfg.Params.GreedyMinBurst = 1 << 30
	// Expensive queries: re-execution is all an honest pledge costs, so
	// auditor capacity is ~1/QueryBase and slaves are slower still (signing).
	cfg.Params.Costs.QueryBase = 5 * time.Millisecond
	sc := NewScenario(cfg)

	nClients := 16
	if scale > 1 {
		day = time.Minute
	}
	clients := make([]*core.Client, nClients)
	for i := range clients {
		clients[i] = sc.AddClient(func(cc *core.ClientConfig) { cc.PreferredMaster = 0 })
	}
	start := sc.S.Now()
	for i, cl := range clients {
		cl := cl
		i := i
		sc.S.Go(func() {
			sc.S.Sleep(sc.Warmup())
			if err := cl.Setup(); err != nil {
				return
			}
			// Peak offered load (~300/s) exceeds the auditor's re-execution
			// capacity (~1/QueryBase ≈ 200/s) but not the two
			// slaves' combined serving capacity.
			arr := workload.Diurnal{
				Base: 4.0 / float64(nClients), Amplitude: 300.0 / float64(nClients),
				Day: day, Rng: rand.New(rand.NewSource(seed + int64(i))),
			}
			// Distinct keys per read: the auditor's per-version cache
			// cannot shortcut re-execution.
			rng := rand.New(rand.NewSource(seed + int64(i)*31))
			for {
				gap := arr.NextGap(sc.S.Now().Sub(start))
				if sc.S.Sleep(gap) != nil {
					return
				}
				cl.Read(query.Get{Key: fmt.Sprintf("distinct/%d/%d", i, rng.Int63())})
			}
		})
	}
	diurnal := metrics.NewTable(
		fmt.Sprintf("E5b — diurnal load over 2 scaled days (day = %v)", day),
		"day fraction", "offered rate", "pledges received", "audited", "vouched", "auditor busy")
	samples := 16
	var prevRecv, prevAud, prevVouched uint64
	var prevBusy time.Duration
	sc.S.Go(func() {
		sc.S.Sleep(sc.Warmup())
		for i := 1; i <= samples; i++ {
			if sc.S.Sleep(2*day/time.Duration(samples)) != nil {
				return
			}
			ast := sc.Auditor.Stats()
			busy := sc.AuditorCPU.BusyTime()
			frac := float64(i) / float64(samples) * 2
			window := (2 * day / time.Duration(samples)).Seconds()
			diurnal.Add(
				fmt.Sprintf("%.2f", frac),
				float64(ast.PledgesReceived-prevRecv)/window,
				ast.PledgesReceived-prevRecv,
				ast.PledgesAudited-prevAud,
				ast.PledgesVouched-prevVouched,
				metrics.Pct((busy-prevBusy).Seconds()/window))
			prevRecv, prevAud, prevVouched, prevBusy = ast.PledgesReceived, ast.PledgesAudited, ast.PledgesVouched, busy
		}
		sc.S.Stop()
	})
	sc.Run(3 * 24 * time.Hour)
	ast := sc.Auditor.Stats()
	diurnal.Note("received %d pledges, audited %d, vouched %d; long-run the auditor keeps up (§3.4)",
		ast.PledgesReceived, ast.PledgesAudited, ast.PledgesVouched)
	return []*metrics.Table{micro, diurnal}
}

// E6Freshness sweeps the client's network latency against max_latency:
// §3.2 — answers fresh when sent go stale in flight; slow clients can
// relax their own bound.
func E6Freshness(seed int64, scale Scale) *metrics.Table {
	t := metrics.NewTable(
		"E6 — freshness rejection vs client link latency (max_latency = 2s)",
		"one-way link", "reads tried", "accepted", "stale rejects", "failed", "accepted w/ client bound 6s")
	nReads := scale.reads(60)
	for _, lat := range []time.Duration{
		5 * time.Millisecond, 200 * time.Millisecond, 700 * time.Millisecond,
		1200 * time.Millisecond, 1800 * time.Millisecond, 2500 * time.Millisecond,
	} {
		run := func(clientBound time.Duration) (tried, accepted, stale, failed uint64) {
			cfg := DefaultScenario()
			cfg.Seed = seed
			cfg.NMasters = 1
			cfg.SlavesPerMaster = 1
			cfg.Params.DoubleCheckP = 0
			cfg.Params.ClientMaxLatency = clientBound
			cfg.Params.MaxReadRetries = 1
			sc := NewScenario(cfg)
			cl := sc.AddClient(func(cc *core.ClientConfig) { cc.PreferredMaster = 0 })
			// Only the client<->slave and client<->auditor links are slow;
			// master-slave keep-alives ride the fast default.
			sc.Net.SetLinkBoth(cl.Addr(), "slave-0", sim.Const(lat))
			sc.S.Go(func() {
				defer sc.S.Stop()
				sc.S.Sleep(sc.Warmup())
				if err := cl.Setup(); err != nil {
					return
				}
				gen := workload.NewGen(rand.New(rand.NewSource(seed)), workload.StaticOnly(), cfg.CatalogSize, cfg.DocCount)
				for i := 0; i < nReads; i++ {
					cl.Read(gen.Next())
				}
			})
			sc.Run(time.Hour)
			st := cl.Stats()
			return uint64(nReads), st.ReadsAccepted, st.StaleRejects, st.ReadsFailed
		}
		tried, accepted, stale, failed := run(0) // default bound = max_latency
		_, acceptedRelaxed, _, _ := run(6 * time.Second)
		t.Add(lat, tried, accepted, stale, failed, acceptedRelaxed)
	}
	t.Note("past ~max_latency the default bound rejects everything; a client-set bound (§3.2 variant) restores availability at weaker freshness")
	return t
}

// E7WriteCap sweeps the offered write rate against the §3.1 spacing rule:
// admitted throughput saturates at 1/max_latency and queueing delay grows
// past the knee.
func E7WriteCap(seed int64, scale Scale) *metrics.Table {
	maxLat := 2 * time.Second
	capRate := 1 / maxLat.Seconds()
	t := metrics.NewTable(
		fmt.Sprintf("E7 — write admission vs offered rate (max_latency = %v, cap = %.2f/s)", maxLat, capRate),
		"offered rate (/s)", "committed", "throughput (/s)", "mean write latency", "p95 write latency")
	dur := 80 * time.Second
	if scale > 1 {
		dur = 40 * time.Second
	}
	for _, mult := range []float64{0.1, 0.25, 0.5, 1.0, 2.0, 4.0} {
		rate := capRate * mult
		cfg := DefaultScenario()
		cfg.Seed = seed
		cfg.NMasters = 1
		cfg.SlavesPerMaster = 1
		cfg.Params.MaxLatency = maxLat
		sc := NewScenario(cfg)
		cl := sc.AddClient(func(cc *core.ClientConfig) { cc.PreferredMaster = 0 })
		h := &metrics.Histogram{}
		var committed uint64
		var firstCommit, lastCommit time.Time
		sc.S.Go(func() {
			sc.S.Sleep(sc.Warmup())
			if err := cl.Setup(); err != nil {
				return
			}
			gen := workload.NewGen(rand.New(rand.NewSource(seed)), workload.DefaultMix(), cfg.CatalogSize, cfg.DocCount)
			arr := workload.Poisson{Rate: rate, Rng: rand.New(rand.NewSource(seed + 5))}
			end := sc.S.Now().Add(dur)
			seq := 0
			for sc.S.Now().Before(end) {
				if sc.S.Sleep(arr.NextGap(0)) != nil {
					return
				}
				op := gen.NextWrite(seq)
				seq++
				sc.S.Spawn(func() {
					start := sc.S.Now()
					if _, err := cl.Write(op); err == nil {
						committed++
						if firstCommit.IsZero() {
							firstCommit = start
						}
						lastCommit = sc.S.Now()
						h.Add(sc.S.Now().Sub(start))
					}
				})
			}
			// Drain in-flight writes so latency includes queueing.
			sc.S.Sleep(dur)
			sc.S.Stop()
		})
		sc.Run(12 * time.Hour)
		span := lastCommit.Sub(firstCommit)
		tput := 0.0
		if span > 0 && committed > 1 {
			tput = float64(committed-1) / span.Seconds()
		}
		t.Add(fmt.Sprintf("%.2f (%.1fx cap)", rate, mult),
			committed, tput,
			h.Mean(), h.Quantile(0.95))
	}
	t.Note("§3.1: two writes cannot commit closer than max_latency; past the cap, latency grows unboundedly")
	return t
}

// E8KSlave sweeps the §4 multi-slave variant: with k slaves per read,
// colluding liars must own the whole assignment to pass a wrong answer.
func E8KSlave(seed int64, scale Scale) *metrics.Table {
	t := metrics.NewTable(
		"E8 — k-slave reads vs colluding liars (6 slaves total, double-check p=0)",
		"k", "colluders", "reads", "lies accepted", "disagreements", "exclusions", "untrusted execs/read")
	nReads := scale.reads(150)
	for _, k := range []int{1, 2, 3} {
		for _, colluders := range []int{1, 2, 3} {
			cfg := DefaultScenario()
			cfg.Seed = seed + int64(k*10+colluders)
			cfg.NMasters = 1
			cfg.SlavesPerMaster = 6
			cfg.Params.DoubleCheckP = 0
			cfg.Params.AuditSampleP = 0 // isolate the k-comparison mechanism
			cfg.SlaveBehaviors = map[int]core.Behavior{}
			for i := 0; i < colluders; i++ {
				// AlwaysLie corrupts deterministically: colluders agree.
				cfg.SlaveBehaviors[i] = core.AlwaysLie{}
			}
			sc := NewScenario(cfg)
			cl := sc.AddClient(func(cc *core.ClientConfig) {
				cc.KSlaves = k
				cc.PreferredMaster = 0
			})
			sc.S.Go(func() {
				sc.S.Sleep(sc.Warmup())
				if err := cl.Setup(); err != nil {
					return
				}
				gen := workload.NewGen(rand.New(rand.NewSource(seed)), workload.StaticOnly(), cfg.CatalogSize, cfg.DocCount)
				for i := 0; i < nReads; i++ {
					cl.Read(gen.Next())
				}
				sc.S.Sleep(10 * time.Second) // let delayed discovery land
				sc.S.Stop()
			})
			sc.Run(2 * time.Hour)
			st := cl.Stats()
			execs := float64(sc.TotalSlaveStats().ReadsServed)
			t.Add(k, colluders, st.ReadsAccepted, st.LiesAccepted, st.KMismatch,
				sc.TotalMasterStats().Exclusions,
				metrics.Ratio(execs, float64(st.ReadsAccepted)))
		}
	}
	t.Note("a lie passes k-slave comparison only if all k assigned slaves collude; disagreement forces a check and convicts the liars (§4)")
	return t
}

// E9Greedy validates §3.3 greedy-client policing: a client that
// double-checks everything gets throttled, fair clients stay unaffected.
func E9Greedy(seed int64, scale Scale) *metrics.Table {
	t := metrics.NewTable(
		"E9 — greedy-client containment (fair clients p=0.05, greedy p=1.0)",
		"client", "reads", "double-checks", "throttled", "throttle rate")
	rounds := scale.reads(80)
	if rounds < 40 {
		rounds = 40 // the greedy detector needs a burst to observe
	}
	cfg := DefaultScenario()
	cfg.Seed = seed
	cfg.NMasters = 1
	cfg.SlavesPerMaster = 2
	cfg.Params.DoubleCheckP = 0.05
	cfg.Params.GreedyWindow = time.Minute
	cfg.Params.GreedyMinBurst = 10
	cfg.Params.GreedyFactor = 4
	sc := NewScenario(cfg)
	greedy := sc.AddClient(func(cc *core.ClientConfig) {
		cc.ForceDoubleCheck = true
		cc.PreferredMaster = 0
	})
	fair := make([]*core.Client, 3)
	for i := range fair {
		fair[i] = sc.AddClient(func(cc *core.ClientConfig) { cc.PreferredMaster = 0 })
	}
	sc.S.Go(func() {
		sc.S.Sleep(sc.Warmup())
		greedy.Setup()
		for _, f := range fair {
			f.Setup()
		}
		gen := workload.NewGen(rand.New(rand.NewSource(seed)), workload.StaticOnly(), cfg.CatalogSize, cfg.DocCount)
		for r := 0; r < rounds; r++ {
			greedy.Read(gen.Next())
			for _, f := range fair {
				f.Read(gen.Next())
			}
			if sc.S.Sleep(200*time.Millisecond) != nil {
				return
			}
		}
		sc.S.Sleep(2 * time.Second)
		sc.S.Stop()
	})
	sc.Run(12 * time.Hour)
	add := func(name string, c *core.Client) {
		st := c.Stats()
		t.Add(name, st.ReadsAccepted, st.DoubleChecks, st.DoubleThrottled,
			metrics.Pct(metrics.Ratio(float64(st.DoubleThrottled), float64(st.DoubleChecks))))
	}
	add("greedy (checks 100%)", greedy)
	for i, f := range fair {
		add(fmt.Sprintf("fair-%d", i), f)
	}
	t.Note("the master ignores a large fraction of a suspected greedy client's double-checks (§3.3)")
	return t
}

// E10MasterCrash measures §3's recovery story: survivors divide the dead
// master's slave set; its clients redo setup.
func E10MasterCrash(seed int64, scale Scale) *metrics.Table {
	t := metrics.NewTable(
		"E10 — master crash recovery (3 masters x 2 slaves)",
		"metric", "value")
	cfg := DefaultScenario()
	cfg.Seed = seed
	cfg.NMasters = 3
	cfg.SlavesPerMaster = 2
	sc := NewScenario(cfg)
	cl := sc.AddClient(func(cc *core.ClientConfig) { cc.PreferredMaster = 2 })
	var crashAt, adoptedAt, recoveredAt time.Time
	sc.S.Go(func() {
		sc.S.Sleep(sc.Warmup())
		if err := cl.Setup(); err != nil {
			return
		}
		// Let slave lists propagate.
		sc.S.Sleep(3 * 4 * cfg.Params.KeepAliveEvery)
		crashAt = sc.S.Now()
		sc.Net.SetDown("master-2", true)
		sc.Masters[2].Stop()
		// Poll for adoption.
		for adoptedAt.IsZero() {
			if sc.S.Sleep(100*time.Millisecond) != nil {
				return
			}
			if sc.Masters[0].Stats().SlavesAdopted+sc.Masters[1].Stats().SlavesAdopted >= uint64(cfg.SlavesPerMaster) {
				adoptedAt = sc.S.Now()
			}
		}
		// First successful client operation after the crash.
		gen := workload.NewGen(rand.New(rand.NewSource(seed)), workload.DefaultMix(), cfg.CatalogSize, cfg.DocCount)
		for recoveredAt.IsZero() {
			if _, err := cl.Write(gen.NextWrite(0)); err == nil {
				recoveredAt = sc.S.Now()
			}
		}
		sc.S.Sleep(5 * cfg.Params.KeepAliveEvery)
		sc.S.Stop()
	})
	sc.Run(12 * time.Hour)
	t.Add("slave-set adoption latency", adoptedAt.Sub(crashAt))
	t.Add("client recovery latency (re-setup + first write)", recoveredAt.Sub(crashAt))
	t.Add("slaves adopted", sc.Masters[0].Stats().SlavesAdopted+sc.Masters[1].Stats().SlavesAdopted)
	t.Add("client re-setups", cl.Stats().Resetups)
	orphansFresh := true
	for i := 2 * cfg.SlavesPerMaster; i < 3*cfg.SlavesPerMaster; i++ {
		if sc.Slaves[i].Stats().KeepAlives == 0 {
			orphansFresh = false
		}
	}
	t.Add("orphaned slaves receiving keep-alives", orphansFresh)
	return t
}

// E11Sensitive validates the §4 security-level variant: sensitive reads
// run on trusted hosts and are always correct, at trusted-CPU cost.
func E11Sensitive(seed int64, scale Scale) *metrics.Table {
	t := metrics.NewTable(
		"E11 — per-level correctness with an always-lying slave",
		"level", "check prob", "reads", "wrong accepted", "master execs")
	nReads := scale.reads(100)
	levels := []struct {
		name string
		p    float64
	}{
		{"normal", 0}, {"elevated", 0.2}, {"sensitive", 1.0},
	}
	for _, lv := range levels {
		cfg := DefaultScenario()
		cfg.Seed = seed
		cfg.NMasters = 1
		cfg.SlavesPerMaster = 2
		cfg.Params.DoubleCheckP = 0
		cfg.Params.AuditSampleP = 0 // isolate the level mechanism
		cfg.Params.GreedyMinBurst = 1 << 30
		// The client's first-assigned slave lies; its sibling is honest,
		// so an exclusion (elevated level) repairs the client.
		cfg.SlaveBehaviors = map[int]core.Behavior{0: core.AlwaysLie{}}
		sc := NewScenario(cfg)
		cl := sc.AddClient(func(cc *core.ClientConfig) { cc.PreferredMaster = 0 })
		wrong := 0
		sc.S.Go(func() {
			sc.S.Sleep(sc.Warmup())
			if err := cl.Setup(); err != nil {
				return
			}
			gen := workload.NewGen(rand.New(rand.NewSource(seed)), workload.StaticOnly(), cfg.CatalogSize, cfg.DocCount)
			reference := sc.Initial
			for i := 0; i < nReads; i++ {
				q := gen.Next()
				payload, err := cl.ReadAtLevel(q, lv.p)
				if err != nil {
					continue
				}
				want, _ := q.Execute(reference)
				if string(payload) != string(want.Payload) {
					wrong++
				}
			}
			sc.S.Stop()
		})
		sc.Run(2 * time.Hour)
		ms := sc.TotalMasterStats()
		t.Add(lv.name, lv.p, cl.Stats().ReadsAccepted, wrong,
			ms.DoubleChecks+ms.SensitiveReads)
	}
	t.Note("sensitive reads (p=1) execute only on trusted hosts: zero wrong answers at full master cost (§4)")
	return t
}

// E12StateSign sweeps the query mix over the state-signing baseline:
// every dynamic query lands on the trusted host (§5), which is exactly
// the restriction the paper's design removes.
func E12StateSign(seed int64, scale Scale) *metrics.Table {
	t := metrics.NewTable(
		"E12 — state-signing baseline vs query mix",
		"static fraction of mix", "reads", "served untrusted", "forced to trusted host", "proof bytes/static read")
	nReads := scale.reads(400)
	for _, staticFrac := range []float64{1.0, 0.9, 0.7, 0.5, 0.1} {
		s := sim.New(seed)
		net := rpc.NewSimNet(s, sim.Const(5*time.Millisecond))
		owner := cryptoutil.DeriveKeyPair("owner", 0)
		content := workload.BuildContent(300, 30)
		tree := baseline.BuildTree(content)
		root := baseline.SignRoot(owner, content.Version(), tree.Root())
		storage := baseline.NewSSStorage(baseline.SSStorageConfig{
			Addr: "storage", Costs: core.DefaultParams().Costs,
		}, content, root)
		trusted := baseline.NewSSTrusted(baseline.SSStorageConfig{
			Addr: "trusted", Costs: core.DefaultParams().Costs,
		}, content)
		net.Register("storage", storage.Handle)
		net.Register("trusted", trusted.Handle)
		client := &baseline.SSClient{
			StorageAddr: "storage", TrustedAddr: "trusted",
			OwnerPub: owner.Public, Costs: core.DefaultParams().Costs,
			Dialer: net.Dialer("client"),
		}
		mix := workload.Mix{
			Get:   staticFrac,
			Count: (1 - staticFrac) / 3,
			Sum:   (1 - staticFrac) / 3,
			Grep:  (1 - staticFrac) / 3,
		}
		s.Go(func() {
			gen := workload.NewGen(rand.New(rand.NewSource(seed)), mix, 300, 30)
			for i := 0; i < nReads; i++ {
				client.Read(gen.Next())
			}
		})
		s.Run()
		st := client.Stats()
		t.Add(metrics.Pct(staticFrac), nReads, st.StaticReads, st.DynamicReads,
			metrics.Ratio(float64(storage.ProofBytes()), float64(st.StaticReads)))
	}
	t.Note("the paper's scheme serves the dynamic share on untrusted slaves; state signing cannot (§5)")
	return t
}
