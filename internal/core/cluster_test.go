package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/pki"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/store"
)

// testCluster wires a full simulated deployment: masters (with the
// auditor as the last broadcast peer), slaves, a directory, and clients.
type testCluster struct {
	s        *sim.Sim
	net      *rpc.SimNet
	owner    *cryptoutil.KeyPair
	dir      *pki.Directory
	bound    BoundDirectory
	params   Params
	masters  []*Master
	slaves   []*Slave
	auditor  *Auditor
	clients  []*Client
	acl      *ACL
	initial  *store.Store
	nSlavesP int // slaves per master
	// masterCfgs remembers each master's construction so tests can
	// restart one over its durable state.
	masterCfgs []MasterConfig
}

type clusterOpts struct {
	nMasters       int
	slavesPerM     int
	params         Params
	slaveBehaviors map[int]Behavior // index into global slave list
	latency        sim.Latency
	batchSize      int
	batchTimeout   time.Duration
	batchAdaptive  bool
	// dataDir gives every master a durable WAL+snapshot under
	// dataDir/master-N ("" = in-memory only).
	dataDir         string
	checkpointEvery time.Duration
}

func defaultOpts() clusterOpts {
	p := DefaultParams()
	return clusterOpts{
		nMasters:   2,
		slavesPerM: 2,
		params:     p,
		latency:    sim.Const(5 * time.Millisecond),
	}
}

func newTestCluster(t *testing.T, s *sim.Sim, o clusterOpts) *testCluster {
	t.Helper()
	c := &testCluster{
		s:        s,
		net:      rpc.NewSimNet(s, o.latency),
		owner:    cryptoutil.DeriveKeyPair("owner", 0),
		dir:      pki.NewDirectory(),
		params:   o.params,
		nSlavesP: o.slavesPerM,
	}
	c.bound = BoundDirectory{Dir: c.dir, ContentKey: c.owner.Public}

	// Initial content.
	c.initial = store.New()
	c.initial.Apply(store.Put{Key: "catalog/001", Value: []byte("100")})
	c.initial.Apply(store.Put{Key: "catalog/002", Value: []byte("250")})
	c.initial.Apply(store.Put{Key: "docs/readme", Value: []byte("hello world\nsecond line")})
	// Writes through the protocol start from this version.

	masterAddrs := make([]string, o.nMasters)
	masterKeys := make([]*cryptoutil.KeyPair, o.nMasters)
	var masterPubs []cryptoutil.PublicKey
	for i := 0; i < o.nMasters; i++ {
		masterAddrs[i] = fmt.Sprintf("master-%d", i)
		masterKeys[i] = cryptoutil.DeriveKeyPair("master", i)
		masterPubs = append(masterPubs, masterKeys[i].Public)
	}
	auditorAddr := "auditor"
	auditorKeys := cryptoutil.DeriveKeyPair("auditor", 0)
	peers := append(append([]string(nil), masterAddrs...), auditorAddr)

	// Client write permission.
	c.acl = NewACL()

	for i := 0; i < o.nMasters; i++ {
		cert := pki.Certificate{
			Role: pki.RoleMaster, Addr: masterAddrs[i], Subject: masterKeys[i].Public,
			IssuedAt: s.Now(), Serial: uint64(i),
		}
		cert.Sign(c.owner)
		c.dir.Publish(c.owner.Public, cert)

		mcfg := MasterConfig{
			Addr:            masterAddrs[i],
			Keys:            masterKeys[i],
			Params:          o.params,
			ContentKey:      c.owner.Public,
			Peers:           peers,
			AuditorAddr:     auditorAddr,
			AuditorPub:      auditorKeys.Public,
			ACL:             c.acl,
			Directory:       c.bound,
			CPU:             s.NewResource(masterAddrs[i]+"/cpu", 1),
			Seed:            int64(1000 + i),
			BatchSize:       o.batchSize,
			BatchTimeout:    o.batchTimeout,
			BatchAdaptive:   o.batchAdaptive,
			CheckpointEvery: o.checkpointEvery,
		}
		if o.dataDir != "" {
			mcfg.DataDir = filepath.Join(o.dataDir, masterAddrs[i])
		}
		m, err := NewMaster(mcfg, s, c.net.Dialer(masterAddrs[i]), c.initial)
		if err != nil {
			t.Fatal(err)
		}
		c.masterCfgs = append(c.masterCfgs, mcfg)
		c.masters = append(c.masters, m)
		c.net.Register(masterAddrs[i], m.Handle)
	}

	slaveIdx := 0
	for i := 0; i < o.nMasters; i++ {
		for j := 0; j < o.slavesPerM; j++ {
			addr := fmt.Sprintf("slave-%d", slaveIdx)
			keys := cryptoutil.DeriveKeyPair("slave", slaveIdx)
			behavior := Behavior(Honest{})
			if b, ok := o.slaveBehaviors[slaveIdx]; ok {
				behavior = b
			}
			sl := NewSlave(SlaveConfig{
				Addr:       addr,
				Keys:       keys,
				Params:     o.params,
				MasterAddr: masterAddrs[i],
				MasterPubs: masterPubs,
				Behavior:   behavior,
				CPU:        s.NewResource(addr+"/cpu", 1),
				Seed:       int64(2000 + slaveIdx),
			}, s, c.net.Dialer(addr), c.initial)
			c.slaves = append(c.slaves, sl)
			c.net.Register(addr, sl.Handle)
			c.masters[i].AddSlave(addr, keys.Public)
			slaveIdx++
		}
	}

	aud, err := NewAuditor(AuditorConfig{
		Addr:        auditorAddr,
		Keys:        auditorKeys,
		Params:      o.params,
		Peers:       peers,
		MasterAddrs: masterAddrs,
		MasterPubs:  masterPubs,
		CPU:         s.NewResource("auditor/cpu", 1),
		Seed:        3000,
	}, s, c.net.Dialer(auditorAddr), c.initial)
	if err != nil {
		t.Fatal(err)
	}
	c.auditor = aud
	c.net.Register(auditorAddr, aud.Handle)

	for _, m := range c.masters {
		m.Start()
	}
	aud.Start()
	return c
}

// addClient creates, registers, and prepares a client (Setup is run as a
// sim task during warmup).
func (c *testCluster) addClient(t *testing.T, idx int, cfgMut func(*ClientConfig)) *Client {
	t.Helper()
	addr := fmt.Sprintf("client-%d", idx)
	keys := cryptoutil.DeriveKeyPair("client", idx)
	c.acl.Allow(keys.Public)
	cfg := ClientConfig{
		Addr:            addr,
		Keys:            keys,
		Params:          c.params,
		ContentKey:      c.owner.Public,
		Directory:       c.bound,
		AuditorAddr:     "auditor",
		PreferredMaster: idx % len(c.masters),
		Seed:            int64(4000 + idx),
	}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	cl := NewClient(cfg, c.s, c.net.Dialer(addr))
	c.net.Register(addr, cl.Handle)
	c.clients = append(c.clients, cl)
	return cl
}

// warmup is how long after Start the first keep-alives certainly arrived.
func (c *testCluster) warmup() time.Duration {
	return 2*c.params.KeepAliveEvery + 100*time.Millisecond
}

func TestClusterReadWriteHappyPath(t *testing.T) {
	s := sim.New(1)
	c := newTestCluster(t, s, defaultOpts())
	cl := c.addClient(t, 0, nil)
	var readVal []byte
	s.Go(func() {
		s.Sleep(c.warmup())
		if err := cl.Setup(); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		v, err := cl.Write(store.Put{Key: "catalog/003", Value: []byte("75")})
		if err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if v != c.initial.Version()+1 {
			t.Errorf("commit version = %d", v)
		}
		// Wait out the inconsistency window so every slave has the write.
		s.Sleep(c.params.MaxLatency + c.params.KeepAliveEvery)
		payload, err := cl.Read(mustQuery(t, "catalog/003"))
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		readVal = payload
	})
	s.RunUntil(sim.Epoch.Add(30 * time.Second))

	val, ok, err := decodeGet(readVal)
	if err != nil || !ok || string(val) != "75" {
		t.Fatalf("read value = %q ok=%v err=%v", val, ok, err)
	}
	st := cl.Stats()
	if st.ReadsAccepted != 1 || st.LiesAccepted != 0 {
		t.Fatalf("client stats: %+v", st)
	}
	if st.PledgesSent != 1 {
		t.Fatalf("pledges sent = %d", st.PledgesSent)
	}
	// All masters converge.
	for i := 1; i < len(c.masters); i++ {
		if c.masters[i].StateDigest() != c.masters[0].StateDigest() {
			t.Fatal("masters diverged")
		}
	}
	// All slaves converge to the master version.
	for _, sl := range c.slaves {
		if sl.Version() != c.masters[0].Version() {
			t.Fatalf("slave %s at version %d, master at %d", sl.Addr(), sl.Version(), c.masters[0].Version())
		}
	}
	// The auditor saw and audited the pledge.
	as := c.auditor.Stats()
	if as.PledgesReceived != 1 {
		t.Fatalf("auditor received %d pledges", as.PledgesReceived)
	}
	if as.PledgesAudited != 1 || as.Mismatches != 0 {
		t.Fatalf("auditor stats: %+v", as)
	}
}

func TestClusterLiarCaughtByDoubleCheck(t *testing.T) {
	s := sim.New(2)
	o := defaultOpts()
	o.params.DoubleCheckP = 1.0 // always double-check: immediate discovery
	o.params.GreedyMinBurst = 1 << 30
	o.slaveBehaviors = map[int]Behavior{0: AlwaysLie{}}
	c := newTestCluster(t, s, o)
	cl := c.addClient(t, 0, func(cc *ClientConfig) { cc.PreferredMaster = 0 })
	var payload []byte
	s.Go(func() {
		s.Sleep(c.warmup())
		if err := cl.Setup(); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		var err error
		payload, err = cl.Read(mustQuery(t, "catalog/001"))
		if err != nil {
			t.Errorf("read: %v", err)
		}
	})
	s.RunUntil(sim.Epoch.Add(30 * time.Second))

	val, ok, err := decodeGet(payload)
	if err != nil || !ok || string(val) != "100" {
		t.Fatalf("client ended with wrong value %q (ok=%v err=%v)", val, ok, err)
	}
	st := cl.Stats()
	if st.CaughtImmediate == 0 {
		t.Fatalf("liar not caught: %+v", st)
	}
	if st.LiesAccepted != 0 {
		t.Fatalf("client accepted a lie despite 100%% checking: %+v", st)
	}
	if !c.dir.IsExcluded(c.owner.Public, c.slaves[0].PublicKey()) {
		t.Fatal("liar not excluded in directory")
	}
	ms := c.masters[0].Stats()
	if ms.Exclusions != 1 {
		t.Fatalf("master exclusions = %d", ms.Exclusions)
	}
}

func TestClusterLiarCaughtByAudit(t *testing.T) {
	s := sim.New(3)
	o := defaultOpts()
	o.params.DoubleCheckP = 0 // never double-check: only the audit catches it
	o.slaveBehaviors = map[int]Behavior{0: AlwaysLie{}}
	c := newTestCluster(t, s, o)
	cl := c.addClient(t, 0, func(cc *ClientConfig) { cc.PreferredMaster = 0 })
	s.Go(func() {
		s.Sleep(c.warmup())
		if err := cl.Setup(); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		if _, err := cl.Read(mustQuery(t, "catalog/001")); err != nil {
			t.Errorf("read: %v", err)
		}
	})
	s.RunUntil(sim.Epoch.Add(60 * time.Second))

	st := cl.Stats()
	if st.LiesAccepted != 1 {
		t.Fatalf("expected the lie to be accepted pre-audit: %+v", st)
	}
	as := c.auditor.Stats()
	if as.Mismatches == 0 || as.ReportsSent == 0 {
		t.Fatalf("audit missed the lie: %+v", as)
	}
	if !c.dir.IsExcluded(c.owner.Public, c.slaves[0].PublicKey()) {
		t.Fatal("liar not excluded after audit (delayed discovery)")
	}
	if cl.Stats().Reassignments == 0 {
		t.Fatal("client was not notified/reassigned")
	}
}

func TestClusterWritePacing(t *testing.T) {
	s := sim.New(4)
	c := newTestCluster(t, s, defaultOpts())
	cl := c.addClient(t, 0, nil)
	var gap time.Duration
	s.Go(func() {
		s.Sleep(c.warmup())
		cl.Setup()
		if _, err := cl.Write(store.Put{Key: "a", Value: []byte("1")}); err != nil {
			t.Errorf("write1: %v", err)
			return
		}
		t1 := s.Now()
		if _, err := cl.Write(store.Put{Key: "b", Value: []byte("2")}); err != nil {
			t.Errorf("write2: %v", err)
			return
		}
		gap = s.Now().Sub(t1)
	})
	s.RunUntil(sim.Epoch.Add(30 * time.Second))
	// §3.1: two writes cannot be closer than max_latency.
	if gap < c.params.MaxLatency {
		t.Fatalf("writes committed %v apart, want >= %v", gap, c.params.MaxLatency)
	}
	ms := c.masters[0].Stats()
	if ms.WritePacingWaits == 0 {
		t.Fatalf("pacing wait not recorded: %+v", ms)
	}
}

func TestClusterSensitiveReadAlwaysCorrect(t *testing.T) {
	s := sim.New(5)
	o := defaultOpts()
	o.slaveBehaviors = map[int]Behavior{0: AlwaysLie{}, 1: AlwaysLie{}, 2: AlwaysLie{}, 3: AlwaysLie{}}
	c := newTestCluster(t, s, o)
	cl := c.addClient(t, 0, nil)
	var payload []byte
	s.Go(func() {
		s.Sleep(c.warmup())
		cl.Setup()
		var err error
		payload, err = cl.ReadSensitive(mustQuery(t, "catalog/002"))
		if err != nil {
			t.Errorf("sensitive read: %v", err)
		}
	})
	s.RunUntil(sim.Epoch.Add(20 * time.Second))
	val, ok, err := decodeGet(payload)
	if err != nil || !ok || string(val) != "250" {
		t.Fatalf("sensitive read = %q ok=%v err=%v", val, ok, err)
	}
	if cl.Stats().LiesAccepted != 0 {
		t.Fatal("sensitive read accepted a lie")
	}
}

func TestClusterKSlaveVariantCatchesLiar(t *testing.T) {
	s := sim.New(6)
	o := defaultOpts()
	o.params.DoubleCheckP = 0
	o.slavesPerM = 3
	o.slaveBehaviors = map[int]Behavior{0: AlwaysLie{}}
	c := newTestCluster(t, s, o)
	cl := c.addClient(t, 0, func(cc *ClientConfig) {
		cc.KSlaves = 2
		cc.PreferredMaster = 0
	})
	var payload []byte
	s.Go(func() {
		s.Sleep(c.warmup())
		if err := cl.Setup(); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		var err error
		payload, err = cl.Read(mustQuery(t, "catalog/001"))
		if err != nil {
			t.Errorf("read: %v", err)
		}
	})
	s.RunUntil(sim.Epoch.Add(30 * time.Second))
	val, ok, err := decodeGet(payload)
	if err != nil || !ok || string(val) != "100" {
		t.Fatalf("k-read = %q ok=%v err=%v", val, ok, err)
	}
	st := cl.Stats()
	if st.KMismatch == 0 {
		t.Fatalf("k-slave disagreement not detected: %+v", st)
	}
	if st.LiesAccepted != 0 {
		t.Fatalf("k-slave variant accepted a lie: %+v", st)
	}
	if !c.dir.IsExcluded(c.owner.Public, c.slaves[0].PublicKey()) {
		t.Fatal("liar not excluded")
	}
}

func TestClusterMasterCrashRedistribution(t *testing.T) {
	s := sim.New(7)
	o := defaultOpts()
	o.nMasters = 3
	c := newTestCluster(t, s, o)
	cl := c.addClient(t, 0, func(cc *ClientConfig) { cc.PreferredMaster = 2 })
	s.Go(func() {
		s.Sleep(c.warmup())
		cl.Setup()
		// Let slave lists propagate, then crash master-2 (the client's).
		s.Sleep(3 * c.params.KeepAliveEvery * 4)
		c.net.SetDown("master-2", true)
		c.masters[2].Stop()
		// Give failure detection and adoption time to run.
		s.Sleep(20 * c.params.KeepAliveEvery)
		// A write through the crashed master forces the client to redo
		// setup with a surviving master.
		if _, err := cl.Write(store.Put{Key: "x", Value: []byte("1")}); err != nil {
			t.Errorf("write after crash: %v", err)
		}
	})
	s.RunUntil(sim.Epoch.Add(2 * time.Minute))

	if cl.Stats().Resetups == 0 {
		t.Fatal("client did not redo setup after master crash")
	}
	adopted := c.masters[0].Stats().SlavesAdopted + c.masters[1].Stats().SlavesAdopted
	if adopted != uint64(c.nSlavesP) {
		t.Fatalf("adopted %d slaves, want %d", adopted, c.nSlavesP)
	}
	// The orphaned slaves now answer to a surviving master and are kept
	// fresh (keep-alives resumed).
	for i := 2 * c.nSlavesP; i < 3*c.nSlavesP; i++ {
		if c.slaves[i].Stats().KeepAlives == 0 {
			t.Fatalf("orphan slave %d received no keep-alives", i)
		}
	}
	// Directory no longer lists the crashed master.
	masters, err := c.dir.VerifiedMasters(c.owner.Public)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range masters {
		if m.Addr == "master-2" {
			t.Fatal("crashed master still in directory")
		}
	}
}

func TestClusterGreedyClientThrottled(t *testing.T) {
	s := sim.New(8)
	o := defaultOpts()
	o.params.DoubleCheckP = 0.05
	o.params.GreedyWindow = time.Minute
	o.params.GreedyMinBurst = 10
	o.params.GreedyFactor = 4
	c := newTestCluster(t, s, o)
	greedy := c.addClient(t, 0, func(cc *ClientConfig) {
		cc.Params.DoubleCheckP = 1 // §3.3: the greedy client checks every read
		cc.PreferredMaster = 0
	})
	fair := make([]*Client, 3)
	for i := range fair {
		fair[i] = c.addClient(t, i+1, func(cc *ClientConfig) { cc.PreferredMaster = 0 })
	}
	s.Go(func() {
		s.Sleep(c.warmup())
		greedy.Setup()
		for _, f := range fair {
			f.Setup()
		}
		for r := 0; r < 60; r++ {
			greedy.Read(mustQuery(t, "catalog/001"))
			for _, f := range fair {
				f.Read(mustQuery(t, "catalog/002"))
			}
			s.Sleep(200 * time.Millisecond)
		}
	})
	s.RunUntil(sim.Epoch.Add(5 * time.Minute))

	ms := c.masters[0].Stats()
	if ms.DoubleChecksDrop == 0 {
		t.Fatalf("greedy client never throttled: %+v", ms)
	}
	if st := greedy.Stats(); st.DoubleThrottled == 0 {
		t.Fatalf("greedy client saw no throttling: %+v", st)
	} else if st.ReadsAccepted == 0 || st.DoubleChecks < st.ReadsAccepted {
		t.Fatalf("greedy client double-checked %d times for %d accepted reads; want every read", st.DoubleChecks, st.ReadsAccepted)
	}
	// Fair clients should be essentially unaffected.
	for i, f := range fair {
		if f.Stats().DoubleThrottled > 2 {
			t.Fatalf("fair client %d throttled %d times", i, f.Stats().DoubleThrottled)
		}
	}
}

func TestClusterSurvivesLossyNetwork(t *testing.T) {
	// The full protocol under 5% message loss on every link: client
	// timeouts and retries, slave sync recovery, and the audit must all
	// still converge — no lie acceptance, no divergence.
	s := sim.New(31)
	o := defaultOpts()
	o.params.DoubleCheckP = 0.2
	o.params.GreedyMinBurst = 1 << 30
	o.params.ReadTimeout = 3 * time.Second
	c := newTestCluster(t, s, o)
	c.net.DefaultDrop = 0.05
	cl := c.addClient(t, 0, nil)
	var accepted uint64
	s.Go(func() {
		s.Sleep(c.warmup())
		for try := 0; try < 10; try++ {
			if cl.Setup() == nil {
				break
			}
			s.Sleep(time.Second)
		}
		for i := 0; i < 3; i++ {
			for try := 0; try < 5; try++ {
				if _, err := cl.Write(store.Put{Key: fmt.Sprintf("w%d", i), Value: []byte("1")}); err == nil {
					break
				}
			}
			s.Sleep(c.params.MaxLatency + c.params.KeepAliveEvery)
		}
		for i := 0; i < 30; i++ {
			if _, err := cl.Read(mustQuery(t, "catalog/001")); err == nil {
				accepted++
			}
			s.Sleep(200 * time.Millisecond)
		}
		s.Sleep(5 * time.Second)
	})
	s.RunUntil(sim.Epoch.Add(5 * time.Minute))

	if c.net.Dropped() == 0 {
		t.Fatal("loss model did not fire; test is vacuous")
	}
	if accepted < 20 {
		t.Fatalf("only %d/30 reads accepted under 5%% loss", accepted)
	}
	if cl.Stats().LiesAccepted != 0 {
		t.Fatalf("lies accepted: %+v", cl.Stats())
	}
	// Masters agree despite retries and duplicates.
	for i := 1; i < len(c.masters); i++ {
		if c.masters[i].StateDigest() != c.masters[0].StateDigest() {
			t.Fatal("masters diverged under loss")
		}
	}
	if as := c.auditor.Stats(); as.Mismatches != 0 {
		t.Fatalf("honest deployment produced audit mismatches under loss: %+v", as)
	}
}

func TestClusterDeterministic(t *testing.T) {
	run := func() [2]uint64 {
		s := sim.New(42)
		o := defaultOpts()
		o.slaveBehaviors = map[int]Behavior{1: LieWithProb{P: 0.3}}
		c := newTestCluster(t, s, o)
		cl := c.addClient(t, 0, nil)
		s.Go(func() {
			s.Sleep(c.warmup())
			cl.Setup()
			for i := 0; i < 20; i++ {
				cl.Read(mustQuery(t, "catalog/001"))
				s.Sleep(100 * time.Millisecond)
			}
		})
		s.RunUntil(sim.Epoch.Add(time.Minute))
		st := cl.Stats()
		return [2]uint64{st.ReadsAccepted, c.auditor.Stats().PledgesAudited}
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("cluster runs diverged: %v vs %v", a, b)
	}
}

// --- helpers ---------------------------------------------------------------

func mustQuery(t *testing.T, key string) query.Query {
	t.Helper()
	return query.Get{Key: key}
}

func decodeGet(payload []byte) ([]byte, bool, error) {
	return query.GetResult(payload)
}

// TestClusterVouchAheadVerifyRatio is the mixed workload's read shape in
// the simulator: a writer commits a catalog key as often as pacing allows
// (every MaxLatency), so the auditor holds the content of two or more
// versions at once, and two clients read catalog keys drawn uniformly.
// The auditor answers each read at its own version, and a client verifies
// a pledge signature only where the auditor did not vouch for it — not
// ahead of a drawn double-check — so an auditor that vouched for every
// pledge leaves no verify at all (≈ 0.05 per read when the client verified
// before each double-check, ≈ 0.96 when the auditor vouched only at a
// lagging version of its own).
func TestClusterVouchAheadVerifyRatio(t *testing.T) {
	const catalog = 1000
	s := sim.New(9)
	c := newTestCluster(t, s, defaultOpts())
	writer := c.addClient(t, 0, nil)
	readers := []*Client{c.addClient(t, 1, nil), c.addClient(t, 2, nil)}
	key := func(rng *rand.Rand) string { return fmt.Sprintf("cat/%04d", rng.Intn(catalog)) }
	end := sim.Epoch.Add(c.warmup() + 30*time.Second)
	s.Go(func() {
		s.Sleep(c.warmup())
		if err := writer.Setup(); err != nil {
			t.Errorf("writer setup: %v", err)
			return
		}
		rng := rand.New(rand.NewSource(1))
		for s.Now().Before(end) {
			if _, err := writer.Write(store.Put{Key: key(rng), Value: []byte(s.Now().String())}); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
	})
	for i, cl := range readers {
		s.Go(func() {
			s.Sleep(c.warmup())
			if err := cl.Setup(); err != nil {
				t.Errorf("reader setup: %v", err)
				return
			}
			rng := rand.New(rand.NewSource(int64(10 + i)))
			for s.Now().Before(end) {
				if _, err := cl.Read(query.Get{Key: key(rng)}); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		})
	}
	s.RunUntil(end.Add(time.Second))
	var reads, verifies, sent uint64
	for _, cl := range readers {
		st := cl.Stats()
		reads += st.ReadsAccepted
		verifies += st.PledgesVerified
		sent += st.PledgesSent
	}
	as := c.auditor.Stats()
	ratio := float64(verifies) / float64(reads)
	t.Logf("%d reads, %d verifies (%.3f per read); auditor vouched %d of %d pledges, versions held max %d",
		reads, verifies, ratio, as.PledgesVouched, as.PledgesReceived, as.VersionLagMax)
	if reads < 1000 || as.VersionLagMax == 0 || writer.Stats().WritesOK < 10 {
		t.Fatalf("workload too thin: %d reads, %d writes, auditor versions held max %d", reads, writer.Stats().WritesOK, as.VersionLagMax)
	}
	if verifies != sent-as.PledgesVouched {
		t.Errorf("%d pledge verifies, want one per pledge the auditor did not vouch for: %d", verifies, sent-as.PledgesVouched)
	}
	if float64(as.PledgesVouched) < 0.9*float64(sent) {
		t.Errorf("auditor vouched for %d of the %d pledges the readers sent, want >= 90%%", as.PledgesVouched, sent)
	}
	if as.Mismatches != 0 {
		t.Errorf("an honest cluster convicted a slave: %+v", as)
	}
}
