package core

import (
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
)

// TestRecoveryCycle runs the full §3.5 life cycle of a compromised slave:
// it lies, is convicted and excluded, is "recovered to a safe state"
// (behaviour reset + verified state transfer), readmitted, and then
// serves correct answers that pass audit.
func TestRecoveryCycle(t *testing.T) {
	s := sim.New(9)
	o := defaultOpts()
	o.params.DoubleCheckP = 1.0
	o.params.GreedyMinBurst = 1 << 30
	o.slaveBehaviors = map[int]Behavior{0: AlwaysLie{}}
	c := newTestCluster(t, s, o)
	cl := c.addClient(t, 0, func(cc *ClientConfig) { cc.PreferredMaster = 0 })
	liar := c.slaves[0]

	s.Go(func() {
		s.Sleep(c.warmup())
		if err := cl.Setup(); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		// Phase 1: conviction.
		if _, err := cl.Read(mustQuery(t, "catalog/001")); err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if !c.dir.IsExcluded(c.owner.Public, liar.PublicKey()) {
			t.Error("liar not excluded")
			return
		}

		// A write commits while the slave is out of the system, so its
		// replica is stale at readmission time.
		if _, err := cl.Write(store.Put{Key: "catalog/009", Value: []byte("900")}); err != nil {
			t.Errorf("write: %v", err)
			return
		}

		// Phase 2: recovery — safe state + verified state transfer.
		liar.SetBehavior(Honest{})
		if err := liar.Bootstrap(); err != nil {
			t.Errorf("bootstrap: %v", err)
			return
		}
		if liar.Version() != c.masters[0].Version() {
			t.Errorf("bootstrap left slave at %d, master at %d", liar.Version(), c.masters[0].Version())
		}

		// Phase 3: readmission.
		if err := c.masters[0].ReadmitSlave(liar.Addr(), liar.PublicKey()); err != nil {
			t.Errorf("readmit: %v", err)
			return
		}
		s.Sleep(2 * c.params.KeepAliveEvery)
		if c.dir.IsExcluded(c.owner.Public, liar.PublicKey()) {
			t.Error("exclusion not cleared after readmission")
		}

		// Phase 4: the recovered slave serves correctly. Ask the master
		// to assign it again by excluding the others.
		var others []string
		for _, sl := range c.slaves[1:] {
			others = append(others, sl.Addr())
		}
		if err := cl.requestSlaves(cl.groups[0], others); err != nil {
			t.Errorf("requestSlaves: %v", err)
			return
		}
		if cl.SlaveAddr() != liar.Addr() {
			t.Errorf("client assigned %s, want the readmitted %s", cl.SlaveAddr(), liar.Addr())
			return
		}
		payload, err := cl.Read(mustQuery(t, "catalog/009"))
		if err != nil {
			t.Errorf("read after recovery: %v", err)
			return
		}
		v, ok, _ := query.GetResult(payload)
		if !ok || string(v) != "900" {
			t.Errorf("recovered slave served %q", v)
		}
		s.Sleep(2 * time.Second)
	})
	s.RunUntil(sim.Epoch.Add(time.Minute))

	st := cl.Stats()
	if st.LiesAccepted != 0 {
		t.Fatalf("client accepted lies: %+v", st)
	}
	// The recovered slave's post-recovery pledges pass audit.
	if c.auditor.Stats().Mismatches > 1 { // exactly the one pre-recovery lie at most
		t.Fatalf("auditor stats: %+v", c.auditor.Stats())
	}
	if liar.Stats().ReadsLied == 0 {
		t.Fatal("test did not exercise the lying phase")
	}
}

// TestBootstrapRejectsTamperedSnapshot covers the state-transfer
// authentication: a snapshot whose bytes do not match the master's stamp
// must be refused.
func TestBootstrapRejectsTamperedSnapshot(t *testing.T) {
	s := sim.New(1)
	o := defaultOpts()
	c := newTestCluster(t, s, o)
	sl := c.slaves[0]

	// A man-in-the-middle that flips a byte of the snapshot.
	realMaster := "master-0"
	c.net.Register("mitm", func(from, method string, body []byte) ([]byte, error) {
		resp, err := c.masters[0].Handle(from, method, body)
		if err != nil || method != MethodSync || len(resp) == 0 {
			return resp, err
		}
		out := append([]byte(nil), resp...)
		out[5] ^= 0xff
		return out, nil
	})
	var err error
	s.Go(func() {
		s.Sleep(c.warmup())
		sl.setSource("mitm")
		err = sl.Bootstrap()
		sl.setSource(realMaster)
	})
	s.RunUntil(sim.Epoch.Add(10 * time.Second))
	if err == nil {
		t.Fatal("tampered snapshot accepted")
	}
}

// TestBootstrapFreshSlave covers provisioning a brand-new slave from an
// empty replica.
func TestBootstrapFreshSlave(t *testing.T) {
	s := sim.New(2)
	o := defaultOpts()
	c := newTestCluster(t, s, o)

	// A new slave starting from empty content.
	fresh := NewSlave(SlaveConfig{
		Addr:       "slave-new",
		Keys:       c.slaves[0].cfg.Keys,
		Params:     c.params,
		MasterAddr: "master-0",
		MasterPubs: c.slaves[0].cfg.MasterPubs,
		Behavior:   Honest{},
		Seed:       77,
	}, s, c.net.Dialer("slave-new"), store.New())
	c.net.Register("slave-new", fresh.Handle)

	s.Go(func() {
		s.Sleep(c.warmup())
		if err := fresh.Bootstrap(); err != nil {
			t.Errorf("bootstrap: %v", err)
			return
		}
		if fresh.Version() != c.masters[0].Version() {
			t.Errorf("fresh slave at %d, master at %d", fresh.Version(), c.masters[0].Version())
		}
	})
	s.RunUntil(sim.Epoch.Add(10 * time.Second))
}
