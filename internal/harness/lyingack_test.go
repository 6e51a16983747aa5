package harness

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// TestLyingAcksDuringTruncation is the regression for checkpoint gating
// against forged acknowledgements: a slave that stops applying updates
// but acks versions far ahead of anything it holds must not stall
// stability (the honest fleet still truncates) and must not survive on
// record replay — once honest again, the only way back is the
// snapshot-first sync, exactly because the history it skipped was
// legitimately truncated out from under it.
func TestLyingAcksDuringTruncation(t *testing.T) {
	cfg := DefaultScenario()
	cfg.Seed = 31
	cfg.NMasters = 1
	cfg.SlavesPerMaster = 3
	cfg.CatalogSize = 40
	cfg.DocCount = 4
	cfg.Params.MaxLatency = 4 * time.Millisecond
	cfg.Params.KeepAliveEvery = 50 * time.Millisecond
	cfg.BatchSize = 8
	cfg.BatchTimeout = 2 * time.Millisecond
	cfg.CheckpointEvery = 200 * time.Millisecond
	cfg.SlaveBehaviors = map[int]core.Behavior{2: core.LieAcks{Ahead: 1 << 20}}
	sc := NewScenario(cfg)
	cl := sc.AddClient(nil)

	liar := sc.Slaves[2]
	initial := sc.Initial.Version()
	var liarDuring, baseDuring, curDuring uint64
	var converged bool
	sc.S.Go(func() {
		sc.S.Sleep(sc.Warmup())
		if err := cl.Setup(); err != nil {
			t.Errorf("setup: %v", err)
			sc.S.Stop()
			return
		}
		for i := 0; i < 30; i++ {
			ops := make([]store.Op, 8)
			for j := range ops {
				ops[j] = store.Put{Key: string(rune('a' + j)), Value: []byte{byte(i)}}
			}
			if _, err := cl.WriteMulti(ops); err != nil {
				t.Errorf("wave %d: %v", i, err)
				sc.S.Stop()
				return
			}
		}
		sc.S.Sleep(time.Second) // acks land, checkpoints truncate
		liarDuring = liar.Version()
		baseDuring = sc.Masters[0].BaseVersion()
		curDuring = sc.Masters[0].Version()

		// Heal: the liar turns honest and must catch up from nothing.
		liar.SetBehavior(core.Honest{})
		deadline := sc.S.Now().Add(30 * time.Second)
		for liar.Version() < sc.Masters[0].Version() && sc.S.Now().Before(deadline) {
			sc.S.Sleep(20 * time.Millisecond)
		}
		converged = liar.Version() == sc.Masters[0].Version()
		sc.S.Stop()
	})
	sc.Run(time.Hour)
	if t.Failed() {
		return
	}

	// While lying, the slave applied nothing.
	if liarDuring != initial {
		t.Fatalf("lying slave advanced to %d, want untouched initial %d", liarDuring, initial)
	}
	// The forged acks neither stalled truncation (the honest pair keeps
	// stability moving) nor dragged the cut beyond anything the master
	// actually committed (the recordAck clamp: an ack is evidence of
	// application at most up to the committed history, never past it).
	if baseDuring <= initial || baseDuring > curDuring {
		t.Fatalf("truncation stalled or overran by forged acks: base=%d initial=%d cur=%d",
			baseDuring, initial, curDuring)
	}
	// The liar skipped truncated history, so honesty alone cannot save
	// it via record replay: recovery must be snapshot-first and exact.
	if !converged {
		t.Fatalf("healed liar stuck at %d, master at %d", liar.Version(), sc.Masters[0].Version())
	}
	if !liar.StateDigest().Equal(sc.Masters[0].StateDigest()) {
		t.Fatal("healed liar digest diverged")
	}
	if liar.Stats().SnapshotSyncs == 0 {
		t.Fatalf("healed liar recovered without snapshot-first sync: %+v", liar.Stats())
	}
	// Honest slaves were never held back.
	for i := 0; i < 2; i++ {
		if !sc.Slaves[i].StateDigest().Equal(sc.Masters[0].StateDigest()) {
			t.Fatalf("honest slave %d diverged", i)
		}
	}
}

// TestForgedAckClampedToCommitted pins the clamp in the degenerate
// deployment where every slave lies: with a single LieAcks slave, the
// master's stability minimum is built entirely from forged input, and
// the base it truncates to must still never exceed its own committed
// version.
func TestForgedAckClampedToCommitted(t *testing.T) {
	cfg := DefaultScenario()
	cfg.Seed = 37
	cfg.NMasters = 1
	cfg.SlavesPerMaster = 1
	cfg.CatalogSize = 40
	cfg.DocCount = 4
	cfg.Params.MaxLatency = 4 * time.Millisecond
	cfg.Params.KeepAliveEvery = 50 * time.Millisecond
	cfg.BatchSize = 8
	cfg.BatchTimeout = 2 * time.Millisecond
	cfg.CheckpointEvery = 200 * time.Millisecond
	cfg.SlaveBehaviors = map[int]core.Behavior{0: core.LieAcks{Ahead: 1 << 30}}
	sc := NewScenario(cfg)
	cl := sc.AddClient(nil)

	sc.S.Go(func() {
		sc.S.Sleep(sc.Warmup())
		if err := cl.Setup(); err != nil {
			t.Errorf("setup: %v", err)
			sc.S.Stop()
			return
		}
		for i := 0; i < 20; i++ {
			ops := make([]store.Op, 8)
			for j := range ops {
				ops[j] = store.Put{Key: "k", Value: []byte{byte(i), byte(j)}}
			}
			if _, err := cl.WriteMulti(ops); err != nil {
				t.Errorf("wave %d: %v", i, err)
				break
			}
		}
		sc.S.Sleep(time.Second)
		sc.S.Stop()
	})
	sc.Run(time.Hour)
	if t.Failed() {
		return
	}

	m := sc.Masters[0]
	if m.Stats().CheckpointsApplied == 0 {
		t.Fatal("the master never truncated")
	}
	if base := m.BaseVersion(); base > m.Version() {
		t.Fatalf("log base %d beyond committed version %d", base, m.Version())
	}
}
