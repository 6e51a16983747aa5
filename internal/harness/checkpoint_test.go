package harness

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/wire"
)

// TestE16ShapeCheckpointing asserts the PR's acceptance criteria on the
// E16 experiment itself: with checkpointing off the retained OpRecord
// count tracks total writes, with checkpointing on it stays within the
// configured window, and the slave that was offline across checkpoint
// boundaries recovers via the snapshot-first fallback to a state digest
// equal to the master's.
func TestE16ShapeCheckpointing(t *testing.T) {
	tabs := runExperiment(t, "E16")
	tb := tabs[0]
	if len(tb.rows) != 2 {
		t.Fatalf("E16 should have off/on rows, got %d", len(tb.rows))
	}

	offCommitted := cellFloat(t, tb.cell(0, 1))
	offRetained := cellFloat(t, tb.cell(0, 2))
	onCommitted := cellFloat(t, tb.cell(1, 1))
	onRetained := cellFloat(t, tb.cell(1, 2))

	// Off: every committed write stays resident in the log.
	if offRetained < offCommitted {
		t.Fatalf("checkpointing off must retain all %v writes, retained %v", offCommitted, offRetained)
	}
	// On: resident records bounded by the configured window (E16 sets
	// CheckpointMinRetain=128; allow slack for writes that landed after
	// the final checkpoint), NOT proportional to total writes.
	const window = 128 + 64
	if onRetained > window {
		t.Fatalf("checkpointing on retained %v records, want <= %v (of %v writes)",
			onRetained, window, onCommitted)
	}
	if onCommitted < 4*window {
		t.Fatalf("E16 write volume too small (%v) to demonstrate bounded retention", onCommitted)
	}
	// The archive must shrink correspondingly.
	offArchive := cellFloat(t, tb.cell(0, 4))
	onArchive := cellFloat(t, tb.cell(1, 4))
	if onArchive >= offArchive/2 {
		t.Fatalf("broadcast archive not truncated: off=%v on=%v", offArchive, onArchive)
	}
	if ckpts := cellFloat(t, tb.cell(1, 7)); ckpts < 1 {
		t.Fatalf("no checkpoints applied: %v", ckpts)
	}

	// Stale-slave recovery: record replay when history is intact,
	// snapshot-first when it was truncated; exact digest both ways.
	if got := tb.cell(0, 8); got != "records" {
		t.Fatalf("checkpointing off: stale slave synced via %q, want records", got)
	}
	if got := tb.cell(1, 8); got != "snapshot" {
		t.Fatalf("checkpointing on: stale slave synced via %q, want snapshot", got)
	}
	for row := 0; row < 2; row++ {
		if got := tb.cell(row, 10); got != "yes" {
			t.Fatalf("row %d: stale slave digest did not converge to the master's", row)
		}
	}
}

// TestSyncEdgesAtBaseVersion exercises the exact truncation boundary: a
// sync request from baseVersion (one below the retained log) must get
// the snapshot-first reply, and a request from baseVersion+1 (the oldest
// retained record) must get a plain record replay starting there.
func TestSyncEdgesAtBaseVersion(t *testing.T) {
	cfg := DefaultScenario()
	cfg.Seed = 23
	cfg.NMasters = 1
	cfg.SlavesPerMaster = 2
	cfg.CatalogSize = 40
	cfg.DocCount = 4
	cfg.Params.MaxLatency = 4 * time.Millisecond
	cfg.Params.KeepAliveEvery = 50 * time.Millisecond
	cfg.BatchSize = 8
	cfg.BatchTimeout = 2 * time.Millisecond
	cfg.CheckpointEvery = 200 * time.Millisecond
	cfg.CheckpointMinRetain = 16
	sc := NewScenario(cfg)
	cl := sc.AddClient(nil)

	type probeResult struct {
		base, cur       uint64
		atBaseMode      byte
		atBaseSnapVer   uint64
		afterBaseMode   byte
		afterBaseCount  uint64
		afterBaseFirstV uint64
	}
	var pr probeResult
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
				sc.S.Stop()
				return
			}
		}
		// Quiesce: acks land, a final checkpoint truncates to the window.
		sc.S.Sleep(time.Second)

		m := sc.Masters[0]
		pr.base = m.BaseVersion()
		pr.cur = m.Version()
		dlr := sc.Net.Dialer("probe")

		probe := func(from uint64) *wire.Reader {
			w := wire.NewWriter(16)
			w.Uvarint(from)
			body, err := dlr.Call(m.Addr(), core.MethodSync, w.Bytes())
			if err != nil {
				t.Errorf("sync from %d: %v", from, err)
				return nil
			}
			return wire.NewReader(body)
		}

		// Exactly baseVersion: the wanted record was truncated.
		if r := probe(pr.base); r != nil {
			pr.atBaseMode = r.Byte()
			snap := r.Bytes()
			if st, err := store.DecodeSnapshot(snap); err == nil {
				pr.atBaseSnapVer = st.Version()
			}
		}
		// baseVersion+1: the oldest retained record, plain replay.
		if r := probe(pr.base + 1); r != nil {
			pr.afterBaseMode = r.Byte()
			pr.afterBaseCount = r.Uvarint()
			if rec, err := core.DecodeOpRecord(r); err == nil {
				pr.afterBaseFirstV = rec.Version
			} else {
				t.Errorf("decode first record: %v", err)
			}
		}
		sc.S.Stop()
	})
	sc.Run(time.Hour)
	if t.Failed() {
		return
	}

	if pr.base == 0 || pr.base >= pr.cur {
		t.Fatalf("checkpoint never truncated: base=%d cur=%d", pr.base, pr.cur)
	}
	if got, want := pr.cur-pr.base, uint64(cfg.CheckpointMinRetain); got != want {
		t.Fatalf("retained window %d, want %d (base=%d cur=%d)", got, want, pr.base, pr.cur)
	}
	if pr.atBaseMode != 1 {
		t.Fatalf("sync from baseVersion: mode %d, want 1 (snapshot-first)", pr.atBaseMode)
	}
	if pr.atBaseSnapVer < pr.base || pr.atBaseSnapVer > pr.cur {
		t.Fatalf("snapshot version %d outside [%d,%d]", pr.atBaseSnapVer, pr.base, pr.cur)
	}
	if pr.afterBaseMode != 0 {
		t.Fatalf("sync from baseVersion+1: mode %d, want 0 (records)", pr.afterBaseMode)
	}
	if pr.afterBaseCount != pr.cur-pr.base {
		t.Fatalf("record count %d, want %d", pr.afterBaseCount, pr.cur-pr.base)
	}
	if pr.afterBaseFirstV != pr.base+1 {
		t.Fatalf("first replayed version %d, want %d", pr.afterBaseFirstV, pr.base+1)
	}
}

// TestOfflineAcrossCheckpointBootstraps is the end-to-end acceptance
// case: a slave goes offline, enough writes commit that checkpoints
// truncate the history it missed, and on revival it converges to the
// master's exact digest through snapshot + OpRecord-suffix sync.
func TestOfflineAcrossCheckpointBootstraps(t *testing.T) {
	cfg := DefaultScenario()
	cfg.Seed = 29
	cfg.NMasters = 1
	cfg.SlavesPerMaster = 3
	cfg.CatalogSize = 40
	cfg.DocCount = 4
	cfg.Params.MaxLatency = 4 * time.Millisecond
	cfg.Params.KeepAliveEvery = 50 * time.Millisecond
	cfg.BatchSize = 8
	cfg.BatchTimeout = 2 * time.Millisecond
	cfg.CheckpointEvery = 200 * time.Millisecond
	cfg.CheckpointMinRetain = 16
	sc := NewScenario(cfg)
	cl := sc.AddClient(nil)

	stale := sc.Slaves[2]
	var converged bool
	sc.S.Go(func() {
		sc.S.Sleep(sc.Warmup())
		if err := cl.Setup(); err != nil {
			t.Errorf("setup: %v", err)
			sc.S.Stop()
			return
		}
		sc.Net.SetDown(stale.Addr(), true)
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
		sc.S.Sleep(time.Second) // checkpoints truncate the missed history
		sc.Net.SetDown(stale.Addr(), false)
		deadline := sc.S.Now().Add(30 * time.Second)
		for stale.Version() < sc.Masters[0].Version() && sc.S.Now().Before(deadline) {
			sc.S.Sleep(20 * time.Millisecond)
		}
		converged = stale.Version() == sc.Masters[0].Version()
		sc.S.Stop()
	})
	sc.Run(time.Hour)
	if t.Failed() {
		return
	}

	if !converged {
		t.Fatalf("stale slave stuck at %d, master at %d", stale.Version(), sc.Masters[0].Version())
	}
	if got, want := stale.StateDigest(), sc.Masters[0].StateDigest(); !got.Equal(want) {
		t.Fatal("stale slave digest diverged after snapshot-first sync")
	}
	st := stale.Stats()
	if st.SnapshotSyncs == 0 {
		t.Fatalf("stale slave recovered without the snapshot fallback: %+v", st)
	}
	ms := sc.Masters[0].Stats()
	if ms.SnapshotSyncs == 0 || ms.CheckpointsApplied == 0 || ms.OpsTruncated == 0 {
		t.Fatalf("master checkpoint machinery idle: %+v", ms)
	}
}
