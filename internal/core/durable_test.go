package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/sim"
	"repro/internal/store"
)

// durableOpts is the write-heavy single/dual-master tuning shared by the
// durability tests: batches dominate, keep-alives flow fast, and every
// master keeps a WAL under dir.
func durableOpts(dir string) clusterOpts {
	o := defaultOpts()
	o.params.MaxLatency = 4 * time.Millisecond
	o.params.KeepAliveEvery = 100 * time.Millisecond
	o.batchSize = 4
	o.batchTimeout = 2 * time.Millisecond
	o.dataDir = dir
	return o
}

// writeWaves pushes n waves of `wave` puts through the client, failing
// the test on any error.
func writeWaves(t *testing.T, cl *Client, n, wave int, tag string) {
	t.Helper()
	for i := 0; i < n; i++ {
		ops := make([]store.Op, wave)
		for j := range ops {
			ops[j] = store.Put{Key: fmt.Sprintf("%s/%d-%d", tag, i, j), Value: []byte("v")}
		}
		if _, err := cl.WriteMulti(ops); err != nil {
			t.Errorf("write wave %s/%d: %v", tag, i, err)
			return
		}
	}
}

// TestDurableRestartReplaysWAL is the tentpole's core guarantee: a master
// constructed over a DataDir that already holds a WAL replays it and
// comes back at the exact pre-crash version and state digest, without
// talking to anyone.
func TestDurableRestartReplaysWAL(t *testing.T) {
	s := sim.New(51)
	o := durableOpts(t.TempDir())
	o.nMasters = 1
	c := newTestCluster(t, s, o)
	cl := c.addClient(t, 0, nil)
	s.Go(func() {
		s.Sleep(c.warmup())
		if err := cl.Setup(); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		writeWaves(t, cl, 5, 4, "w")
	})
	s.RunUntil(sim.Epoch.Add(30 * time.Second))

	old := c.masters[0]
	wantV, wantD := old.Version(), old.StateDigest()
	if wantV <= c.initial.Version() {
		t.Fatal("no writes committed; test is vacuous")
	}
	old.Stop()

	m2, err := NewMaster(c.masterCfgs[0], s, c.net.Dialer("master-0"), c.initial)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Version() != wantV {
		t.Fatalf("restarted master at version %d, want %d", m2.Version(), wantV)
	}
	if m2.StateDigest() != wantD {
		t.Fatal("restarted master's state digest differs from the pre-stop state")
	}
	if got := m2.Stats().WALReplayed; got == 0 {
		t.Fatal("restart replayed no WAL records")
	}
}

// TestDurableWALAppendPrecedesAck hooks the point right after the WAL
// append+fsync and asserts that every committed version a client ever
// sees was logged first — the durability contract that makes the ack
// meaningful.
func TestDurableWALAppendPrecedesAck(t *testing.T) {
	s := sim.New(52)
	o := durableOpts(t.TempDir())
	o.nMasters = 1
	c := newTestCluster(t, s, o)
	var logged atomic.Uint64 // newest version known to be on disk
	c.masters[0].walHook = func(v uint64) { logged.Store(v) }
	cl := c.addClient(t, 0, nil)
	var checked int
	s.Go(func() {
		s.Sleep(c.warmup())
		if err := cl.Setup(); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		for i := 0; i < 8; i++ {
			ops := make([]store.Op, 4)
			for j := range ops {
				ops[j] = store.Put{Key: fmt.Sprintf("k%d-%d", i, j), Value: []byte("v")}
			}
			versions, err := cl.WriteMulti(ops)
			if err != nil {
				t.Errorf("write: %v", err)
				return
			}
			for _, v := range versions {
				if v == 0 {
					continue
				}
				if logged.Load() < v {
					t.Errorf("ack for version %d before WAL append (logged %d)", v, logged.Load())
				}
				checked++
			}
		}
	})
	s.RunUntil(sim.Epoch.Add(30 * time.Second))
	if checked == 0 {
		t.Fatal("no committed writes checked; test is vacuous")
	}
}

// TestKeepAliveStampsAckedVersion holds every commit in the window
// between its WAL sync and its acknowledgement for longer than a
// keep-alive interval. The store is already at the new version there,
// but no writer has been answered and no slave has been sent it: a
// keep-alive naming that version makes the slave see a stamp ahead of its
// replica and pull an m.sync it did not need. Keep-alives must name the
// acknowledged version until the batch is.
func TestKeepAliveStampsAckedVersion(t *testing.T) {
	s := sim.New(56)
	o := durableOpts(t.TempDir())
	o.nMasters = 1
	c := newTestCluster(t, s, o)
	m := c.masters[0]
	m.walHook = func(uint64) { s.Sleep(3 * o.params.KeepAliveEvery / 2) }
	cl := c.addClient(t, 0, nil)
	s.Go(func() {
		s.Sleep(c.warmup())
		if err := cl.Setup(); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		writeWaves(t, cl, 3, 4, "w")
		s.Sleep(3 * o.params.KeepAliveEvery) // let the last push and a keep-alive land
	})
	s.RunUntil(sim.Epoch.Add(30 * time.Second))

	if m.Version() <= c.initial.Version() {
		t.Fatal("no writes committed; test is vacuous")
	}
	if st := m.Stats(); st.SyncsServed != 0 || st.KeepAlivesSent == 0 {
		t.Fatalf("master served %d syncs over %d keep-alives, want 0 syncs and some keep-alives",
			st.SyncsServed, st.KeepAlivesSent)
	}
	for _, sl := range c.slaves {
		if sl.Version() != m.Version() || sl.Stats().UpdatesSynced != 0 {
			t.Fatalf("%s at version %d with %d updates synced, want version %d reached by pushes alone",
				sl.Addr(), sl.Version(), sl.Stats().UpdatesSynced, m.Version())
		}
	}
}

// TestLostPushRepairedByNextKeepAlive cuts a slave off while one wave
// commits, so its update push is lost in flight and the master's push
// call hangs until ReadTimeout. The keep-alives must not wait for that
// call: the first one after the partition heals names the acknowledged
// version, the slave sees the gap and syncs — within about one keep-alive
// interval, not one ReadTimeout.
func TestLostPushRepairedByNextKeepAlive(t *testing.T) {
	s := sim.New(57)
	o := defaultOpts() // default params: ReadTimeout is 20x KeepAliveEvery
	o.nMasters = 1
	c := newTestCluster(t, s, o)
	m, cut := c.masters[0], c.slaves[0]
	cl := c.addClient(t, 0, nil)
	var caughtUp time.Duration = -1
	s.Go(func() {
		s.Sleep(c.warmup())
		if err := cl.Setup(); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		c.net.Isolate(cut.Addr(), true)
		writeWaves(t, cl, 1, 4, "w")
		s.Sleep(200 * time.Millisecond)
		if cut.Version() == m.Version() {
			t.Errorf("isolated slave received the push; test is vacuous")
		}
		c.net.Isolate(cut.Addr(), false)
		healed := s.Now()
		for s.Now().Sub(healed) < o.params.ReadTimeout {
			if cut.Version() == m.Version() {
				caughtUp = s.Now().Sub(healed)
				return
			}
			s.Sleep(10 * time.Millisecond)
		}
	})
	s.RunUntil(sim.Epoch.Add(30 * time.Second))

	if limit := o.params.KeepAliveEvery + 100*time.Millisecond; caughtUp < 0 || caughtUp > limit {
		t.Fatalf("slave caught up %v after the partition healed, want within %v", caughtUp, limit)
	}
	if cut.Stats().UpdatesSynced == 0 {
		t.Fatal("slave caught up without a sync; the push was not lost")
	}
}

// TestDurableWALEdgeCases covers the two corruption regimes: a torn
// final record (a crash mid-append) is silently truncated and the master
// recovers everything before it, while a corrupt record in the middle of
// the log fails construction loudly instead of replaying a hole.
func TestDurableWALEdgeCases(t *testing.T) {
	s := sim.New(53)
	dir := t.TempDir()
	o := durableOpts(dir)
	o.nMasters = 1
	c := newTestCluster(t, s, o)
	cl := c.addClient(t, 0, nil)
	s.Go(func() {
		s.Sleep(c.warmup())
		if err := cl.Setup(); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		writeWaves(t, cl, 6, 4, "w")
	})
	s.RunUntil(sim.Epoch.Add(30 * time.Second))

	old := c.masters[0]
	wantV, wantD := old.Version(), old.StateDigest()
	if wantV <= c.initial.Version() {
		t.Fatal("no writes committed; test is vacuous")
	}
	old.Stop()
	walPath := filepath.Join(dir, "master-0", "wal")

	// Torn tail: a half-written frame after the last good record, as a
	// crash between write and fsync would leave. Recovery drops it.
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x01, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	m2, err := NewMaster(c.masterCfgs[0], s, c.net.Dialer("master-0"), c.initial)
	if err != nil {
		t.Fatalf("torn WAL tail must be tolerated: %v", err)
	}
	if m2.Version() != wantV || m2.StateDigest() != wantD {
		t.Fatalf("recovery under torn tail lost state: version %d want %d", m2.Version(), wantV)
	}

	// Corrupt middle: flip a payload byte of the first record while
	// later records follow. That is not a torn write — it must refuse.
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 64 {
		t.Fatalf("WAL too short (%d bytes) to host a mid-log corruption", len(data))
	}
	data[12] ^= 0xff
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMaster(c.masterCfgs[0], s, c.net.Dialer("master-0"), c.initial); err == nil {
		t.Fatal("corrupt mid-log WAL record must fail construction, not replay around it")
	}
}

// TestDurableRestartPastTruncationSnapshotSyncs kills a durable master,
// keeps the cluster writing until checkpoints truncate the broadcast
// archive above the victim's last delivered slot, and restarts it: the
// replayed WAL state is now unreachable by record fetch, so the master
// must close the gap with one snapshot-first recovery sync and still
// converge to the survivor's exact digest.
func TestDurableRestartPastTruncationSnapshotSyncs(t *testing.T) {
	s := sim.New(54)
	o := durableOpts(t.TempDir())
	o.nMasters = 2
	o.batchSize = 8
	o.checkpointEvery = 300 * time.Millisecond
	o.checkpointMinRetain = 8
	o.checkpointMaxLag = 400 * time.Millisecond
	c := newTestCluster(t, s, o)
	cl := c.addClient(t, 0, func(cc *ClientConfig) { cc.PreferredMaster = 0 })
	var m2 *Master
	s.Go(func() {
		s.Sleep(c.warmup())
		if err := cl.Setup(); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		writeWaves(t, cl, 6, 8, "pre")

		// Kill master-1; the survivor keeps committing and checkpointing
		// until the records master-1 misses are truncated everywhere.
		c.net.SetDown("master-1", true)
		c.masters[1].Stop()
		writeWaves(t, cl, 12, 8, "down")
		s.Sleep(1500 * time.Millisecond)

		var err error
		m2, err = NewMaster(c.masterCfgs[1], s, c.net.Dialer("master-1"), c.initial)
		if err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		c.net.Register("master-1", m2.Handle)
		c.net.SetDown("master-1", false)
		m2.Start()

		deadline := s.Now().Add(time.Minute)
		for m2.Version() != c.masters[0].Version() && s.Now().Before(deadline) {
			s.Sleep(20 * time.Millisecond)
		}
	})
	s.RunUntil(sim.Epoch.Add(5 * time.Minute))

	if m2 == nil {
		t.Fatal("restart never ran")
	}
	if m2.StateDigest() != c.masters[0].StateDigest() {
		t.Fatalf("restarted master diverged: version %d vs %d",
			m2.Version(), c.masters[0].Version())
	}
	st := m2.Stats()
	if st.WALReplayed == 0 {
		t.Fatal("restart replayed no WAL records")
	}
	if st.RecoverySyncs == 0 {
		t.Fatal("outage spanned truncation but the restart did no snapshot-first recovery sync")
	}
}

// TestSnapshotRefreshBoundsLag stalls stability (both slaves silenced,
// with a CheckpointMaxLag too long to unblock them) and keeps writing:
// without periodic re-snapshotting the retained ckptSnapshot goes stale
// and every snapshot-first sync ships an unbounded suffix. The refresh
// must keep the op bytes logged since the snapshot bounded by the
// snapshot's own size. The stall overwrites a fixed key set, so the
// state — and with it the refresh period — stays put.
func TestSnapshotRefreshBoundsLag(t *testing.T) {
	s := sim.New(55)
	o := durableOpts("") // in-memory: the refresh is independent of the WAL
	o.nMasters = 1
	o.batchSize = 8
	o.checkpointEvery = 150 * time.Millisecond
	o.checkpointMinRetain = 8
	o.checkpointMaxLag = time.Hour // silent slaves stall stability for good
	c := newTestCluster(t, s, o)
	cl := c.addClient(t, 0, nil)
	m := c.masters[0]
	hot := make([]store.Op, 8)
	for j := range hot {
		hot[j] = store.Put{Key: fmt.Sprintf("hot/%d", j), Value: []byte("v")}
	}
	batchBytes := 8 * uint64(len(store.EncodeOp(hot[0])))
	var maxOver uint64 // worst excess of suffix bytes over snapshot bytes
	done := false
	s.Go(func() {
		s.Sleep(c.warmup())
		if err := cl.Setup(); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		// Write until the first checkpoint installs a snapshot.
		for try := 0; try < 100 && m.Stats().CheckpointsApplied == 0; try++ {
			writeWaves(t, cl, 1, 8, fmt.Sprintf("seed%d", try))
			s.Sleep(50 * time.Millisecond)
		}
		if m.Stats().CheckpointsApplied == 0 {
			t.Error("no checkpoint ever applied; cannot exercise snapshot refresh")
			return
		}
		// Silence every slave: acks stop, stability freezes, and so do
		// checkpoints — the snapshot can only advance via the refresh.
		for _, sl := range c.slaves {
			c.net.SetDown(sl.Addr(), true)
		}
		s.Spawn(func() {
			for !done {
				if suffix, size := m.SnapshotLag(); suffix > size && suffix-size > maxOver {
					maxOver = suffix - size
				}
				s.Sleep(2 * time.Millisecond)
			}
		})
		for i := 0; i < 60; i++ {
			if _, err := cl.WriteMulti(hot); err != nil {
				t.Errorf("stall wave %d: %v", i, err)
				return
			}
		}
		done = true
	})
	s.RunUntil(sim.Epoch.Add(5 * time.Minute))

	st := m.Stats()
	if st.SnapshotRefreshes < 3 {
		t.Fatalf("snapshot refreshed %d times under a stalled checkpoint, want >= 3", st.SnapshotRefreshes)
	}
	if st.SnapshotRefreshes > st.BatchesApplied/2 {
		t.Fatalf("snapshot refreshed %d times over %d batches; the trigger must not fire per batch",
			st.SnapshotRefreshes, st.BatchesApplied)
	}
	// Bound: the refresh triggers once the suffix outgrows the snapshot;
	// allow the trigger batch itself and one that lands while the
	// replacement is being signed off-lock.
	if maxOver > 2*batchBytes {
		t.Fatalf("snapshot suffix exceeded the snapshot by %d bytes under sustained writes, want <= two batches (%d)",
			maxOver, 2*batchBytes)
	}
}

// TestBatchOfOneAndOfEightEquivalent commits one op sequence twice, through
// masters that flush every write alone and masters that batch by eight. A
// write that commits alone takes the batch path with a one-leaf tree, so
// the two runs must agree everywhere the ops land: master, slave and
// auditor replicas, and the state a restarted master replays from its WAL.
func TestBatchOfOneAndOfEightEquivalent(t *testing.T) {
	type outcome struct {
		version                          uint64
		master, slave, auditor, replayed cryptoutil.Digest
		batches                          uint64
	}
	run := func(batchSize int) outcome {
		s := sim.New(57)
		o := durableOpts(t.TempDir())
		o.nMasters = 1
		o.batchSize = batchSize
		c := newTestCluster(t, s, o)
		cl := c.addClient(t, 0, nil)
		s.Go(func() {
			s.Sleep(c.warmup())
			if err := cl.Setup(); err != nil {
				t.Errorf("setup: %v", err)
				return
			}
			writeWaves(t, cl, 5, 8, "w")
			// Past the auditor's window, so its replica has every write.
			s.Sleep(c.params.MaxLatency + c.params.AuditorSlack + time.Second)
		})
		s.RunUntil(sim.Epoch.Add(time.Minute))
		m := c.masters[0]
		out := outcome{version: m.Version(), master: m.StateDigest(), slave: c.slaves[0].StateDigest(), batches: m.Stats().BatchesApplied}
		c.auditor.mu.Lock()
		out.auditor = c.auditor.replica.StateDigest()
		c.auditor.mu.Unlock()
		m.Stop()
		m2, err := NewMaster(c.masterCfgs[0], s, c.net.Dialer("master-0"), c.initial)
		if err != nil {
			t.Fatalf("batch size %d: restart: %v", batchSize, err)
		}
		if m2.Version() != out.version || m2.Stats().WALReplayed != out.batches {
			t.Fatalf("batch size %d: restart at version %d after %d WAL records, want %d after %d",
				batchSize, m2.Version(), m2.Stats().WALReplayed, out.version, out.batches)
		}
		out.replayed = m2.StateDigest()
		return out
	}
	one, eight := run(1), run(8)
	if one.batches != 40 || eight.batches != 5 {
		t.Fatalf("commits: %d of one op, %d of eight; want 40 and 5", one.batches, eight.batches)
	}
	one.batches, eight.batches = 0, 0
	if one != eight {
		t.Fatalf("runs differ:\n one   %+v\n eight %+v", one, eight)
	}
	if one.slave != one.master || one.auditor != one.master || one.replayed != one.master {
		t.Fatalf("replicas of one run differ: %+v", one)
	}
}
