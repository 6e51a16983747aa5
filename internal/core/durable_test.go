package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/pki"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
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
// talking to anyone. With checkpointing on, the last checkpoint after the
// writes leaves the whole state in the snapshot file — an m.sync reply
// that decodeStateTransfer accepts under the master's own key — and an
// empty WAL: the restarted master resumes at the file's anchor. A
// snapshot file with one byte flipped stops the master from starting.
func TestDurableRestartReplaysWAL(t *testing.T) {
	for _, tc := range []struct {
		name             string
		checkpoint, flip bool
	}{
		{"wal only", false, false},
		{"checkpoint persisted", true, false},
		{"snapshot file byte flipped", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(51)
			dir := t.TempDir()
			o := durableOpts(dir)
			o.nMasters = 1
			if tc.checkpoint {
				o.checkpointEvery = 150 * time.Millisecond
			}
			c := newTestCluster(t, s, o)
			cl := c.addClient(t, 0, nil)
			s.Go(func() {
				s.Sleep(c.warmup())
				if err := cl.Setup(); err != nil {
					t.Errorf("setup: %v", err)
					return
				}
				writeWaves(t, cl, 5, 4, "w")
				// One batch past the retain window, so a truncation after
				// it cuts the waves above and persists the final state.
				writeWaves(t, cl, 1, checkpointMinRetain, "window")
			})
			s.RunUntil(sim.Epoch.Add(30 * time.Second))

			old := c.masters[0]
			wantV, wantD := old.Version(), old.StateDigest()
			if wantV <= c.initial.Version() {
				t.Fatal("no writes committed; test is vacuous")
			}
			old.Stop()

			var file *stateTransfer
			if tc.checkpoint {
				path := filepath.Join(dir, "master-0", "snapshot")
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if file, err = decodeStateTransfer(data, []cryptoutil.PublicKey{c.masterCfgs[0].Keys.Public}, nil, nil); err != nil {
					t.Fatalf("snapshot file is not an m.sync reply: %v", err)
				}
				if file.snap == nil || len(file.batches) != 0 || file.snap.Version() != wantV || file.anchor == 0 {
					t.Fatalf("snapshot file: snapshot %v, %d batches, anchor %d; want the state at %d alone, anchored",
						file.snap != nil, len(file.batches), file.anchor, wantV)
				}
				if tc.flip {
					data[8] ^= 0xff // inside the snapshot bytes
					if err := os.WriteFile(path, data, 0o644); err != nil {
						t.Fatal(err)
					}
					if _, err := NewMaster(c.masterCfgs[0], s, c.net.Dialer("master-0"), c.initial); err == nil {
						t.Fatal("a master started over a damaged snapshot file")
					}
					return
				}
			}

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
			replayed := m2.Stats().WALReplayed
			if file == nil {
				if replayed == 0 {
					t.Fatal("restart replayed no WAL records")
				}
				return
			}
			m2.mu.Lock()
			anchor := m2.anchor
			m2.mu.Unlock()
			if replayed != 0 || anchor != file.anchor || file.snap.StateDigest() != wantD {
				t.Fatalf("restart replayed %d WAL records and resumes after slot %d; want none, slot %d, the file's digest",
					replayed, anchor, file.anchor)
			}
		})
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

// TestMasterShowsBatchOnceDurable pins when a master's own batch becomes
// visible: inside the WAL sync (walHook) the master's version, an m.check
// reply's version and an m.sync from the batch's first version all show
// the state before the batch; once applyBatch returns, all three show it.
func TestMasterShowsBatchOnceDurable(t *testing.T) {
	r := newMasterRig(t, func(c *MasterConfig) { c.DataDir = t.TempDir() })
	t.Cleanup(r.master.Stop)
	before := r.master.Version()
	x := query.Get{Key: "x"}
	look := func(when string, want uint64, wantBatches int) {
		if v := r.master.Version(); v != want {
			t.Errorf("%s: master at version %d, want %d", when, v, want)
		}
		if v, _, _ := r.check(t, x, false); v != want {
			t.Errorf("%s: m.check answered at version %d, want %d", when, v, want)
		}
		if st := r.sync(t, before+1); st != nil && (len(st.batches) != wantBatches || st.snap != nil) {
			t.Errorf("%s: m.sync from %d sent %d batches (snapshot %v), want %d", when, before+1, len(st.batches), st.snap != nil, wantBatches)
		}
	}
	hooked := false
	r.master.walHook = func(last uint64) {
		hooked = last == before+1
		look("in the WAL sync", before, 0)
	}
	r.s.Go(func() {
		if _, err := r.write(r.client, store.Put{Key: "x", Value: []byte("1")}); err != nil {
			t.Errorf("write: %v", err)
		}
		look("after the commit", before+1, 1)
	})
	r.s.Run()
	if !hooked {
		t.Fatal("the batch never reached the WAL hook; test is vacuous")
	}
}

// TestKeepAliveStampsAckedVersion holds every commit in its WAL sync for
// longer than a keep-alive interval. No writer has been answered and no
// slave told of the batch there: a keep-alive naming its version would
// announce a batch that is not yet durable. Keep-alives must name the
// version before it until the batch is; the batch's own announce then
// costs each slave exactly one m.sync.
func TestKeepAliveStampsAckedVersion(t *testing.T) {
	s := sim.New(56)
	o := durableOpts(t.TempDir())
	o.nMasters = 1
	c := newTestCluster(t, s, o)
	m := c.masters[0]
	acked := c.initial.Version() // the newest version whose hold is over
	m.walHook = func(last uint64) {
		s.Sleep(3 * o.params.KeepAliveEvery / 2)
		acked = last
	}
	stamped := 0
	for _, sl := range c.slaves {
		c.net.Register(sl.Addr(), func(from, method string, body []byte) ([]byte, error) {
			if method == MethodKeepAlive {
				stamp, err := DecodeStamp(wire.NewReader(body))
				if err == nil && stamp.Version > acked {
					t.Errorf("keep-alive to %s names version %d, still in its WAL sync (acked %d)", sl.Addr(), stamp.Version, acked)
				}
				stamped++
			}
			return sl.Handle(from, method, body)
		})
	}
	cl := c.addClient(t, 0, nil)
	s.Go(func() {
		s.Sleep(c.warmup())
		if err := cl.Setup(); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		writeWaves(t, cl, 3, 4, "w")
		s.Sleep(3 * o.params.KeepAliveEvery) // let the last fetch and a keep-alive land
	})
	s.RunUntil(sim.Epoch.Add(30 * time.Second))

	if m.Version() <= c.initial.Version() || stamped == 0 {
		t.Fatalf("master at version %d after %d keep-alives; test is vacuous", m.Version(), stamped)
	}
	st := m.Stats()
	if want := st.BatchesApplied * uint64(len(c.slaves)); st.SyncsServed != want {
		t.Fatalf("master served %d syncs for %d batches to %d slaves, want one per batch per slave",
			st.SyncsServed, st.BatchesApplied, len(c.slaves))
	}
	for _, sl := range c.slaves {
		if sl.Version() != m.Version() || sl.Stats().UpdatesSynced != m.Version()-c.initial.Version() {
			t.Fatalf("%s at version %d with %d updates synced, want version %d",
				sl.Addr(), sl.Version(), sl.Stats().UpdatesSynced, m.Version())
		}
	}
}

// TestAdoptKeepAliveStampsAckedVersion delivers a bcAdopt while a batch
// is held in its WAL sync. The keep-alive that repoints the adopted slave
// at this master must name the version before the batch, as the periodic
// ones do, not the batch still in its WAL sync.
func TestAdoptKeepAliveStampsAckedVersion(t *testing.T) {
	r := newMasterRig(t, func(c *MasterConfig) { c.DataDir = t.TempDir() })
	t.Cleanup(r.master.Stop)
	held := false
	r.master.walHook = func(uint64) { held = true; r.s.Sleep(time.Second); held = false }
	var stamped []uint64
	r.net.Register("orphan", func(from, method string, body []byte) ([]byte, error) {
		if method == MethodKeepAlive {
			stamp, err := DecodeStamp(wire.NewReader(body))
			if err != nil {
				return nil, err
			}
			stamped = append(stamped, stamp.Version)
		}
		return nil, nil
	})
	orphan := pki.Certificate{Role: pki.RoleSlave, Addr: "orphan", Subject: cryptoutil.DeriveKeyPair("slave", 0).Public}
	adopt := wire.EncodeFrame(func(w *wire.Writer) {
		w.Byte(bcAdopt)
		w.String_("dead")
		w.Uvarint(1)
		w.String_("master") // the orphan's new owner
		orphan.Encode(w)
	})
	r.s.Go(func() {
		r.s.Spawn(func() { r.write(r.client, store.Put{Key: "x", Value: []byte("1")}) })
		for !held {
			r.s.Sleep(time.Millisecond)
		}
		r.master.deliver(0, adopt, nil)
		r.s.Sleep(2 * time.Second)
	})
	r.s.Run()

	if r.master.Version() != 2 || r.master.Stats().SlavesAdopted != 1 {
		t.Fatalf("master at version %d with %d slaves adopted, want the held write committed and one adoption",
			r.master.Version(), r.master.Stats().SlavesAdopted)
	}
	if len(stamped) == 0 || stamped[0] != 1 {
		t.Fatalf("adopted slave's keep-alives named versions %v, want the acknowledged 1 first", stamped)
	}
}

// TestLostAnnounceRepairedByNextKeepAlive cuts a slave off while one wave
// commits, so the batch's announce is lost in flight. The periodic
// keep-alives repeat it: the first one after the partition heals names
// the acknowledged version, the slave sees the gap and syncs — within
// about one keep-alive interval.
func TestLostAnnounceRepairedByNextKeepAlive(t *testing.T) {
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
			t.Errorf("isolated slave received the batch; test is vacuous")
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
		t.Fatal("slave caught up without a sync")
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

// TestStalledCheckpointSyncServesCurrentState silences both slaves and
// keeps writing, so batches commit above the base the last checkpoint left
// (the silent slaves gate stability for checkpointMaxLag keep-alive
// intervals, and any later cut keeps checkpointMinRetain ops). A sync from
// that base must get the master's current state, signed when asked, and
// no batches after it: the master keeps no checkpoint snapshot to serve
// with a suffix instead.
func TestStalledCheckpointSyncServesCurrentState(t *testing.T) {
	s := sim.New(55)
	o := durableOpts("") // in-memory: nothing is captured at a checkpoint
	o.nMasters = 1
	o.batchSize = 8
	o.checkpointEvery = 150 * time.Millisecond
	c := newTestCluster(t, s, o)
	cl := c.addClient(t, 0, nil)
	m := c.masters[0]
	hot := make([]store.Op, 8)
	for j := range hot {
		hot[j] = store.Put{Key: fmt.Sprintf("hot/%d", j), Value: []byte("v")}
	}
	var st *stateTransfer
	var base, wantV uint64
	var wantD cryptoutil.Digest
	s.Go(func() {
		s.Sleep(c.warmup())
		if err := cl.Setup(); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		// Write until the first checkpoint moves the base.
		for try := 0; try < 100 && m.Stats().CheckpointsApplied == 0; try++ {
			writeWaves(t, cl, 1, 8, fmt.Sprintf("seed%d", try))
			s.Sleep(50 * time.Millisecond)
		}
		if m.Stats().CheckpointsApplied == 0 {
			t.Error("no checkpoint ever applied; the base never moved")
			return
		}
		// Silence every slave: acks stop while the writes go on.
		for _, sl := range c.slaves {
			c.net.SetDown(sl.Addr(), true)
		}
		for i := 0; i < 60; i++ {
			if _, err := cl.WriteMulti(hot); err != nil {
				t.Errorf("stall wave %d: %v", i, err)
				return
			}
		}
		base, wantV, wantD = m.BaseVersion(), m.Version(), m.StateDigest()
		body, err := m.Handle("probe", MethodSync, wire.EncodeFrame(func(w *wire.Writer) { w.Uvarint(base) }))
		if err == nil {
			st, err = decodeStateTransfer(body, []cryptoutil.PublicKey{c.masterCfgs[0].Keys.Public}, nil, nil)
		}
		if err != nil {
			t.Errorf("sync from the base: %v", err)
		}
	})
	s.RunUntil(sim.Epoch.Add(5 * time.Minute))

	if st == nil {
		t.FailNow()
	}
	if wantV <= base {
		t.Fatalf("master at version %d, its base at %d; the sync is not from below the log", wantV, base)
	}
	if st.snap == nil || st.snap.Version() != wantV || st.snap.StateDigest() != wantD || len(st.batches) != 0 {
		t.Fatalf("sync from base %d: snapshot %v, %d batches; want the state at %d and no batches",
			base, st.snap != nil, len(st.batches), wantV)
	}
}

// TestBatchOfOneAndOfEightEquivalent commits one op sequence twice: as
// waves of one through a master that flushes every wave alone, and as
// waves of eight through a master that batches by eight. A
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
			ops := make([]store.Op, 40)
			for i := range ops {
				ops[i] = store.Put{Key: fmt.Sprintf("w/%d-%d", i/8, i%8), Value: []byte("v")}
			}
			for ; len(ops) > 0; ops = ops[batchSize:] {
				if _, err := cl.WriteMulti(ops[:batchSize]); err != nil {
					t.Errorf("batch size %d: %v", batchSize, err)
					return
				}
			}
			// Past a keep-alive, so the auditor's apply loop has every write.
			s.Sleep(c.params.MaxLatency + c.params.AuditorSlack + time.Second)
		})
		s.RunUntil(sim.Epoch.Add(time.Minute))
		m := c.masters[0]
		out := outcome{version: m.Version(), master: m.StateDigest(), slave: c.slaves[0].StateDigest(), batches: m.Stats().BatchesApplied}
		c.auditor.mu.Lock()
		out.auditor = c.auditor.headLocked().StateDigest()
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

// snapV1 is st in the store's snap.v1 layout, every key whole: the
// snapshot an earlier commit of this repository wrote.
func snapV1(st *store.Store) []byte {
	w := wire.NewWriter(64)
	w.String_("snap.v1")
	w.Uvarint(st.Version())
	w.Uvarint(uint64(st.Len()))
	st.Ascend("", "", func(k string, v []byte) bool {
		w.String_(k)
		w.Bytes_(v)
		return true
	})
	return w.Bytes()
}

// TestMasterRefusesSnapV1File: a snapshot file whose store snapshot is in
// the snap.v1 layout, under a stamp this master signed over exactly those
// bytes, is refused with store.ErrSnapshotMagic and the master does not
// start; an m.sync reply carrying one is refused by the same reader.
func TestMasterRefusesSnapV1File(t *testing.T) {
	dir := t.TempDir()
	var cfg MasterConfig
	r := newMasterRig(t, func(c *MasterConfig) { c.DataDir = dir; cfg = *c })
	r.master.Stop()
	st := transferState(7)
	old := snapV1(st)
	reply := transferParts{snap: &ckptSnapshot{version: 7, bytes: old, stamp: SignStampWithOp(cfg.Keys, 7, r.s.Now(), old)}}.encode()
	if _, err := decodeStateTransfer(reply, []cryptoutil.PublicKey{cfg.Keys.Public}, nil, nil); !errors.Is(err, store.ErrSnapshotMagic) {
		t.Fatalf("m.sync reply with a snap.v1 snapshot: err %v, want store.ErrSnapshotMagic", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshot"), reply, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := NewMaster(cfg, r.s, r.net.Dialer("master"), transferState(1))
	if err == nil {
		m.Stop()
	}
	if !errors.Is(err, store.ErrSnapshotMagic) {
		t.Fatalf("master over a snap.v1 snapshot file: err %v, want store.ErrSnapshotMagic", err)
	}
}
