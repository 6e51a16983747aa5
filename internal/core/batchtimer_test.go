package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

// TestBatchTimerCoalescesSynchronizedWriters drives two writers whose
// waves together exactly fill a batch: with the timer armed once per
// batch (on the empty->non-empty transition) every wave flushes full. A
// stale per-flush timer would instead cut the synchronized waves into
// sub-size timer flushes (the E15 BatchFlushTimer symptom).
func TestBatchTimerCoalescesSynchronizedWriters(t *testing.T) {
	s := sim.New(61)
	o := defaultOpts()
	o.nMasters = 1
	o.params.MaxLatency = 4 * time.Millisecond
	o.params.KeepAliveEvery = 100 * time.Millisecond
	o.batchSize = 16
	o.batchTimeout = 40 * time.Millisecond
	c := newTestCluster(t, s, o)
	a := c.addClient(t, 0, func(cc *ClientConfig) { cc.PreferredMaster = 0 })
	b := c.addClient(t, 1, func(cc *ClientConfig) { cc.PreferredMaster = 0 })
	const rounds = 6
	s.Go(func() {
		s.Sleep(c.warmup())
		if err := a.Setup(); err != nil {
			t.Errorf("setup a: %v", err)
			return
		}
		if err := b.Setup(); err != nil {
			t.Errorf("setup b: %v", err)
			return
		}
		wave := func(cl *Client, tag string, round int, done *int) {
			ops := make([]store.Op, 8)
			for j := range ops {
				ops[j] = store.Put{Key: fmt.Sprintf("%s/%d-%d", tag, round, j), Value: []byte("v")}
			}
			if _, err := cl.WriteMulti(ops); err != nil {
				t.Errorf("wave %s/%d: %v", tag, round, err)
			}
			*done++
		}
		for r := 0; r < rounds; r++ {
			done := 0
			r := r
			s.Spawn(func() { wave(a, "a", r, &done) })
			s.Spawn(func() { wave(b, "b", r, &done) })
			for done < 2 {
				s.Sleep(time.Millisecond)
			}
		}
		st := c.masters[0].Stats()
		if st.BatchFlushFull != rounds || st.BatchFlushTimer != 0 {
			t.Errorf("synchronized waves: %d full / %d timer flushes, want %d / 0",
				st.BatchFlushFull, st.BatchFlushTimer, rounds)
		}
		// A lone sub-size write still flushes — by the timer, once.
		if _, err := a.Write(store.Put{Key: "lone", Value: []byte("v")}); err != nil {
			t.Errorf("lone write: %v", err)
		}
		if st := c.masters[0].Stats(); st.BatchFlushTimer != 1 {
			t.Errorf("lone write flushed by %d timer fires, want 1", st.BatchFlushTimer)
		}
	})
	s.RunUntil(sim.Epoch.Add(time.Minute))
}

// nullDialer satisfies rpc.Dialer for a master that never makes a call.
type nullDialer struct{}

func (nullDialer) CallTimeout(addr, method string, body []byte, d time.Duration) ([]byte, error) {
	return nil, rpc.ErrTimeout
}

// newRealClockMaster builds a lone master at version 1 on the real clock.
// It is not started: tests drive its commit path directly.
func newRealClockMaster(t testing.TB) *Master {
	t.Helper()
	initial := store.New()
	initial.Apply(store.Put{Key: "k", Value: []byte("v")})
	m, err := NewMaster(MasterConfig{
		Addr:        "master",
		Keys:        cryptoutil.DeriveKeyPair("master", 0),
		Params:      DefaultParams(),
		ContentKey:  cryptoutil.DeriveKeyPair("owner", 0).Public,
		Peers:       []string{"master"},
		AuditorAddr: "auditor",
		ACL:         NewACL(),
		Seed:        1,
	}, sim.RealClock{}, nullDialer{}, initial)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBatchWaitersResolvedOnceByPosition delivers bcBatch slots to the
// master whose broadcast hands a batch's waves back with them. Only a slot
// that holds exactly the frame the master sent for them acknowledges them,
// each by its position with the version of its first op. A slot carrying
// anything else — other ops of the same count, a prefix, another kind of
// message — answers every wave 0 and counts a displaced batch. Nothing
// answers a wave twice: a second send on a commit channel would block the
// delivery drainer for good.
func TestBatchWaitersResolvedOnceByPosition(t *testing.T) {
	m := newRealClockMaster(t)
	put := func(key string) []byte { return store.EncodeOp(store.Put{Key: key, Value: []byte("v")}) }
	waves := func(ops ...[][]byte) []queuedWave {
		ws := make([]queuedWave, len(ops))
		for i, o := range ops {
			ws[i] = queuedWave{ops: o, h: m.newCommitHandle()}
		}
		return ws
	}
	expect := func(when string, ws []queuedWave, want ...uint64) {
		t.Helper()
		for i, w := range ws {
			select {
			case got := <-w.h.ch:
				if got != want[i] {
					t.Fatalf("%s: wave %d answered %d, want %d", when, i, got, want[i])
				}
			default:
				t.Fatalf("%s: wave %d not answered", when, i)
			}
		}
	}
	a, b, c, d := put("a"), put("b"), put("c"), put("d")

	other := waves([][]byte{a, b})
	m.deliver(1, encodeBatchMessage(other), nil) // versions 2–3
	if len(other[0].h.ch) != 0 {
		t.Fatal("another master's batch answered a wave")
	}
	ws := waves([][]byte{a, b}, [][]byte{c})
	m.deliver(2, encodeBatchMessage(waves([][]byte{a, d}, [][]byte{c})), ws) // versions 4–6
	expect("a slot holding other ops of the same count", ws, 0, 0)
	ws = waves([][]byte{a, b}, [][]byte{c})
	m.deliver(3, encodeBatchMessage(ws[:1]), ws) // versions 7–8
	expect("a slot holding a prefix of the ops", ws, 0, 0)
	ws = waves([][]byte{a, b}, [][]byte{c})
	m.deliver(4, []byte{bcSlaveList, 0xff}, ws)
	expect("a slot holding another kind of message", ws, 0, 0)
	if got := m.Stats().BatchesDisplaced; got != 3 {
		t.Fatalf("BatchesDisplaced = %d, want 3", got)
	}

	ws = waves([][]byte{a, b}, [][]byte{c}, [][]byte{d})
	m.deliver(5, encodeBatchMessage(ws), ws) // versions 9–12
	expect("the batch's own slot", ws, 9, 11, 12)
	m.deliver(6, encodeBatchMessage(ws), nil) // a replay commits again, answers nobody
	for i, w := range ws {
		if len(w.h.ch) != 0 {
			t.Fatalf("a replayed slot answered wave %d again", i)
		}
	}
}

// TestUndecodableBatchAppliedNowhere delivers, in its origin's own slot, a
// bcBatch one of whose ops does not decode — admission refuses such an op,
// so only a forged b.submit carries one — to that master and to the
// auditor. No replica applies any of it: both stay at their version, and
// the origin answers each of its waves 0, exactly once.
func TestUndecodableBatchAppliedNowhere(t *testing.T) {
	m := newRealClockMaster(t)
	a := newAuditorRig(t, nil).auditor
	put := func(key string) []byte { return store.EncodeOp(store.Put{Key: key, Value: []byte("v")}) }
	// Room for a second answer, so that one shows instead of blocking.
	ws := []queuedWave{
		{ops: [][]byte{put("a")}, h: commitHandle{ch: make(chan uint64, 2)}},
		{ops: [][]byte{put("b"), {0xff, 0xfe}, put("c")}, h: commitHandle{ch: make(chan uint64, 2)}},
	}
	msg := encodeBatchMessage(ws)
	m.deliver(1, msg, ws)
	a.deliver(1, msg, nil)
	for i, w := range ws {
		if len(w.h.ch) != 1 {
			t.Fatalf("wave %d answered %d times, want once", i, len(w.h.ch))
		}
		if got := <-w.h.ch; got != 0 {
			t.Fatalf("wave %d answered %d, want 0", i, got)
		}
	}
	if m.Version() != 1 || a.Version() != 1 || a.Stats().VersionLagMax != 0 {
		t.Fatalf("master at version %d, auditor at %d; want both at 1", m.Version(), a.Version())
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.masterV != 1 || len(a.held) != 0 {
		t.Fatalf("auditor holds %d batches up to version %d; want none, 1", len(a.held), a.masterV)
	}
	if st := m.Stats(); st.WritesApplied != 0 || st.BatchesApplied != 0 || st.BatchesDisplaced != 0 {
		t.Fatalf("master stats %+v: counted a batch it did not apply", st)
	}
}

// TestAwaitCommitReleasesTimers runs the real-clock commit wait under
// load with a far deadline: the wait's timer must be released when the
// commit arrives, not held until the deadline. (time.After kept each
// timer pinned until expiry before Go 1.23 — ~200 bytes per in-flight
// wave, tens of megabytes at this volume; NewTimer+Stop releases it
// deterministically on every runtime.) The heap check guards the wait
// against regressing into per-wave state that survives the commit.
func TestAwaitCommitReleasesTimers(t *testing.T) {
	m := newRealClockMaster(t)
	// Not started: we drive the handle and the wait directly, the way
	// handleWriteMulti and the delivery path do.
	m.cfg.Params.ReadTimeout = time.Hour
	const n = 200000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		h := m.newCommitHandle()
		h.resolve(uint64(i + 1))
		if v := m.awaitCommit(h); v != uint64(i+1) {
			t.Fatalf("wait %d: v=%d", i, v)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	// 200k leaked 1h timers would pin >40 MB; the fixed path leaves only
	// transient garbage the GC already collected.
	if growth > 20<<20 {
		t.Fatalf("heap grew %d bytes across %d commit waits: timers are not released", growth, n)
	}
}

// TestWaveLargerThanBatchCommitsWhole sends a 24-op wave to a master with
// BatchSize 16: the wave is never split, so it commits as one batch, at
// 24 consecutive versions.
func TestWaveLargerThanBatchCommitsWhole(t *testing.T) {
	s := sim.New(62)
	o := defaultOpts()
	o.nMasters = 1
	o.batchSize = 16
	o.batchTimeout = 40 * time.Millisecond
	c := newTestCluster(t, s, o)
	a := c.addClient(t, 0, func(cc *ClientConfig) { cc.PreferredMaster = 0 })
	s.Go(func() {
		s.Sleep(c.warmup())
		if err := a.Setup(); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		before := c.masters[0].Stats().BatchesApplied
		versions, err := a.WriteMulti(waveOps(24))
		if err != nil {
			t.Errorf("wave: %v", err)
			return
		}
		for i, v := range versions {
			if v == 0 || v != versions[0]+uint64(i) {
				t.Errorf("versions %v: not first…first+23", versions)
				break
			}
		}
		if got := c.masters[0].Stats().BatchesApplied - before; got != 1 {
			t.Errorf("the wave committed in %d batches, want 1", got)
		}
	})
	s.RunUntil(sim.Epoch.Add(time.Minute))
}

// waveMaster is newRealClockMaster with BatchSize 16, the given flush
// timer and commit deadline, a 1 ms max_latency (so pacing never waits
// long) and an ACL that permits the two returned client keys.
func waveMaster(t *testing.T, batchTimeout, readTimeout time.Duration) (m *Master, a, w *cryptoutil.KeyPair) {
	m = newRealClockMaster(t)
	a, w = cryptoutil.DeriveKeyPair("client", 0), cryptoutil.DeriveKeyPair("client", 1)
	m.cfg.ACL = NewACL(a.Public, w.Public)
	m.cfg.BatchSize = 16
	m.cfg.BatchTimeout = batchTimeout
	m.cfg.Params.MaxLatency = time.Millisecond
	m.cfg.Params.ReadTimeout = readTimeout
	return m, a, w
}

// sendWave hands m a signed wave of n puts and returns the version its
// reply names for the first op (0: the wave did not commit).
func sendWave(t *testing.T, m *Master, keys *cryptoutil.KeyPair, n int) uint64 {
	body, err := m.Handle("client", MethodWriteMulti, encodeWave(SignWave(keys, waveOps(n))))
	if err != nil {
		t.Errorf("wave of %d: %v", n, err)
		return 0
	}
	return wire.NewReader(body).Uvarint()
}

// straddleSetup sends wave A of 20 ops and, once A has committed, sends
// wave W of 14 ops in the background; it returns W's reply channel once W
// is admitted. Were waves split at BatchSize, A would not return yet: its
// first 16 ops would have committed and its last 4 would still be queued
// when W arrives, W's first 12 would flush with them and commit, and only
// W's last 2 would be left to whatever the test does to W's own flush.
func straddleSetup(t *testing.T, m *Master, a, w *cryptoutil.KeyPair) <-chan uint64 {
	aDone := make(chan struct{})
	go func() { sendWave(t, m, a, 20); close(aDone) }()
	waitFor(t, "wave A", func() bool {
		select {
		case <-aDone:
			return true
		default:
			m.mu.Lock()
			defer m.mu.Unlock()
			return len(m.batchQueue) > 0 && m.store.Version() >= 17 // A split, its tail queued
		}
	})
	reply := make(chan uint64, 1)
	go func() { reply <- sendWave(t, m, w, 14) }()
	waitFor(t, "wave W's admission", func() bool { return m.Stats().WritesAdmitted >= 34 })
	return reply
}

// waitFor polls cond every millisecond for up to ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestWaveFlushFailureCommitsNone fails the flush that carries wave W:
// every one of W's ops is reported uncommitted, and none of them applies.
func TestWaveFlushFailureCommitsNone(t *testing.T) {
	m, a, w := waveMaster(t, 500*time.Millisecond, 10*time.Second)
	reply := straddleSetup(t, m, a, w)
	// W alone in the queue above A's 20 ops — or, were waves split, W's
	// first 12 committed with A's last 4 and W's last 2 left queued.
	waitFor(t, "wave W queued", func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		v := m.store.Version()
		return len(m.batchQueue) == 1 && v == 21 || v == 33
	})
	m.bcast.Stop() // W's timer flush, 500 ms after W arrived, cannot broadcast
	if first := <-reply; first != 0 {
		t.Fatalf("wave W's reply names version %d, want 0: its flush failed", first)
	}
	if v := m.Version(); v != 21 {
		t.Fatalf("version %d, want 21: A's 20 ops and none of W's", v)
	}
}

// TestWaveWithdrawnAtDeadlineCommitsNone lets wave W's commit deadline
// pass while W is queued for a flush timer that fires much later: W is
// withdrawn whole, reported uncommitted, and none of its ops applies.
func TestWaveWithdrawnAtDeadlineCommitsNone(t *testing.T) {
	m, a, w := waveMaster(t, time.Minute, 300*time.Millisecond)
	reply := straddleSetup(t, m, a, w)
	if first := <-reply; first != 0 {
		t.Fatalf("wave W's reply names version %d, want 0: it was withdrawn", first)
	}
	m.mu.Lock()
	queued := len(m.batchQueue)
	m.mu.Unlock()
	if v := m.Version(); v != 21 || queued != 0 {
		t.Fatalf("version %d with %d queued, want 21 and 0: A's 20 ops and none of W's", v, queued)
	}
}
