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

func (nullDialer) Call(addr, method string, body []byte) ([]byte, error) {
	return nil, rpc.ErrTimeout
}
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

// TestBatchWaitersResolvedOnceByPosition delivers bcBatch frames to the
// master that has the batch in flight: only its own frame with the right
// number and op count resolves the waiting waves, each by its position in
// the batch with the version of its first op (0 for a wave holding an op
// every master skips), and nothing ever resolves them a second time — a
// second send on a commit channel would block the delivery drainer for
// good.
func TestBatchWaitersResolvedOnceByPosition(t *testing.T) {
	start := time.Now()
	m := newRealClockMaster(t)
	if m.batchNo < uint64(start.UnixNano()) {
		t.Fatalf("batch numbers start at %d, below the clock: a restart could reuse one", m.batchNo)
	}
	put := func(key string) []byte { return store.EncodeOp(store.Put{Key: key, Value: []byte("v")}) }
	batch := []queuedWave{
		{ops: [][]byte{put("a"), put("b")}, h: m.newCommitHandle()},
		{ops: [][]byte{put("c"), {0xff, 0xfe}}, h: m.newCommitHandle()}, // undecodable: skipped everywhere
		{ops: [][]byte{put("d")}, h: m.newCommitHandle()},
	}
	const no = 7
	m.inflight[no] = batch
	unresolved := func(when string) {
		t.Helper()
		for i, w := range batch {
			if len(w.h.ch) != 0 {
				t.Fatalf("%s resolved wave %d", when, i)
			}
		}
	}
	m.deliver(1, encodeBatchMessage("other", no, batch)) // versions 2–5
	unresolved("another master's batch with the same number")
	m.deliver(2, encodeBatchMessage("master", no+1, batch)) // versions 6–9
	unresolved("an own batch with another number")
	m.deliver(3, encodeBatchMessage("master", no, batch[:2])) // versions 10–12
	unresolved("a forged frame with another op count")

	m.deliver(4, encodeBatchMessage("master", no, batch)) // versions 13–16
	for i, want := range []uint64{13, 0, 16} {
		select {
		case got := <-batch[i].h.ch:
			if got != want {
				t.Fatalf("wave %d resolved with version %d, want %d", i, got, want)
			}
		default:
			t.Fatalf("wave %d not resolved by its own batch", i)
		}
	}
	m.deliver(5, encodeBatchMessage("master", no, batch)) // a replay commits again, resolves nobody
	m.failBatch(no)                                       // Broadcast reporting failure after delivery
	unresolved("a replayed frame or a late failure")
	if len(m.inflight) != 0 || m.Version() != 20 {
		t.Fatalf("inflight=%d version=%d, want 0 and 20", len(m.inflight), m.Version())
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
