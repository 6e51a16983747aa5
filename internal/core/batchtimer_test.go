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
// number and op count resolves the waiters, each with the version of the
// op at its position (0 for one every master skips), and nothing ever
// resolves them a second time — a second send on a commit channel would
// block the delivery drainer for good.
func TestBatchWaitersResolvedOnceByPosition(t *testing.T) {
	start := time.Now()
	m := newRealClockMaster(t)
	if m.batchNo < uint64(start.UnixNano()) {
		t.Fatalf("batch numbers start at %d, below the clock: a restart could reuse one", m.batchNo)
	}
	batch := []batchWaiter{
		{opBytes: store.EncodeOp(store.Put{Key: "a", Value: []byte("1")}), h: m.newCommitHandle()},
		{opBytes: []byte{0xff, 0xfe}, h: m.newCommitHandle()}, // undecodable: skipped everywhere
		{opBytes: store.EncodeOp(store.Put{Key: "b", Value: []byte("2")}), h: m.newCommitHandle()},
	}
	const no = 7
	m.inflight[no] = batch
	unresolved := func(when string) {
		t.Helper()
		for i, bw := range batch {
			if len(bw.h.ch) != 0 {
				t.Fatalf("%s resolved waiter %d", when, i)
			}
		}
	}
	m.deliver(1, encodeBatchMessage("other", no, batch)) // versions 2, 3
	unresolved("another master's batch with the same number")
	m.deliver(2, encodeBatchMessage("master", no+1, batch)) // versions 4, 5
	unresolved("an own batch with another number")
	m.deliver(3, encodeBatchMessage("master", no, batch[:2])) // version 6
	unresolved("a forged frame with another op count")

	m.deliver(4, encodeBatchMessage("master", no, batch)) // versions 7, 8
	for i, want := range []uint64{7, 0, 8} {
		select {
		case got := <-batch[i].h.ch:
			if got != want {
				t.Fatalf("waiter %d resolved with version %d, want %d", i, got, want)
			}
		default:
			t.Fatalf("waiter %d not resolved by its own batch", i)
		}
	}
	m.deliver(5, encodeBatchMessage("master", no, batch)) // a replay commits again, resolves nobody
	m.failBatch(no)                                       // Broadcast reporting failure after delivery
	unresolved("a replayed frame or a late failure")
	if len(m.inflight) != 0 || m.Version() != 10 {
		t.Fatalf("inflight=%d version=%d, want 0 and 10", len(m.inflight), m.Version())
	}
}

// TestAwaitCommitReleasesTimers runs the real-clock commit wait path
// under load with a far deadline: the per-wait timer must be released
// when the commit arrives, not held until the deadline. (time.After
// kept each timer pinned until expiry before Go 1.23 — ~200 bytes per
// in-flight write, tens of megabytes at this volume; NewTimer+Stop
// releases it deterministically on every runtime.) The heap check
// guards the wait path against regressing into per-write state that
// survives the commit.
func TestAwaitCommitReleasesTimers(t *testing.T) {
	m := newRealClockMaster(t)
	// Not started: we drive the handle, the deadline and the wait
	// directly, the way handleWrite and the delivery path do.
	m.cfg.Params.ReadTimeout = time.Hour
	const n = 200000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		h := m.newCommitHandle()
		h.resolve(uint64(i + 1))
		expired, stop := m.commitDeadline()
		v, err := m.awaitCommit(h, expired)
		stop()
		if err != nil || v != uint64(i+1) {
			t.Fatalf("wait %d: v=%d err=%v", i, v, err)
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
