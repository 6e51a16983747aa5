package broadcast

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/wire"
)

// tcpCluster is n members over loopback TCP on the real clock. No member
// is started, so nothing but Broadcast traffic moves: heartbeats cannot
// repair a gap or change a view behind a test's back.
type tcpCluster struct {
	members []*Member

	mu   sync.Mutex
	cond *sync.Cond
	logs [][]string // guarded by mu
	late bool       // guarded by mu; the watchdog fired
}

// newTCPCluster listens, dials and constructs. intercept, when set, sees
// every incoming call first and fails it by returning an error; apply,
// when set, runs inside every Deliver before the message is logged.
func newTCPCluster(tb testing.TB, n int, intercept func(i int, method string) error, apply func(i int)) *tcpCluster {
	tb.Helper()
	c := &tcpCluster{logs: make([][]string, n)}
	c.cond = sync.NewCond(&c.mu)
	up := make([]atomic.Pointer[Member], n)
	peers := make([]string, n)
	for i := 0; i < n; i++ {
		srv, err := rpc.ListenTCP("127.0.0.1:0", func(from, method string, body []byte) ([]byte, error) {
			m := up[i].Load()
			if m == nil {
				return nil, errors.New("member not up yet")
			}
			if intercept != nil {
				if err := intercept(i, method); err != nil {
					return nil, err
				}
			}
			return m.Handle(from, method, body)
		})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { srv.Close() })
		peers[i] = srv.Addr()
	}
	for i := 0; i < n; i++ {
		d := rpc.NewTCPDialer()
		tb.Cleanup(func() { d.Close() })
		m, err := New(Config{
			Self:  peers[i],
			Peers: peers,
			Deliver: func(seq uint64, msg []byte) {
				if apply != nil {
					apply(i)
				}
				c.mu.Lock()
				c.logs[i] = append(c.logs[i], string(msg))
				c.mu.Unlock()
				c.cond.Broadcast()
			},
			CallTimeout: 2 * time.Second,
		}, sim.RealClock{}, d)
		if err != nil {
			tb.Fatal(err)
		}
		up[i].Store(m)
		c.members = append(c.members, m)
	}
	return c
}

// await blocks until every listed member has delivered want messages (all
// members when none is listed) and returns their logs joined; it gives up
// after ten seconds.
func (c *tcpCluster) await(tb testing.TB, want int, members ...int) []string {
	tb.Helper()
	if len(members) == 0 {
		for i := range c.logs {
			members = append(members, i)
		}
	}
	watchdog := time.AfterFunc(10*time.Second, func() {
		c.mu.Lock()
		c.late = true
		c.mu.Unlock()
		c.cond.Broadcast()
	})
	defer watchdog.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	behind := func() bool {
		for _, i := range members {
			if len(c.logs[i]) < want {
				return true
			}
		}
		return false
	}
	for behind() && !c.late {
		c.cond.Wait()
	}
	out := make([]string, len(c.logs))
	for i := range c.logs {
		out[i] = strings.Join(c.logs[i], ",")
	}
	if c.late {
		tb.Fatalf("timed out waiting for %d deliveries on members %v; delivered %q", want, members, out)
	}
	return out
}

// TestTCPGapRepairFetchesFromSequencer loses member 2's first commit —
// as a remote error, so the sequencer counts it answered and closes the
// round — and requires the next commit, which says slot 1 is closed, to
// make member 2 repair the gap through b.fetch. Over TCP the RPC's from
// is the caller's ephemeral source port, so a fetch addressed to it can
// never connect: the repair has to go to the sequencer's listening
// address, Peers[view].
func TestTCPGapRepairFetchesFromSequencer(t *testing.T) {
	var (
		dropped atomic.Bool
		fetches atomic.Int64
	)
	c := newTCPCluster(t, 3, func(i int, method string) error {
		if i == 2 && method == MethodCommit && dropped.CompareAndSwap(false, true) {
			return errors.New("commit lost")
		}
		if i == 0 && method == MethodFetch {
			fetches.Add(1)
		}
		return nil
	}, nil)
	for _, msg := range []string{"w1", "w2"} {
		if err := c.members[1].Broadcast([]byte(msg)); err != nil {
			t.Fatalf("broadcast %s: %v", msg, err)
		}
	}
	for i, got := range c.await(t, 2) {
		if got != "w1,w2" {
			t.Errorf("member %d delivered %q, want w1,w2", i, got)
		}
	}
	if !dropped.Load() || fetches.Load() == 0 {
		t.Errorf("commit dropped: %v, b.fetch calls served by the sequencer: %d", dropped.Load(), fetches.Load())
	}
}

// TestTCPConcurrentBroadcastersOneOrder is the schedule-sensitive one
// (make race runs this package ten times): four callers on all three
// members, 200 messages each, rounds overlapping freely. Every member
// must deliver all 800 exactly once in one identical order, each caller's
// own messages in the order it sent them, and with nothing lost on the
// way no member may need a b.fetch.
func TestTCPConcurrentBroadcastersOneOrder(t *testing.T) {
	const callers, per = 4, 200
	var fetches atomic.Int64
	c := newTCPCluster(t, 3, func(_ int, method string) error {
		if method == MethodFetch {
			fetches.Add(1)
		}
		return nil
	}, nil)
	var wg sync.WaitGroup
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := c.members[k%len(c.members)] // two callers share the sequencer
			for j := 0; j < per; j++ {
				if err := m.Broadcast([]byte(fmt.Sprintf("%d.%03d", k, j))); err != nil {
					t.Errorf("caller %d message %d: %v", k, j, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	logs := c.await(t, callers*per)
	for i := 1; i < len(logs); i++ {
		if logs[i] != logs[0] {
			t.Fatalf("delivery order diverged between member 0 and member %d", i)
		}
	}
	next := make([]int, callers)
	for _, msg := range strings.Split(logs[0], ",") {
		var k, j int
		if _, err := fmt.Sscanf(msg, "%d.%d", &k, &j); err != nil || k >= callers {
			t.Fatalf("unexpected message %q", msg)
		}
		if j != next[k] {
			t.Fatalf("caller %d: message %d delivered where %d was due (duplicated, lost or reordered)", k, j, next[k])
		}
		next[k]++
	}
	for k, n := range next {
		if n != per {
			t.Errorf("caller %d: %d of %d delivered", k, n, per)
		}
	}
	if n := fetches.Load(); n != 0 {
		t.Errorf("%d b.fetch calls on a lossless network", n)
	}
}

// BenchmarkCommitRound is the broadcast row of the layer ledger: what one
// commit costs the caller who waits for it. Three members over loopback
// TCP; the message is the size of one 256-op batch (23 KB); every
// member's Deliver burns 1.5 ms of CPU, about what core.Master.applyBatch
// takes for that batch (tree, stamp signature, WAL append and fsync). One
// op is Broadcast on the sequencer plus the sequencer's own delivery,
// which is when a writer attached to it is answered.
func BenchmarkCommitRound(b *testing.B) {
	const applyCost = 1500 * time.Microsecond
	applied := make(chan struct{}, 1) // the sequencer's deliveries; one round is in flight at a time
	c := newTCPCluster(b, 3, nil, func(i int) {
		for start := time.Now(); time.Since(start) < applyCost; {
		}
		if i == 0 {
			applied <- struct{}{}
		}
	})
	msg := make([]byte, 23<<10)
	b.SetBytes(int64(len(msg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.members[0].Broadcast(msg); err != nil {
			b.Fatal(err)
		}
		<-applied
	}
	b.StopTimer()
	c.await(b, b.N) // the peers' applies, off the caller's path
}

// TestOutOfRangeViewRejected: the view in b.commit and b.hello indexes
// the peer list and arrives unauthenticated; a value outside the list
// must come back as an error — not panic here, and not be stored to
// panic the member's next Broadcast.
func TestOutOfRangeViewRejected(t *testing.T) {
	s := sim.New(1)
	c := newCluster(t, s, 3)
	for _, view := range []uint64{3, 4, 1 << 40, 1<<63 + 5, 1<<64 - 1} {
		commit := wire.NewWriter(32)
		commit.Uvarint(view)
		commit.Uvarint(1) // seq
		commit.Uvarint(0) // closed mark
		entry{msg: []byte("evil")}.encode(commit)
		hello := wire.NewWriter(32)
		hello.Uvarint(view)
		hello.Uvarint(0) // max seq
		hello.Uvarint(0) // stable seq
		for method, body := range map[string][]byte{MethodCommit: commit.Bytes(), MethodHello: hello.Bytes()} {
			if _, err := c.members[1].Handle("attacker", method, body); err == nil {
				t.Errorf("%s with view %d accepted", method, view)
			}
		}
	}
	if got := c.members[1].Sequencer(); got != "m0" {
		t.Fatalf("view moved to %q by rejected frames", got)
	}
	s.Go(func() {
		if err := c.members[1].Broadcast([]byte("after")); err != nil {
			t.Errorf("broadcast after the hostile frames: %v", err)
		}
	})
	c.run(2 * time.Second)
	for i := 0; i < 3; i++ {
		if c.logStr(i) != "after" {
			t.Fatalf("member %d delivered %q", i, c.logStr(i))
		}
	}
}
