package broadcast

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/sim"
)

type cluster struct {
	t       *testing.T
	s       *sim.Sim
	net     *rpc.SimNet
	hooks   hooks
	peers   []string
	members []*Member
	logs    [][]string // delivered messages per member
}

// hooks lets a test stand between the members: deliver runs before a
// delivery is logged, may block, and drops the delivery by returning
// false (a member the test has crashed applies nothing); dialer and
// handler wrap one member's outgoing and incoming calls.
type hooks struct {
	deliver func(i int, seq uint64, msg []byte) bool
	dialer  func(i int, d rpc.Dialer) rpc.Dialer
	handler func(i int, h rpc.Handler) rpc.Handler
}

func newCluster(t *testing.T, s *sim.Sim, n int) *cluster {
	t.Helper()
	return newClusterWith(t, s, n, hooks{})
}

func newClusterWith(t *testing.T, s *sim.Sim, n int, h hooks) *cluster {
	t.Helper()
	net := rpc.NewSimNet(s, sim.Const(2*time.Millisecond))
	c := &cluster{t: t, s: s, net: net, hooks: h, logs: make([][]string, n), members: make([]*Member, n)}
	for i := 0; i < n; i++ {
		c.peers = append(c.peers, fmt.Sprintf("m%d", i))
	}
	for i := 0; i < n; i++ {
		c.boot(i)
	}
	for _, m := range c.members {
		m.Start()
	}
	return c
}

// boot constructs member i with an empty log and puts it on the network;
// restart uses it to bring a crashed member back with nothing but its
// address.
func (c *cluster) boot(i int) {
	c.t.Helper()
	c.logs[i] = nil
	cfg := Config{
		Self:  c.peers[i],
		Peers: c.peers,
		Deliver: func(seq uint64, msg []byte) {
			if c.hooks.deliver != nil && !c.hooks.deliver(i, seq, msg) {
				return
			}
			c.logs[i] = append(c.logs[i], string(msg))
		},
		CallTimeout:    50 * time.Millisecond,
		HeartbeatEvery: 100 * time.Millisecond,
		TakeoverAfter:  300 * time.Millisecond,
	}
	d := c.net.Dialer(c.peers[i])
	if c.hooks.dialer != nil {
		d = c.hooks.dialer(i, d)
	}
	m, err := New(cfg, c.s, d)
	if err != nil {
		c.t.Fatal(err)
	}
	c.members[i] = m
	handle := rpc.Handler(m.Handle)
	if c.hooks.handler != nil {
		handle = c.hooks.handler(i, handle)
	}
	c.net.Register(c.peers[i], handle)
}

// crash takes member i off the network and stops its loops; restart
// brings a fresh member up at the same address.
func (c *cluster) crash(i int) {
	c.net.SetDown(c.peers[i], true)
	c.members[i].Stop()
}

func (c *cluster) restart(i int) {
	c.boot(i)
	c.members[i].Start()
}

func (c *cluster) run(d time.Duration) {
	c.s.RunUntil(sim.Epoch.Add(d))
}

func (c *cluster) logStr(i int) string { return strings.Join(c.logs[i], ",") }

func TestSingleBroadcastReachesAll(t *testing.T) {
	s := sim.New(1)
	c := newCluster(t, s, 3)
	s.Go(func() {
		if err := c.members[0].Broadcast([]byte("w1")); err != nil {
			t.Errorf("broadcast: %v", err)
		}
	})
	c.run(2 * time.Second)
	for i := 0; i < 3; i++ {
		if c.logStr(i) != "w1" {
			t.Fatalf("member %d delivered %q", i, c.logStr(i))
		}
	}
}

func TestNonSequencerSubmitForwarded(t *testing.T) {
	s := sim.New(1)
	c := newCluster(t, s, 3)
	s.Go(func() {
		if err := c.members[2].Broadcast([]byte("from-2")); err != nil {
			t.Errorf("broadcast: %v", err)
		}
	})
	c.run(2 * time.Second)
	for i := 0; i < 3; i++ {
		if c.logStr(i) != "from-2" {
			t.Fatalf("member %d delivered %q", i, c.logStr(i))
		}
	}
}

func TestTotalOrderAcrossConcurrentSubmitters(t *testing.T) {
	s := sim.New(3)
	c := newCluster(t, s, 4)
	const per = 5
	for i := 0; i < 4; i++ {
		i := i
		s.Go(func() {
			for j := 0; j < per; j++ {
				msg := fmt.Sprintf("m%d-%d", i, j)
				if err := c.members[i].Broadcast([]byte(msg)); err != nil {
					t.Errorf("broadcast %s: %v", msg, err)
					return
				}
				s.Sleep(time.Duration(1+i) * time.Millisecond)
			}
		})
	}
	c.run(5 * time.Second)
	want := c.logStr(0)
	if len(c.logs[0]) != 4*per {
		t.Fatalf("member 0 delivered %d messages, want %d: %s", len(c.logs[0]), 4*per, want)
	}
	for i := 1; i < 4; i++ {
		if c.logStr(i) != want {
			t.Fatalf("delivery order diverged:\nm0: %s\nm%d: %s", want, i, c.logStr(i))
		}
	}
}

func TestCrashedMemberCatchesUpOnRecovery(t *testing.T) {
	s := sim.New(1)
	c := newCluster(t, s, 3)
	s.Go(func() {
		c.members[0].Broadcast([]byte("a"))
		c.net.SetDown("m2", true) // m2 misses the next writes
		c.members[0].Broadcast([]byte("b"))
		c.members[0].Broadcast([]byte("c"))
		c.net.SetDown("m2", false) // heartbeat will trigger catch-up fetch
	})
	c.run(5 * time.Second)
	if c.logStr(2) != "a,b,c" {
		t.Fatalf("m2 delivered %q, want a,b,c", c.logStr(2))
	}
}

func TestSequencerCrashTakeover(t *testing.T) {
	s := sim.New(1)
	c := newCluster(t, s, 3)
	s.Go(func() {
		if err := c.members[1].Broadcast([]byte("pre")); err != nil {
			t.Errorf("pre: %v", err)
		}
		// Kill the sequencer (m0).
		c.net.SetDown("m0", true)
		c.members[0].Stop()
		s.Sleep(time.Second) // allow failure detection
		if err := c.members[1].Broadcast([]byte("post")); err != nil {
			t.Errorf("post: %v", err)
		}
	})
	c.run(10 * time.Second)
	for _, i := range []int{1, 2} {
		if c.logStr(i) != "pre,post" {
			t.Fatalf("member %d delivered %q, want pre,post", i, c.logStr(i))
		}
	}
	if got := c.members[1].Sequencer(); got != "m1" {
		t.Fatalf("sequencer after takeover = %q, want m1", got)
	}
}

func TestTakeoverPreservesCommittedMessages(t *testing.T) {
	s := sim.New(5)
	c := newCluster(t, s, 3)
	s.Go(func() {
		for i := 0; i < 5; i++ {
			c.members[0].Broadcast([]byte(fmt.Sprintf("w%d", i)))
		}
		c.net.SetDown("m0", true)
		c.members[0].Stop()
		s.Sleep(time.Second)
		c.members[2].Broadcast([]byte("after"))
	})
	c.run(10 * time.Second)
	want := "w0,w1,w2,w3,w4,after"
	for _, i := range []int{1, 2} {
		if c.logStr(i) != want {
			t.Fatalf("member %d delivered %q, want %q", i, c.logStr(i), want)
		}
	}
}

func TestDeliveredMonotonic(t *testing.T) {
	s := sim.New(1)
	c := newCluster(t, s, 2)
	s.Go(func() {
		for i := 0; i < 10; i++ {
			c.members[0].Broadcast([]byte("x"))
		}
	})
	c.run(3 * time.Second)
	if d := c.members[1].Delivered(); d != 10 {
		t.Fatalf("delivered = %d, want 10", d)
	}
}

func TestSuspectAcceleratesFailover(t *testing.T) {
	s := sim.New(12)
	c := newCluster(t, s, 3)
	s.Go(func() {
		c.members[0].Broadcast([]byte("pre"))
		c.net.SetDown("m0", true)
		c.members[0].Stop()
		// Explicit suspicion instead of waiting for the timeout.
		c.members[1].Suspect("m0")
		c.members[2].Suspect("m0")
		if err := c.members[1].Broadcast([]byte("post")); err != nil {
			t.Errorf("post-suspect broadcast: %v", err)
		}
	})
	c.run(5 * time.Second)
	for _, i := range []int{1, 2} {
		if c.logStr(i) != "pre,post" {
			t.Fatalf("member %d delivered %q", i, c.logStr(i))
		}
	}
	if got := c.members[1].SuspectedPeers(); len(got) != 1 || got[0] != "m0" {
		t.Fatalf("suspected = %v", got)
	}
}

func TestNewValidation(t *testing.T) {
	s := sim.New(1)
	net := rpc.NewSimNet(s, sim.Const(0))
	_, err := New(Config{Self: "x", Peers: []string{"a", "b"}, Deliver: func(uint64, []byte) {}}, s, net.Dialer("x"))
	if err == nil {
		t.Fatal("self not in peers accepted")
	}
	_, err = New(Config{Self: "a", Peers: []string{"a"}}, s, net.Dialer("a"))
	if err == nil {
		t.Fatal("nil Deliver accepted")
	}
}

func TestLossyNetworkStillAgrees(t *testing.T) {
	// 10% message loss on every link: retries, gap detection and
	// heartbeat-driven fetches must still produce identical delivery
	// sequences on every member.
	s := sim.New(21)
	c := newCluster(t, s, 3)
	c.net.DefaultDrop = 0.10
	const writes = 15
	s.Go(func() {
		for i := 0; i < writes; i++ {
			// Broadcast can fail outright under loss (no reachable
			// sequencer view); retry like a master would.
			for try := 0; try < 5; try++ {
				if err := c.members[i%3].Broadcast([]byte(fmt.Sprintf("w%02d", i))); err == nil {
					break
				}
				if s.Sleep(100*time.Millisecond) != nil {
					return
				}
			}
			if s.Sleep(50*time.Millisecond) != nil {
				return
			}
		}
	})
	c.run(2 * time.Minute)
	if c.net.Dropped() == 0 {
		t.Fatal("loss model did not fire; test is vacuous")
	}
	// All members that delivered anything must agree on a common prefix,
	// and everyone must have delivered every committed message by the
	// horizon (heartbeats carry the high-water mark).
	want := c.logStr(0)
	if len(c.logs[0]) < writes-2 {
		t.Fatalf("too few deliveries under 10%% loss: %q", want)
	}
	for i := 1; i < 3; i++ {
		if c.logStr(i) != want {
			t.Fatalf("divergence under loss:\nm0: %s\nm%d: %s", want, i, c.logStr(i))
		}
	}
}

func TestBroadcastDeterministic(t *testing.T) {
	run := func() string {
		s := sim.New(11)
		c := newCluster(t, s, 3)
		for i := 0; i < 3; i++ {
			i := i
			s.Go(func() {
				for j := 0; j < 3; j++ {
					c.members[i].Broadcast([]byte(fmt.Sprintf("%d.%d", i, j)))
				}
			})
		}
		c.run(3 * time.Second)
		return c.logStr(0)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic:\n%s\n%s", a, b)
	}
}

func TestTruncateBelowGatedByPeerDelivery(t *testing.T) {
	s := sim.New(9)
	c := newCluster(t, s, 3)
	s.Go(func() {
		for i := 0; i < 10; i++ {
			if err := c.members[0].Broadcast([]byte(fmt.Sprintf("w%d", i))); err != nil {
				t.Errorf("broadcast %d: %v", i, err)
				return
			}
		}
		// Before any heartbeat round trip the stability floor is 0:
		// truncation must be a no-op however high the requested floor.
		c.members[0].TruncateBelow(100)
		if got := c.members[0].ArchiveLen(); got != 10 {
			t.Errorf("truncated before stability known: %d entries left", got)
		}
		// After heartbeats circulate, every live member has reported
		// delivering all 10, so the full truncation goes through.
		s.Sleep(500 * time.Millisecond)
		c.members[0].TruncateBelow(100)
		if got := c.members[0].ArchiveLen(); got != 0 {
			t.Errorf("sequencer archive not truncated: %d entries left", got)
		}
		// Non-sequencer members learn the floor from Hello frames.
		c.members[1].TruncateBelow(100)
		if got := c.members[1].ArchiveLen(); got != 0 {
			t.Errorf("member archive not truncated: %d entries left", got)
		}
		s.Stop()
	})
	c.run(time.Hour)
	if fl := c.members[0].Truncated(); fl == 0 {
		t.Fatal("truncation floor never advanced")
	}
}

func TestTruncatedEntriesNotRearchived(t *testing.T) {
	s := sim.New(11)
	c := newCluster(t, s, 2)
	s.Go(func() {
		for i := 0; i < 5; i++ {
			if err := c.members[0].Broadcast([]byte(fmt.Sprintf("w%d", i))); err != nil {
				t.Errorf("broadcast %d: %v", i, err)
				return
			}
		}
		s.Sleep(500 * time.Millisecond)
		c.members[0].TruncateBelow(4)
		if got := c.members[0].ArchiveLen(); got != 2 {
			t.Errorf("archive has %d entries, want 2 (seqs 4,5)", got)
		}
		if c.members[0].ArchiveBytes() == 0 {
			t.Error("archive bytes should be nonzero while entries remain")
		}
		s.Stop()
	})
	c.run(time.Hour)
}
