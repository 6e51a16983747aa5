package broadcast

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/wire"
)

type cluster struct {
	t       *testing.T
	s       *sim.Sim
	net     *rpc.SimNet
	hooks   hooks
	peers   []string
	members []*Member
	logs    [][]string // delivered messages per member
	locals  [][]string // per member, msg=local for each delivery that came with a local
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
	c := &cluster{t: t, s: s, net: net, hooks: h, logs: make([][]string, n), locals: make([][]string, n), members: make([]*Member, n)}
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
	c.logs[i], c.locals[i] = nil, nil
	cfg := Config{
		Self:  c.peers[i],
		Peers: c.peers,
		Deliver: func(seq uint64, msg []byte, local any) {
			if c.hooks.deliver != nil && !c.hooks.deliver(i, seq, msg) {
				return
			}
			c.logs[i] = append(c.logs[i], string(msg))
			if local != nil {
				c.locals[i] = append(c.locals[i], fmt.Sprintf("%s=%v", msg, local))
			}
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
		if err := c.members[0].Broadcast([]byte("w1"), nil); err != nil {
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
		if err := c.members[2].Broadcast([]byte("from-2"), nil); err != nil {
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
				if err := c.members[i].Broadcast([]byte(msg), nil); err != nil {
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
		c.members[0].Broadcast([]byte("a"), nil)
		c.net.SetDown("m2", true) // m2 misses the next writes
		c.members[0].Broadcast([]byte("b"), nil)
		c.members[0].Broadcast([]byte("c"), nil)
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
		if err := c.members[1].Broadcast([]byte("pre"), nil); err != nil {
			t.Errorf("pre: %v", err)
		}
		// Kill the sequencer (m0).
		c.net.SetDown("m0", true)
		c.members[0].Stop()
		s.Sleep(time.Second) // allow failure detection
		if err := c.members[1].Broadcast([]byte("post"), nil); err != nil {
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
			c.members[0].Broadcast([]byte(fmt.Sprintf("w%d", i)), nil)
		}
		c.net.SetDown("m0", true)
		c.members[0].Stop()
		s.Sleep(time.Second)
		c.members[2].Broadcast([]byte("after"), nil)
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
			c.members[0].Broadcast([]byte("x"), nil)
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
		c.members[0].Broadcast([]byte("pre"), nil)
		c.net.SetDown("m0", true)
		c.members[0].Stop()
		// Explicit suspicion instead of waiting for the timeout.
		c.members[1].Suspect("m0")
		c.members[2].Suspect("m0")
		if err := c.members[1].Broadcast([]byte("post"), nil); err != nil {
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
	_, err := New(Config{Self: "x", Peers: []string{"a", "b"}, Deliver: func(uint64, []byte, any) {}}, s, net.Dialer("x"))
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
				if err := c.members[i%3].Broadcast([]byte(fmt.Sprintf("w%02d", i)), nil); err == nil {
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
					c.members[i].Broadcast([]byte(fmt.Sprintf("%d.%d", i, j)), nil)
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
			if err := c.members[0].Broadcast([]byte(fmt.Sprintf("w%d", i)), nil); err != nil {
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
			if err := c.members[0].Broadcast([]byte(fmt.Sprintf("w%d", i)), nil); err != nil {
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

// TestFetchUnboundedRangeAnswersHeldEntries asks a member for b.fetch's
// widest range, [1, 2^64-1], after a forged b.commit has parked an entry
// at slot 2^62: the answer must come at once and carry exactly the
// entries the log holds, in slot order. Walking the named slots one by
// one, under the member's lock, would never end.
func TestFetchUnboundedRangeAnswersHeldEntries(t *testing.T) {
	s := sim.New(1)
	c := newCluster(t, s, 3)
	s.Go(func() {
		for _, msg := range []string{"a", "b", "c"} {
			if err := c.members[0].Broadcast([]byte(msg), nil); err != nil {
				t.Errorf("broadcast %s: %v", msg, err)
			}
		}
	})
	c.run(2 * time.Second)
	const far = 1 << 62
	forged := wire.NewWriter(32)
	forged.Uvarint(0)   // view
	forged.Uvarint(far) // slot
	forged.Uvarint(0)   // closed
	entry{id: submitID{origin: 2, n: 9}, msg: []byte("far")}.encode(forged)
	if _, err := c.members[1].Handle("m0", MethodCommit, forged.Bytes()); err != nil {
		t.Fatal(err)
	}

	req := wire.NewWriter(24)
	req.Uvarint(1)
	req.Uvarint(math.MaxUint64)
	reply := make(chan []byte, 1)
	go func() {
		body, _ := c.members[1].Handle("m2", MethodFetch, req.Bytes())
		reply <- body
	}()
	var body []byte
	select {
	case body = <-reply:
	case <-time.After(5 * time.Second):
		t.Fatal("b.fetch of [1, 2^64-1] still running after 5 s")
	}
	r := wire.NewReader(body)
	var got []string
	for n := r.Uvarint(); n > 0 && r.Err() == nil; n-- {
		seq := r.Uvarint()
		got = append(got, fmt.Sprintf("%d:%s", seq, decodeEntry(r).msg))
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	want := []string{"1:a", "2:b", "3:c", fmt.Sprintf("%d:far", uint64(far))}
	if strings.Join(got, ",") != strings.Join(want, ",") || c.members[1].ArchiveLen() != len(want) {
		t.Fatalf("fetch answered %v with %d entries held, want %v", got, c.members[1].ArchiveLen(), want)
	}
}

// TestBroadcastLocalOnce: the local a Broadcast is handed reaches Deliver
// on its own member, with its message, or comes back as the Broadcast's
// error — never both, never twice, and never on another member — whether
// the message is delivered before the last try fails (the member is then
// stopped), delivered after it, or not at all. An identity a forged
// submit predicted is never issued, so the Broadcast after it does not
// come back as a replay of the forged slot.
func TestBroadcastLocalOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		// submit stands in for member 1's b.submit tries (try counts
		// from 0); nil sends them.
		submit  func(c *cluster, d rpc.Dialer, try int, body []byte) error
		forge   bool // a forged submit takes member 1's next identity first
		wantErr bool
		logs    string // what member 1 delivers
		locals  string // which of member 1's deliveries come with a local
	}{
		{name: "delivered", logs: "own", locals: "own=L"},
		{name: "refused", wantErr: true, submit: func(c *cluster, _ rpc.Dialer, _ int, _ []byte) error {
			c.members[1].Stop()
			return rpc.ErrUnreachable
		}},
		{name: "delivered, then stopped", logs: "own", locals: "own=L", submit: func(c *cluster, d rpc.Dialer, try int, body []byte) error {
			if try == 0 {
				d.CallTimeout("m0", MethodSubmit, body, time.Second)
				c.s.Sleep(50 * time.Millisecond) // member 1 delivers the slot
				c.members[1].Stop()
			}
			return rpc.ErrUnreachable // the reply is lost
		}},
		{name: "refused, then delivered", wantErr: true, logs: "own", submit: func(c *cluster, d rpc.Dialer, try int, body []byte) error {
			if try == 0 {
				c.members[1].Stop()
				c.s.Spawn(func() {
					c.s.Sleep(200 * time.Millisecond) // a try that was slow, not lost
					d.CallTimeout("m0", MethodSubmit, body, time.Second)
				})
			}
			return rpc.ErrUnreachable
		}},
		{name: "after a predicted identity", forge: true, logs: "forged,own", locals: "own=L"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(9)
			var c *cluster
			c = newClusterWith(t, s, 3, hooks{dialer: func(i int, d rpc.Dialer) rpc.Dialer {
				if i != 1 || tc.submit == nil {
					return d
				}
				return &submitTap{Dialer: d, submit: func(try int, body []byte) error { return tc.submit(c, d, try, body) }}
			}})
			var err error
			s.Go(func() {
				if tc.forge {
					w := wire.NewWriter(16)
					entry{id: submitID{origin: 1, n: c.members[1].nextSubmit}, msg: []byte("forged")}.encode(w)
					c.net.Dialer("forger").CallTimeout("m0", MethodSubmit, w.Bytes(), 0)
					s.Sleep(100 * time.Millisecond)
				}
				err = c.members[1].Broadcast([]byte("own"), "L")
			})
			c.run(2 * time.Second)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Broadcast returned %v, want an error: %v", err, tc.wantErr)
			}
			if got := c.logStr(1); got != tc.logs {
				t.Errorf("member 1 delivered %q, want %q", got, tc.logs)
			}
			for i := range c.members {
				want := ""
				if i == 1 {
					want = tc.locals
				}
				if got := strings.Join(c.locals[i], ","); got != want {
					t.Errorf("member %d delivered locals %q, want %q", i, got, want)
				}
			}
		})
	}
}

// submitTap hands a member's b.submit calls to submit, counting them.
type submitTap struct {
	rpc.Dialer
	submit func(try int, body []byte) error
	tries  int
}

func (d *submitTap) CallTimeout(addr, method string, body []byte, timeout time.Duration) ([]byte, error) {
	if method == MethodSubmit {
		d.tries++
		return nil, d.submit(d.tries-1, body)
	}
	return d.Dialer.CallTimeout(addr, method, body, timeout)
}
