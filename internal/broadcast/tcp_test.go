package broadcast

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestTCPGapRepairFetchesFromSequencer runs three members over loopback
// TCP, loses member 2's first commit, and requires the next commit to
// repair the gap through b.fetch. Over TCP the RPC's from is the caller's
// ephemeral source port, so a fetch addressed to it can never connect:
// the repair has to go to the sequencer's listening address, Peers[view].
// No member is started, so heartbeats cannot close the gap instead.
func TestTCPGapRepairFetchesFromSequencer(t *testing.T) {
	const n = 3
	var (
		members [n]atomic.Pointer[Member]
		peers   [n]string
		mu      sync.Mutex
		logs    [n][]string
		dropped atomic.Bool
		fetches atomic.Int64
	)
	for i := 0; i < n; i++ {
		i := i
		srv, err := rpc.ListenTCP("127.0.0.1:0", func(from, method string, body []byte) ([]byte, error) {
			m := members[i].Load()
			if m == nil {
				return nil, errors.New("member not up yet")
			}
			if i == 2 && method == MethodCommit && dropped.CompareAndSwap(false, true) {
				return nil, errors.New("commit lost") // a remote error: the sender moves on
			}
			if i == 0 && method == MethodFetch {
				fetches.Add(1)
			}
			return m.Handle(from, method, body)
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		peers[i] = srv.Addr()
	}
	for i := 0; i < n; i++ {
		i := i
		d := rpc.NewTCPDialer()
		defer d.Close()
		m, err := New(Config{
			Self:  peers[i],
			Peers: peers[:],
			Deliver: func(seq uint64, msg []byte) {
				mu.Lock()
				logs[i] = append(logs[i], string(msg))
				mu.Unlock()
			},
			CallTimeout: 2 * time.Second,
		}, sim.RealClock{}, d)
		if err != nil {
			t.Fatal(err)
		}
		members[i].Store(m)
	}

	for _, msg := range []string{"w1", "w2"} {
		if err := members[1].Load().Broadcast([]byte(msg)); err != nil {
			t.Fatalf("broadcast %s: %v", msg, err)
		}
	}
	// sequence() returns once every peer has answered its commit, and
	// member 2 answers the second one only after its gap repair.
	mu.Lock()
	defer mu.Unlock()
	for i := range logs {
		if got := strings.Join(logs[i], ","); got != "w1,w2" {
			t.Errorf("member %d delivered %q, want w1,w2", i, got)
		}
	}
	if !dropped.Load() || fetches.Load() == 0 {
		t.Errorf("commit dropped: %v, b.fetch calls served by the sequencer: %d", dropped.Load(), fetches.Load())
	}
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
		commit.Bytes_([]byte("evil"))
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
