package broadcast

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The commit round: exactly-once submit, receipt acknowledgement, and the
// order of the sequencer's own delivery. Virtual time throughout; the
// loopback-TCP counterparts are in tcp_test.go.

// wantLogs requires every listed member to have delivered exactly want.
func (c *cluster) wantLogs(want string, members ...int) {
	c.t.Helper()
	for _, i := range members {
		if got := c.logStr(i); got != want {
			c.t.Errorf("member %d delivered %q, want %q", i, got, want)
		}
	}
}

// countCalls wraps every member's handler to count the calls of one
// method that reach it.
func countCalls(method string, n *int) func(int, rpc.Handler) rpc.Handler {
	return func(_ int, h rpc.Handler) rpc.Handler {
		return func(from, m string, body []byte) ([]byte, error) {
			if m == method {
				*n++
			}
			return h(from, m, body)
		}
	}
}

// TestSubmitReplyLostSequencedOnce loses only the reply of a b.submit:
// the sequencer has sequenced and replicated the message, the origin
// times out and submits it again. The retry must be answered from the
// slot the first try got, not given a second one.
func TestSubmitReplyLostSequencedOnce(t *testing.T) {
	s := sim.New(1)
	var c *cluster
	lose := true
	c = newClusterWith(t, s, 3, hooks{handler: func(i int, h rpc.Handler) rpc.Handler {
		if i != 0 {
			return h
		}
		return func(from, method string, body []byte) ([]byte, error) {
			out, err := h(from, method, body)
			if method == MethodSubmit && lose {
				// SimNet samples the reply's loss as the handler returns:
				// cut the link for that one message only.
				lose = false
				c.net.SetDrop("m0", "m1", 1)
				s.Call(0, func() { c.net.SetDrop("m0", "m1", 0) })
			}
			return out, err
		}
	}})
	s.Go(func() {
		for _, msg := range []string{"w1", "w2"} {
			if err := c.members[1].Broadcast([]byte(msg)); err != nil {
				t.Errorf("broadcast %s: %v", msg, err)
			}
		}
	})
	c.run(2 * time.Second)
	if lose || c.net.Dropped() != 1 {
		t.Fatalf("fault did not fire as planned: armed %v, dropped %d", lose, c.net.Dropped())
	}
	c.wantLogs("w1,w2", 0, 1, 2)
}

// TestSubmitDelayedPastTimeoutSequencedOnce delays one b.submit beyond
// CallTimeout without losing it: the retry overtakes it, and the late
// original arrives at a sequencer that has already given the message a
// slot.
func TestSubmitDelayedPastTimeoutSequencedOnce(t *testing.T) {
	s := sim.New(1)
	c := newCluster(t, s, 3)
	s.Go(func() {
		// The link latency is sampled when a call starts: slow for the
		// first try, back to normal before the retry leaves at 50 ms.
		c.net.SetLink("m1", "m0", sim.Const(70*time.Millisecond))
		s.GoAfter(10*time.Millisecond, func() { c.net.SetLink("m1", "m0", sim.Const(2*time.Millisecond)) })
		for _, msg := range []string{"w1", "w2"} {
			if err := c.members[1].Broadcast([]byte(msg)); err != nil {
				t.Errorf("broadcast %s: %v", msg, err)
			}
		}
	})
	c.run(2 * time.Second)
	c.wantLogs("w1,w2", 0, 1, 2)
}

// TestSubmitRetriedAcrossViewChangeSequencedOnce: the sequencer gives the
// message a slot and replicates it, but no reply gets back to the origin,
// which runs out of tries, takes over as sequencer and submits the same
// message to itself. The takeover's fetch brought the entry, identity
// included, so the new sequencer recognises it.
func TestSubmitRetriedAcrossViewChangeSequencedOnce(t *testing.T) {
	s := sim.New(1)
	c := newCluster(t, s, 3)
	s.Go(func() {
		c.net.SetDrop("m0", "m1", 1) // m0's replies, and its b.commit, never reach m1
		if err := c.members[1].Broadcast([]byte("w1")); err != nil {
			t.Errorf("broadcast w1: %v", err)
		}
		if got := c.members[1].Sequencer(); got != "m1" {
			t.Errorf("origin did not take over: sequencer %q", got)
		}
		c.net.SetDrop("m0", "m1", 0)
		if err := c.members[2].Broadcast([]byte("w2")); err != nil {
			t.Errorf("broadcast w2: %v", err)
		}
	})
	c.run(5 * time.Second)
	c.wantLogs("w1,w2", 0, 1, 2)
}

// TestBlockedPeerDeliverDelaysNobody: a peer acknowledges b.commit when
// it holds the entry, not when it has applied it, so a peer stuck inside
// Deliver holds up neither Broadcast nor the other members — and when it
// comes unstuck it delivers what piled up, in order.
func TestBlockedPeerDeliverDelaysNobody(t *testing.T) {
	s := sim.New(1)
	gate := s.NewPromise()
	c := newClusterWith(t, s, 3, hooks{deliver: func(i int, seq uint64, _ []byte) bool {
		if i == 2 && seq == 1 {
			gate.Future().Await()
		}
		return true
	}})
	s.Go(func() {
		for _, msg := range []string{"a", "b", "c"} {
			if err := c.members[0].Broadcast([]byte(msg)); err != nil {
				t.Errorf("broadcast %s: %v", msg, err)
			}
		}
		// Three rounds of one 2 ms + 2 ms round trip each.
		if took := s.Now().Sub(sim.Epoch); took > 15*time.Millisecond {
			t.Errorf("three broadcasts took %v with one peer blocked in Deliver", took)
		}
		s.Sleep(5 * time.Millisecond)
		c.wantLogs("a,b,c", 0, 1)
		c.wantLogs("", 2)
		if got := c.members[0].SuspectedPeers(); len(got) != 0 {
			t.Errorf("blocked peer was suspected: %v", got)
		}
		gate.Resolve(nil)
	})
	c.run(time.Second)
	c.wantLogs("a,b,c", 0, 1, 2)
}

// TestSequencerDeliversAfterEveryReceipt records, through the
// sequencer's dialer, when each peer's b.commit acknowledgement for a
// slot comes back, and requires the sequencer's own Deliver of that slot
// to come after all of them — with a slow peer and overlapping rounds, so
// a later slot's round closes while an earlier one is still open.
func TestSequencerDeliversAfterEveryReceipt(t *testing.T) {
	s := sim.New(4)
	var events []string
	c := newClusterWith(t, s, 3, hooks{
		dialer: func(i int, d rpc.Dialer) rpc.Dialer {
			if i != 0 {
				return d
			}
			return ackRecorder{Dialer: d, events: &events}
		},
		deliver: func(i int, seq uint64, _ []byte) bool {
			if i == 0 {
				events = append(events, fmt.Sprintf("deliver %d", seq))
			}
			return true
		},
	})
	c.net.SetLink("m0", "m2", sim.Uniform{Min: time.Millisecond, Max: 12 * time.Millisecond})
	const callers, per = 3, 6
	for k := 0; k < callers; k++ {
		s.Go(func() {
			for j := 0; j < per; j++ {
				if err := c.members[0].Broadcast([]byte(fmt.Sprintf("%d.%d", k, j))); err != nil {
					t.Errorf("broadcast: %v", err)
				}
			}
		})
	}
	c.run(2 * time.Second)
	if len(c.logs[0]) != callers*per {
		t.Fatalf("sequencer delivered %d of %d", len(c.logs[0]), callers*per)
	}
	acks := map[string]int{}
	overlapped := false
	for _, ev := range events {
		var seq uint64
		if _, err := fmt.Sscanf(ev, "deliver %d", &seq); err != nil {
			acks[ev]++
			continue
		}
		if got := acks[fmt.Sprintf("ack %d", seq)]; got != 2 {
			t.Errorf("sequencer delivered slot %d after %d of 2 receipts", seq, got)
		}
		if acks[fmt.Sprintf("ack %d", seq+1)] == 2 {
			overlapped = true
		}
	}
	if !overlapped {
		t.Error("no slot closed its round before its predecessor was delivered: the rounds never overlapped")
	}
	if t.Failed() {
		t.Logf("events at the sequencer:\n%s", strings.Join(events, "\n"))
	}
	c.wantLogs(c.logStr(0), 1, 2)
}

// ackRecorder notes every b.commit call that returned without error.
type ackRecorder struct {
	rpc.Dialer
	events *[]string
}

func (a ackRecorder) CallTimeout(addr, method string, body []byte, d time.Duration) ([]byte, error) {
	out, err := a.Dialer.CallTimeout(addr, method, body, d)
	if method == MethodCommit && err == nil {
		r := wire.NewReader(body)
		r.Uvarint() // view
		*a.events = append(*a.events, fmt.Sprintf("ack %d", r.Uvarint()))
	}
	return out, err
}

// TestSequencerCrashBetweenReceiptsAndDelivery kills the sequencer at the
// one point the ordering rule is about: every peer has acknowledged the
// slot and the sequencer has not applied it. The peers hold the slot, so
// the successor carries on above it, and the old sequencer — back with
// nothing — fetches it like any other entry.
func TestSequencerCrashBetweenReceiptsAndDelivery(t *testing.T) {
	s := sim.New(1)
	var c *cluster
	crashed := false
	c = newClusterWith(t, s, 3, hooks{deliver: func(i int, seq uint64, _ []byte) bool {
		if i == 0 && seq == 2 && !crashed {
			// Deliver(2) on the sequencer means both receipts are in
			// (TestSequencerDeliversAfterEveryReceipt); die before applying.
			crashed = true
			c.crash(0)
			return false
		}
		return true
	}})
	s.Go(func() {
		c.members[0].Broadcast([]byte("a"))
		c.members[0].Broadcast([]byte("b"))
		s.Sleep(time.Second) // failure detection, takeover by m1
		if err := c.members[2].Broadcast([]byte("c")); err != nil {
			t.Errorf("broadcast after the crash: %v", err)
		}
		c.wantLogs("a,b,c", 1, 2)
		c.wantLogs("a", 0)
		c.restart(0)
	})
	c.run(5 * time.Second)
	if !crashed {
		t.Fatal("the sequencer never reached slot 2")
	}
	if got := c.members[1].Sequencer(); got != "m1" {
		t.Fatalf("sequencer after the crash = %q, want m1", got)
	}
	c.wantLogs("a,b,c", 0, 1, 2)
}

// TestPeerCrashBetweenReceiptAndApply: a peer acknowledges a slot and
// dies before applying it. The acknowledgement promised only that it held
// the entry; restarted with an empty log, it learns the closed mark from
// the next heartbeat and fetches.
func TestPeerCrashBetweenReceiptAndApply(t *testing.T) {
	s := sim.New(1)
	var c *cluster
	crashed, fetches := false, 0
	c = newClusterWith(t, s, 3, hooks{
		deliver: func(i int, seq uint64, _ []byte) bool {
			if i == 2 && seq == 2 && !crashed {
				crashed = true
				c.crash(2)
				return false
			}
			return true
		},
		handler: countCalls(MethodFetch, &fetches),
	})
	s.Go(func() {
		for _, msg := range []string{"a", "b"} {
			if err := c.members[0].Broadcast([]byte(msg)); err != nil {
				t.Errorf("broadcast %s: %v", msg, err)
			}
		}
		s.Sleep(20 * time.Millisecond)
		c.wantLogs("a,b", 0, 1)
		c.wantLogs("a", 2)
		c.restart(2)
	})
	c.run(2 * time.Second)
	if !crashed || fetches == 0 {
		t.Fatalf("peer crashed: %v, b.fetch calls served: %d", crashed, fetches)
	}
	c.wantLogs("a,b", 0, 1, 2)
}

// TestOvertakenSlotWaitsWithoutFetch puts slot 2 on the wire ahead of
// slot 1. A member that receives them in that order must not ask for
// slot 1 — its round is still open, it is on its way — and delivers both
// in slot order when it lands.
func TestOvertakenSlotWaitsWithoutFetch(t *testing.T) {
	s := sim.New(1)
	fetches := 0
	var m2 []string // when member 2 delivered what
	c := newClusterWith(t, s, 3, hooks{
		handler: countCalls(MethodFetch, &fetches),
		deliver: func(i int, _ uint64, msg []byte) bool {
			if i == 2 {
				m2 = append(m2, fmt.Sprintf("%s@%v", msg, s.Now().Sub(sim.Epoch)))
			}
			return true
		},
	})
	s.Go(func() {
		c.net.SetLink("m0", "m2", sim.Const(20*time.Millisecond)) // slot 1's commit crawls
		s.Go(func() { c.members[0].Broadcast([]byte("a")) })
		s.Sleep(time.Millisecond)
		c.net.SetLink("m0", "m2", sim.Const(2*time.Millisecond)) // slot 2's overtakes it
		if err := c.members[0].Broadcast([]byte("b")); err != nil {
			t.Errorf("broadcast b: %v", err)
		}
		if d := c.members[2].Delivered(); d != 0 {
			t.Errorf("member 2 delivered up to slot %d while slot 1 was still on the wire", d)
		}
	})
	c.run(80 * time.Millisecond) // before the first heartbeat
	c.wantLogs("a,b", 0, 1, 2)
	if want := "a@20ms,b@20ms"; strings.Join(m2, ",") != want {
		t.Errorf("member 2 delivered %v, want %s", m2, want)
	}
	if fetches != 0 {
		t.Errorf("%d b.fetch calls for a slot that was merely overtaken", fetches)
	}
}
