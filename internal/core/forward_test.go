package core

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/wire"
)

// replyPledgeBytes cuts the pledge out of an s.read reply without the
// decoder under test: payload ‖ pledge ‖ one XLie byte.
func replyPledgeBytes(t *testing.T, reply []byte) []byte {
	t.Helper()
	r := wire.NewReader(reply)
	r.BytesView()
	if r.Err() != nil || r.Remaining() < 2 {
		t.Fatalf("malformed s.read reply of %d bytes", len(reply))
	}
	return bytes.Clone(reply[len(reply)-r.Remaining() : len(reply)-1])
}

// pledgeTap sits in front of a cluster's slaves, auditor and masters and
// keeps the pledge bytes each one sent or was sent.
type pledgeTap struct {
	t        *testing.T
	sent     [][]byte // by slaves, one per s.read reply, in order
	audited  [][]byte // to the auditor, a.pledge bodies and a.pledgemulti elements, in order
	reported [][]byte // to masters, the pledge field of m.report
}

func tapPledges(t *testing.T, c *testCluster) *pledgeTap {
	tap := &pledgeTap{t: t}
	for i, sl := range c.slaves {
		c.net.Register(sl.cfg.Addr, tap.wrap(c.slaves[i].Handle))
	}
	for i, m := range c.masters {
		c.net.Register(m.cfg.Addr, tap.wrap(c.masters[i].Handle))
	}
	c.net.Register("auditor", tap.wrap(c.auditor.Handle))
	return tap
}

func (tap *pledgeTap) wrap(h rpc.Handler) rpc.Handler {
	return func(from, method string, body []byte) ([]byte, error) {
		switch method {
		case MethodPledge:
			tap.audited = append(tap.audited, bytes.Clone(body))
		case MethodPledgeMulti:
			r := wire.NewReader(body)
			tap.audited = append(tap.audited, r.BytesSlice()...)
		case MethodReport:
			tap.reported = append(tap.reported, wire.NewReader(body).Bytes())
		}
		resp, err := h(from, method, body)
		if method == MethodRead && err == nil {
			tap.sent = append(tap.sent, replyPledgeBytes(tap.t, resp))
		}
		return resp, err
	}
}

// What the client hands the auditor and the master is the pledge in the
// bytes the slave sent it in — for an honest read, an accepted lie, a lie
// caught by the double-check, and a wave from K slaves.
func TestClientForwardsPledgeVerbatim(t *testing.T) {
	for _, tc := range []struct {
		name        string
		liar        bool
		doubleCheck bool
		kSlaves     int
	}{
		{name: "honest"},
		{name: "lie accepted", liar: true},
		{name: "lie reported", liar: true, doubleCheck: true},
		{name: "k slaves", kSlaves: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(24)
			o := defaultOpts()
			o.nMasters = 1
			o.slavesPerM = 3
			o.params.DoubleCheckP = 0
			if tc.liar {
				o.slaveBehaviors = map[int]Behavior{0: AlwaysLie{}, 1: AlwaysLie{}, 2: AlwaysLie{}}
			}
			c := newTestCluster(t, s, o)
			tap := tapPledges(t, c)
			cl := c.addClient(t, 0, func(cc *ClientConfig) {
				cc.KSlaves = tc.kSlaves
				cc.ForceDoubleCheck = tc.doubleCheck
				cc.Params.MaxReadRetries = 0
			})
			s.Go(func() {
				s.Sleep(c.warmup())
				if err := cl.Setup(); err != nil {
					t.Errorf("setup: %v", err)
					return
				}
				_, err := cl.Read(mustQuery(t, "catalog/001"))
				if (err != nil) != tc.doubleCheck {
					t.Errorf("read: %v", err)
				}
			})
			s.RunUntil(sim.Epoch.Add(30 * time.Second))

			if want := max(tc.kSlaves, 1); len(tap.sent) != want {
				t.Fatalf("%d s.read replies, want %d", len(tap.sent), want)
			}
			forwarded, where := tap.audited, "the auditor"
			if tc.doubleCheck {
				forwarded, where = tap.reported, "the master"
			}
			if !slices.EqualFunc(forwarded, tap.sent, bytes.Equal) {
				t.Fatalf("%s got %d pledges that are not, byte for byte and in order, the %d the slaves sent", where, len(forwarded), len(tap.sent))
			}
			if tc.liar && cl.Stats().LiesAccepted == 0 && !tc.doubleCheck {
				t.Fatal("the lying case did not exercise a lie")
			}
		})
	}
}

// The same through one scripted slave that frames its pledge in a way no
// encoder here would — a two-byte varint for the query's length — so that
// forwarding a re-encoding would show; and a reply whose pledge has a byte
// too many or too few is refused before anything is forwarded.
func TestClientForwardsPledgeVerbatimFraming(t *testing.T) {
	for _, tc := range []struct {
		name    string
		reframe func(reply []byte, pledgeAt int) []byte
		accept  bool
	}{
		{"non-canonical length", func(b []byte, at int) []byte {
			return slices.Replace(b, at, at+1, b[at]|0x80, 0x00)
		}, true},
		{"trailing byte", func(b []byte, at int) []byte { return slices.Insert(b, len(b)-1, 0x00) }, false},
		{"truncated", func(b []byte, at int) []byte { return slices.Delete(b, len(b)-2, len(b)-1) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newClientRig(t)
			var sent []byte
			r.mutateBody = func(b []byte) []byte {
				b = tc.reframe(b, len(b)-1-len(replyPledgeBytes(t, b)))
				sent = replyPledgeBytes(t, b)
				return b
			}
			var forwarded [][]byte
			r.net.Register("auditor", func(from, method string, body []byte) ([]byte, error) {
				forwarded = append(forwarded, bytes.Clone(body))
				return nil, nil
			})
			_, err := r.readOnce(t)
			if !tc.accept {
				if err == nil {
					t.Fatal("misframed reply accepted")
				}
				if len(forwarded) != 0 || r.client.Stats().PledgesSent != 0 {
					t.Fatalf("%d pledges forwarded from a reply that does not decode", len(forwarded))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			p, err := decodePledgeFrame(sent)
			if err != nil || bytes.Equal(EncodePledge(p), sent) {
				t.Fatalf("the reframed pledge must decode (%v) and differ from its re-encoding", err)
			}
			if len(forwarded) != 1 || !bytes.Equal(forwarded[0], sent) {
				t.Fatal("the auditor did not get the pledge in the bytes the slave sent")
			}
		})
	}
}

// Decoding a reply by view allocates nothing: the reader stays on the
// stack and every field is a view.
func TestDecodeReadReplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	r := newClientRig(t)
	var body []byte
	r.mutateBody = func(b []byte) []byte { body = b; return b }
	if _, err := r.readOnce(t); err != nil {
		t.Fatal(err)
	}
	var rr ReadReply
	var err error
	if got := testing.AllocsPerRun(200, func() { rr, err = DecodeReadReply(body) }); got != 0 {
		t.Errorf("DecodeReadReply: %.1f allocs, want 0", got)
	}
	if err != nil || !bytes.Equal(rr.pledgeBytes, replyPledgeBytes(t, body)) {
		t.Fatalf("decode: %v", err)
	}
	if cap(rr.Payload) != len(rr.Payload) || cap(rr.pledgeBytes) != len(rr.pledgeBytes) {
		t.Fatal("views into the reply are not clipped")
	}
}
