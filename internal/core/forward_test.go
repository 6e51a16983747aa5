package core

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/pki"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/wire"
)

// servedReply is one s.read reply as a slave sent it, decoded, with the key
// of the slave that sent it.
type servedReply struct {
	slave cryptoutil.PublicKey
	reply ReadReply
}

// pledgeTap sits in front of a cluster's slaves, auditor and masters and
// keeps the s.read replies the slaves sent and the evidence frames the
// client sent on.
type pledgeTap struct {
	t        *testing.T
	sent     []servedReply // by slaves, one per s.read reply, in order
	audited  [][]byte      // to the auditor, the evidence frames of a.pledge bodies, in order
	reported [][]byte      // to masters, the pledge field of m.report
}

func tapPledges(t *testing.T, c *testCluster) *pledgeTap {
	tap := &pledgeTap{t: t}
	for i, sl := range c.slaves {
		c.net.Register(sl.cfg.Addr, tap.wrap(sl.cfg.Keys.Public, c.slaves[i].Handle))
	}
	for i, m := range c.masters {
		c.net.Register(m.cfg.Addr, tap.wrap(nil, c.masters[i].Handle))
	}
	c.net.Register("auditor", tap.wrap(nil, c.auditor.Handle))
	return tap
}

func (tap *pledgeTap) wrap(slave cryptoutil.PublicKey, h rpc.Handler) rpc.Handler {
	return func(from, method string, body []byte) ([]byte, error) {
		switch method {
		case MethodPledge:
			tap.audited = append(tap.audited, splitEvidence(tap.t, body)...)
		case MethodReport:
			tap.reported = append(tap.reported, wire.NewReader(body).Bytes())
		}
		resp, err := h(from, method, body)
		if method == MethodRead && err == nil {
			rr, derr := DecodeReadReply(bytes.Clone(resp))
			if derr != nil {
				tap.t.Errorf("slave sent an s.read reply that does not decode: %v", derr)
			}
			tap.sent = append(tap.sent, servedReply{slave: slave, reply: rr})
		}
		return resp, err
	}
}

// splitEvidence cuts an a.pledge body into its evidence frames.
func splitEvidence(t *testing.T, body []byte) [][]byte {
	var frames [][]byte
	r := wire.NewReader(body)
	for r.Remaining() > 0 {
		at := len(body) - r.Remaining()
		if _, err := decodePledge(r); err != nil {
			t.Errorf("a.pledge body does not decode: %v", err)
			return frames
		}
		frames = append(frames, bytes.Clone(body[at:len(body)-r.Remaining()]))
	}
	return frames
}

// checkEvidence holds one forwarded frame to what the slave signed: it
// decodes to the query asked, the hash of the payload the slave sent, the
// version of the stamp beside it, the slave's key and the slave's
// signature; it re-encodes byte for byte, verifies under the slave's key,
// and holds no byte of the master's stamp.
func checkEvidence(t *testing.T, frame, asked []byte, sent servedReply) {
	t.Helper()
	p, err := decodePledgeFrame(frame)
	if err != nil {
		t.Fatalf("forwarded frame does not decode: %v", err)
	}
	stamp := sent.reply.Pledge.Stamp
	if !bytes.Equal(p.QueryBytes, asked) || p.ResultHash != cryptoutil.HashBytes(sent.reply.Payload) ||
		p.Stamp.Version != stamp.Version || !bytes.Equal(p.SlavePub, sent.slave) ||
		!bytes.Equal(p.Sig, sent.reply.Pledge.Sig) {
		t.Fatalf("forwarded pledge is not the statement the slave signed: %+v", p)
	}
	if !bytes.Equal(EncodePledge(p), frame) {
		t.Fatal("forwarded frame is not its own canonical encoding")
	}
	if err := p.VerifySig(); err != nil {
		t.Fatalf("forwarded pledge does not verify under the slave's key: %v", err)
	}
	if bytes.Contains(frame, stamp.Sig) || bytes.Contains(frame, stamp.MasterPub) {
		t.Fatal("forwarded frame carries the master's stamp")
	}
}

// What the client hands the auditor and the master is exactly the signed
// statement — for an honest read, an accepted lie, a lie caught by the
// double-check, and a wave from K slaves.
func TestClientForwardsSignedStatement(t *testing.T) {
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
				if tc.doubleCheck {
					cc.Params.DoubleCheckP = 1
				}
				cc.Params.MaxReadRetries = 0
			})
			q := mustQuery(t, "catalog/001")
			var accepted []byte
			s.Go(func() {
				s.Sleep(c.warmup())
				if err := cl.Setup(); err != nil {
					t.Errorf("setup: %v", err)
					return
				}
				var err error
				accepted, err = cl.Read(q)
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
			if len(forwarded) != len(tap.sent) {
				t.Fatalf("%s got %d pledges for %d replies", where, len(forwarded), len(tap.sent))
			}
			for i, frame := range forwarded {
				checkEvidence(t, frame, query.Encode(q), tap.sent[i])
			}
			if !tc.doubleCheck && !bytes.Equal(accepted, tap.sent[0].reply.Payload) {
				t.Fatal("the accepted payload is not the one the first pledge covers")
			}
			if tc.liar && cl.Stats().LiesAccepted == 0 && !tc.doubleCheck {
				t.Fatal("the lying case did not exercise a lie")
			}
		})
	}
}

// The client decodes the reply it is sent, not the bytes it forwards: a
// reply framed in a way no encoder here would — a two-byte varint for the
// payload's length — is accepted and the auditor still gets the canonical
// evidence frame; a reply with a byte too many or too few is refused
// before anything is forwarded.
func TestClientRefusesMisframedReply(t *testing.T) {
	for _, tc := range []struct {
		name    string
		reframe func(reply []byte) []byte
		accept  bool
	}{
		{"non-canonical length", func(b []byte) []byte {
			return slices.Replace(b, 0, 1, b[0]|0x80, 0x00)
		}, true},
		{"trailing byte", func(b []byte) []byte { return slices.Insert(b, len(b)-1, 0x00) }, false},
		{"truncated", func(b []byte) []byte { return slices.Delete(b, len(b)-2, len(b)-1) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newClientRig(t)
			var honest ReadReply
			r.mutate = func(rr *ReadReply) { honest = *rr }
			r.mutateBody = tc.reframe
			_, err := r.readOnce(t)
			if !tc.accept {
				if err == nil {
					t.Fatal("misframed reply accepted")
				}
				if len(r.forwarded) != 0 || r.client.Stats().PledgesSent != 0 {
					t.Fatalf("%d pledges forwarded from a reply that does not decode", len(r.forwarded))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(r.forwarded) != 1 || !bytes.Equal(r.forwarded[0], EncodePledge(honest.Pledge)) {
				t.Fatal("the auditor did not get the canonical evidence frame")
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
	if err != nil || !bytes.Equal(EncodeReadReply(rr), body) {
		t.Fatalf("decode: %v", err)
	}
	if cap(rr.Payload) != len(rr.Payload) || cap(rr.Pledge.Sig) != len(rr.Pledge.Sig) {
		t.Fatal("views into the reply are not clipped")
	}
}

// TestForgedExclusionIgnored: b.submit takes frames from anyone, so a
// bcExclude that carries a genuine pledge — an honest slave's, taken from
// a client's a.pledge — must still name a certified master that signed
// it. Every master refuses each forged frame, counts the refusal and
// excludes nobody; the row signed by a certified master shows the frame
// shape is the one that acts, and the same frame from a directory that
// lists no certified master is refused as a directory error.
func TestForgedExclusionIgnored(t *testing.T) {
	attacker := cryptoutil.DeriveKeyPair("attacker", 0)
	master0 := cryptoutil.DeriveKeyPair("master", 0)
	frame := func(evidence []byte, origin cryptoutil.PublicKey, sig []byte) []byte {
		return wire.EncodeFrame(func(w *wire.Writer) {
			w.Byte(bcExclude)
			w.Bytes_(evidence)
			w.Bytes_(origin)
			w.Bytes_(sig)
		})
	}
	for _, tc := range []struct {
		name     string
		forge    func(evidence []byte) []byte
		honest   bool // signed by a certified master: the frame acts
		dirEmpty bool // the masters' directory lists no certificate
	}{
		{"the pledge alone after the kind byte", func(ev []byte) []byte {
			return append([]byte{bcExclude}, ev...)
		}, false, false},
		{"signed by an uncertified key", func(ev []byte) []byte {
			return frame(ev, attacker.Public, attacker.Sign(excludeSignedBytes(ev)))
		}, false, false},
		{"a certified master's key under another signature", func(ev []byte) []byte {
			return frame(ev, master0.Public, attacker.Sign(excludeSignedBytes(ev)))
		}, false, false},
		{"a certified master's signature over other evidence", func(ev []byte) []byte {
			other := bytes.Clone(ev)
			other[len(other)-1] ^= 1
			return frame(ev, master0.Public, master0.Sign(excludeSignedBytes(other)))
		}, false, false},
		{"signed by a certified master", func(ev []byte) []byte {
			return frame(ev, master0.Public, master0.Sign(excludeSignedBytes(ev)))
		}, true, false},
		{"signed by a certified master, no certified master listed", func(ev []byte) []byte {
			return frame(ev, master0.Public, master0.Sign(excludeSignedBytes(ev)))
		}, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(31)
			c := newTestCluster(t, s, defaultOpts())
			tap := tapPledges(t, c)
			cl := c.addClient(t, 0, nil)
			s.Go(func() {
				s.Sleep(c.warmup())
				if err := cl.Setup(); err != nil {
					t.Errorf("setup: %v", err)
					return
				}
				if _, err := cl.Read(mustQuery(t, "catalog/001")); err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if tc.dirEmpty {
					for _, m := range c.masters {
						m.cfg.Directory = hostileDirectory{
							BoundDirectory: m.cfg.Directory.(BoundDirectory),
							edit:           func([]pki.Certificate) []pki.Certificate { return nil },
						}
					}
				}
				entry := wire.EncodeFrame(func(w *wire.Writer) {
					w.Uvarint(77) // a submit identity no member uses
					w.Uvarint(1)
					w.Bytes_(tc.forge(tap.audited[0]))
				})
				if _, err := c.net.Dialer("attacker").CallTimeout(c.masters[0].cfg.Addr, "b.submit", entry, time.Second); err != nil {
					t.Errorf("b.submit: %v", err)
				}
			})
			s.RunUntil(sim.Epoch.Add(5 * time.Second))

			if len(tap.audited) != 1 {
				t.Fatalf("%d pledges forwarded, want 1", len(tap.audited))
			}
			victim := tap.sent[0].slave
			excluded, refused, dirErrs := 0, 0, 0
			for _, m := range c.masters {
				st := m.Stats()
				excluded += int(st.Exclusions)
				refused += int(st.ExclusionsRefused)
				dirErrs += int(st.DirectoryErrors)
				m.mu.Lock()
				if m.excluded[string(victim)] != tc.honest {
					t.Errorf("%s: excluded = %v", m.cfg.Addr, !tc.honest)
				}
				m.mu.Unlock()
			}
			wantDirErrs := 0
			if tc.dirEmpty {
				wantDirErrs = len(c.masters)
			}
			if dirErrs != wantDirErrs {
				t.Fatalf("%d directory errors, want %d", dirErrs, wantDirErrs)
			}
			if tc.honest {
				if excluded != 1 || refused != 0 || !c.dir.IsExcluded(c.owner.Public, victim) {
					t.Fatalf("certified frame: %d exclusions, %d refusals", excluded, refused)
				}
				return
			}
			if excluded != 0 || refused != len(c.masters) || c.dir.IsExcluded(c.owner.Public, victim) {
				t.Fatalf("forged frame: %d exclusions, %d refusals over %d masters", excluded, refused, len(c.masters))
			}
		})
	}
}
