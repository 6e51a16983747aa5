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
// keeps the s.read replies the slaves sent, each with its stamp (the last
// one its slave sent whole, when the reply left it out) and the signature
// its slave gave for it (in the reply or through s.sign), and the
// statement and evidence frames the client sent on.
type pledgeTap struct {
	t        *testing.T
	stamps   map[string]VersionStamp // by slave key, the last stamp it sent whole
	sent     []servedReply           // by slaves, one per s.read reply, in order
	signs    int                     // s.sign calls answered
	stated   [][]byte                // to the auditor, the frames of statement a.pledge bodies, in order
	audited  [][]byte                // to the auditor, the frames of evidence a.pledge bodies, in order
	reported [][]byte                // to masters, the pledge field of m.report
}

func tapPledges(t *testing.T, c *testCluster) *pledgeTap {
	tap := &pledgeTap{t: t, stamps: map[string]VersionStamp{}}
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
			if form, frames := splitPledgeBody(tap.t, body); form == pledgeFormStatement {
				tap.stated = append(tap.stated, frames...)
			} else {
				tap.audited = append(tap.audited, frames...)
			}
		case MethodReport:
			tap.reported = append(tap.reported, wire.NewReader(body).Bytes())
		}
		resp, err := h(from, method, body)
		switch {
		case err != nil:
		case method == MethodRead:
			rr, derr := DecodeReadReply(bytes.Clone(resp))
			if derr != nil {
				tap.t.Errorf("slave sent an s.read reply that does not decode: %v", derr)
			}
			if len(rr.Pledge.Stamp.Sig) > 0 {
				tap.stamps[string(slave)] = rr.Pledge.Stamp
			} else {
				rr.Pledge.Stamp = tap.stamps[string(slave)]
			}
			tap.sent = append(tap.sent, servedReply{slave: slave, reply: rr})
		case method == MethodSign:
			tap.signed(slave, body, resp)
		}
		return resp, err
	}
}

// reset forgets everything tapped so far but the stamps.
func (tap *pledgeTap) reset() { *tap = pledgeTap{t: tap.t, stamps: tap.stamps} }

// warmRead is a client's first read through tap: every slave's stamp
// comes whole and signed, at a version newer than any the auditor vouched
// for the client, so its evidence goes to the auditor at once, and no
// slave is asked s.sign. It forgets the read, so the next one is under the
// stamps the client now holds.
func (tap *pledgeTap) warmRead(cl *Client, q query.Query) {
	t := tap.t
	t.Helper()
	if _, err := cl.Read(q); err != nil {
		t.Errorf("first read: %v", err)
		return
	}
	if len(tap.sent) == 0 || len(tap.stated) != 0 || len(tap.audited) != len(tap.sent) || tap.signs != 0 {
		t.Errorf("first read: %d replies, %d statements, %d evidence frames, %d s.sign calls; want the evidence of each reply at once",
			len(tap.sent), len(tap.stated), len(tap.audited), tap.signs)
	}
	for i, sent := range tap.sent {
		if len(sent.reply.Pledge.Stamp.Sig) == 0 || len(sent.reply.Pledge.Sig) == 0 {
			t.Error("a first reply came without its stamp or its signature")
		} else if i < len(tap.audited) {
			checkEvidence(t, tap.audited[i], query.Encode(q), sent, true)
		}
	}
	tap.reset()
}

// signed puts the signature a slave gave through s.sign on the reply it
// signed: the last one from that slave whose payload the statement hashes.
func (tap *pledgeTap) signed(slave cryptoutil.PublicKey, statement, resp []byte) {
	tap.signs++
	p, err := decodeStatement(wire.NewReader(statement))
	if err != nil {
		tap.t.Errorf("s.sign for a statement that does not decode: %v", err)
		return
	}
	for i := len(tap.sent) - 1; i >= 0; i-- {
		if sent := &tap.sent[i]; bytes.Equal(sent.slave, slave) && cryptoutil.HashBytes(sent.reply.Payload) == p.ResultHash {
			sent.reply.Pledge.Sig = wire.NewReader(resp).Bytes()
			return
		}
	}
	tap.t.Error("a slave signed a statement about no reply it sent")
}

// splitPledgeBody cuts an a.pledge body into its form and its frames.
func splitPledgeBody(t *testing.T, body []byte) (form byte, frames [][]byte) {
	r := wire.NewReader(body)
	form = r.Byte()
	for r.Remaining() > 0 {
		at := len(body) - r.Remaining()
		p, err := decodeStatement(r)
		if err == nil && form == pledgeFormEvidence {
			err = decodeStampedEvidence(r, &p)
		}
		if err != nil {
			t.Errorf("a.pledge body does not decode: %v", err)
			return form, frames
		}
		frames = append(frames, bytes.Clone(body[at:len(body)-r.Remaining()]))
	}
	return form, frames
}

// checkStatement holds one forwarded statement frame to what the slave
// signed: it decodes to the query asked, the hash of the payload the
// slave sent and the version of the stamp beside it, re-encodes byte for
// byte, and holds no byte of the slave's key or signature or of the
// master's stamp.
func checkStatement(t *testing.T, frame, asked []byte, sent servedReply) {
	t.Helper()
	r := wire.NewReader(frame)
	p, err := decodeStatement(r)
	if err == nil {
		err = r.Done()
	}
	if err != nil {
		t.Fatalf("forwarded statement does not decode: %v", err)
	}
	stamp := sent.reply.Pledge.Stamp
	if !bytes.Equal(p.QueryBytes, asked) || p.ResultHash != cryptoutil.HashBytes(sent.reply.Payload) ||
		p.Stamp.Version != stamp.Version {
		t.Fatalf("forwarded statement is not the one the slave signed: %+v", p)
	}
	if !bytes.Equal(wire.EncodeFrame(p.appendStatement), frame) {
		t.Fatal("forwarded statement is not its own canonical encoding")
	}
	for _, b := range [][]byte{sent.slave, sent.reply.Pledge.Sig, stamp.Sig, stamp.MasterPub} {
		if len(b) > 0 && bytes.Contains(frame, b) {
			t.Fatal("forwarded statement carries a key or a signature")
		}
	}
}

// checkEvidence holds one forwarded frame to what the slave signed: it
// decodes to the query asked, the hash of the payload the slave sent, the
// version of the stamp beside it, the slave's key and the slave's
// signature; it re-encodes byte for byte and verifies under the slave's
// key. A frame to the auditor (stamped) is followed by exactly the
// master's stamp the slave sent; no other byte of the frame holds any of
// that stamp.
func checkEvidence(t *testing.T, frame, asked []byte, sent servedReply, stamped bool) {
	t.Helper()
	stamp := sent.reply.Pledge.Stamp
	if stamped {
		tail := wire.EncodeFrame(stamp.Encode)
		if !bytes.HasSuffix(frame, tail) {
			t.Fatal("forwarded frame does not end in the stamp the slave sent")
		}
		frame = frame[:len(frame)-len(tail)]
	}
	p, err := decodePledgeFrame(frame)
	if err != nil {
		t.Fatalf("forwarded frame does not decode: %v", err)
	}
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
// double-check, and a wave from K slaves: the statement frames first, and
// the evidence frames when the auditor asks. After a first read (warmRead)
// nobody asks a slave for a signature on an honest read; a lie's is
// fetched through s.sign before its evidence goes to the auditor or the
// master.
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
				tap.warmRead(cl, q)
				if tc.liar {
					for _, sl := range c.slaves {
						sl.SetBehavior(AlwaysLie{})
					}
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
			// The auditor gets every read's statements, and asks for the
			// evidence of a lie only; a lie the double-check caught goes to
			// the master instead.
			forwarded, where, want := tap.audited, "the auditor", 0
			switch {
			case tc.doubleCheck:
				forwarded, where, want = tap.reported, "the master", len(tap.sent)
			case tc.liar:
				want = len(tap.sent)
			}
			if !tc.doubleCheck && len(tap.stated) != len(tap.sent) {
				t.Fatalf("the auditor got %d statements for %d replies", len(tap.stated), len(tap.sent))
			}
			for i, frame := range tap.stated {
				checkStatement(t, frame, query.Encode(q), tap.sent[i])
			}
			if len(forwarded) != want {
				t.Fatalf("%s got %d pledges for %d replies, want %d", where, len(forwarded), len(tap.sent), want)
			}
			for i, frame := range forwarded {
				checkEvidence(t, frame, query.Encode(q), tap.sent[i], !tc.doubleCheck)
			}
			if tap.signs != want {
				t.Fatalf("%d s.sign calls for %d pledges presented as evidence", tap.signs, want)
			}
			for _, sent := range tap.sent {
				if !tc.liar && len(sent.reply.Pledge.Sig) != 0 {
					t.Fatal("a slave signed an honest read nobody checks")
				}
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
			if len(r.forwarded) != 1 || !bytes.Equal(r.forwarded[0], statements(honest.Pledge)) {
				t.Fatal("the auditor did not get the canonical statement frame")
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
// bcExclude that carries a genuine pledge — an honest slave's, rebuilt
// from a client's a.pledge statement and the signature the slave gives
// anyone who asks s.sign about it — must still name a certified master
// that signed it. Every master refuses each forged frame, counts the refusal and
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
				q := mustQuery(t, "catalog/001")
				tap.warmRead(cl, q)
				if _, err := cl.Read(q); err != nil {
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
				p, err := decodePledgeFrame(append(bytes.Clone(tap.stated[0]), 0, 0)) // an empty key and signature
				if err != nil {
					t.Error(err)
					return
				}
				attacker := c.net.Dialer("attacker")
				var victimAddr string
				for _, sl := range c.slaves {
					if bytes.Equal(sl.PublicKey(), tap.sent[0].slave) {
						victimAddr = sl.Addr()
					}
				}
				resp, err := attacker.CallTimeout(victimAddr, MethodSign, tap.stated[0], time.Second)
				if err != nil {
					t.Errorf("s.sign: %v", err)
					return
				}
				p.SlavePub, p.Sig = tap.sent[0].slave, wire.NewReader(resp).Bytes()
				if err := p.VerifySig(); err != nil {
					t.Errorf("the signature s.sign gave: %v", err)
					return
				}
				entry := wire.EncodeFrame(func(w *wire.Writer) {
					w.Uvarint(77) // a submit identity no member uses
					w.Uvarint(1)
					w.Bytes_(tc.forge(EncodePledge(p)))
				})
				if _, err := attacker.CallTimeout(c.masters[0].cfg.Addr, "b.submit", entry, time.Second); err != nil {
					t.Errorf("b.submit: %v", err)
				}
			})
			s.RunUntil(sim.Epoch.Add(5 * time.Second))

			if len(tap.stated) != 1 || len(tap.audited) != 0 {
				t.Fatalf("%d statements and %d pledges forwarded, want 1 and 0", len(tap.stated), len(tap.audited))
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
