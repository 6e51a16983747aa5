package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/pki"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

// clientRig wires a bare client against scripted master/slave/auditor
// endpoints so each §3.2 verification step can be violated in isolation.
type clientRig struct {
	s          *sim.Sim
	net        *rpc.SimNet
	client     *Client
	owner      *cryptoutil.KeyPair
	masterKeys *cryptoutil.KeyPair
	slaveKeys  *cryptoutil.KeyPair
	params     Params

	// mutate, if set, rewrites the slave's honest reply before sending;
	// mutateBody, if set, rewrites the encoded reply after that.
	mutate     func(*ReadReply)
	mutateBody func([]byte) []byte
	// content backs the scripted slave and master.
	content *store.Store
	// forwarded holds every body the scripted auditor was sent, and ack
	// is what it replies (nil: the empty ack of a pledge it does not vouch
	// for).
	forwarded [][]byte
	ack       []byte
}

func newClientRig(t *testing.T) *clientRig {
	t.Helper()
	s := sim.New(1)
	net := rpc.NewSimNet(s, sim.Const(time.Millisecond))
	r := &clientRig{
		s: s, net: net,
		owner:      cryptoutil.DeriveKeyPair("owner", 0),
		masterKeys: cryptoutil.DeriveKeyPair("master", 0),
		slaveKeys:  cryptoutil.DeriveKeyPair("slave", 0),
		params:     DefaultParams(),
		content:    store.New(),
	}
	r.content.Apply(store.Put{Key: "k", Value: []byte("v")})

	dir := pki.NewDirectory()
	mcert := pki.Certificate{Role: pki.RoleMaster, Addr: "master", Subject: r.masterKeys.Public}
	mcert.Sign(r.owner)
	dir.Publish(r.owner.Public, mcert)

	// Scripted master: assigns "slave", answers checks truthfully.
	net.Register("master", func(from, method string, body []byte) ([]byte, error) {
		switch method {
		case MethodGetSlave:
			cert := pki.Certificate{Role: pki.RoleSlave, Addr: "slave", Subject: r.slaveKeys.Public}
			cert.Sign(r.masterKeys)
			w := wire.NewWriter(256)
			w.Uvarint(1)
			cert.Encode(w)
			return w.Bytes(), nil
		case MethodCheck:
			rd := wire.NewReader(body)
			rd.Bytes() // client pub
			rd.Bool()  // wantPayload
			qb := rd.Bytes()
			q, err := query.Decode(qb)
			if err != nil {
				return nil, err
			}
			res, err := q.Execute(r.content)
			if err != nil {
				return nil, err
			}
			d := res.Digest()
			w := wire.NewWriter(64)
			w.Uvarint(r.content.Version())
			w.Bytes_(d[:])
			w.Bool(false)
			return w.Bytes(), nil
		case MethodReport:
			return nil, nil
		}
		return nil, errors.New("unexpected master method " + method)
	})

	// Scripted slave: honest reply, then r.mutate applied.
	net.Register("slave", func(from, method string, body []byte) ([]byte, error) {
		rd := wire.NewReader(body)
		qb := rd.Bytes()
		q, err := query.Decode(qb)
		if err != nil {
			return nil, err
		}
		res, err := q.Execute(r.content)
		if err != nil {
			return nil, err
		}
		stamp := SignStamp(r.masterKeys, r.content.Version(), s.Now())
		reply := ReadReply{
			Payload: res.Payload,
			Pledge:  SignPledge(r.slaveKeys, qb, res.Digest(), stamp),
		}
		if r.mutate != nil {
			r.mutate(&reply)
		}
		enc := EncodeReadReply(reply)
		if r.mutateBody != nil {
			enc = r.mutateBody(enc)
		}
		return enc, nil
	})

	// Scripted auditor: records and acks with r.ack.
	net.Register("auditor", func(from, method string, body []byte) ([]byte, error) {
		r.forwarded = append(r.forwarded, bytes.Clone(body))
		return r.ack, nil
	})

	r.client = NewClient(ClientConfig{
		Addr:            "client",
		Keys:            cryptoutil.DeriveKeyPair("client", 0),
		Params:          r.params,
		ContentKey:      r.owner.Public,
		Directory:       BoundDirectory{Dir: dir, ContentKey: r.owner.Public},
		AuditorAddr:     "auditor",
		PreferredMaster: 0,
		Seed:            1,
	}, s, net.Dialer("client"))
	net.Register("client", r.client.Handle)
	return r
}

func (r *clientRig) readOnce(t *testing.T) ([]byte, error) {
	t.Helper()
	var payload []byte
	var err error
	r.s.Go(func() {
		if serr := r.client.Setup(); serr != nil {
			err = serr
			return
		}
		payload, err = r.client.Read(query.Get{Key: "k"})
	})
	r.s.Run()
	return payload, err
}

func TestClientAcceptsHonestReply(t *testing.T) {
	r := newClientRig(t)
	payload, err := r.readOnce(t)
	if err != nil {
		t.Fatal(err)
	}
	v, ok, _ := query.GetResult(payload)
	if !ok || string(v) != "v" {
		t.Fatalf("payload = %q", v)
	}
	if r.client.Stats().ReadsAccepted != 1 {
		t.Fatalf("stats: %+v", r.client.Stats())
	}
}

// readTampered reads through a slave whose reply r.mutate tampers with and
// requires the read to be refused as a bad pledge: nothing accepted and no
// slot taken in the client's verified-pledge memo, so a hostile slave can
// neither get an answer past the client nor flush the memo. The scripted
// auditor does not vouch, so each attempt forwards its frame before the
// signature check refuses it; an auditor over the rig's content, given
// those frames, convicts nobody: it settles each as a forgery
// (PledgesBadSig) or, where the tampering left the answer right, as an
// honest audit. readTampered returns that auditor's counters.
func (r *clientRig) readTampered(t *testing.T) AuditorStats {
	t.Helper()
	if _, err := r.readOnce(t); err == nil {
		t.Fatal("tampered reply accepted")
	}
	st := r.client.Stats()
	if st.BadPledges == 0 || st.ReadsAccepted != 0 {
		t.Fatalf("not refused as a bad pledge: %+v", st)
	}
	if n := r.client.pledges.entries(); n != 0 || st.PledgeCacheHits != 0 {
		t.Fatalf("tampered reply left %d memo entries and %d hits", n, st.PledgeCacheHits)
	}
	if len(r.forwarded) == 0 || st.PledgesSent != uint64(len(r.forwarded)) {
		t.Fatalf("%d frames forwarded, %d pledges sent", len(r.forwarded), st.PledgesSent)
	}
	aud := r.newAuditor(t)
	r.s.Go(func() {
		for _, body := range r.forwarded {
			if _, err := aud.handlePledge(body); err != nil {
				t.Errorf("forwarded frame: %v", err)
			}
		}
	})
	r.s.Run()
	ast := aud.Stats()
	if ast.PledgesAudited+ast.PledgesBadSig != ast.PledgesReceived || ast.Mismatches != 0 || ast.ReportsSent != 0 {
		t.Fatalf("auditing the forwarded frames: %+v", ast)
	}
	return ast
}

// newAuditor returns an auditor over the rig's content, reporting to the
// scripted master; its audit worker is not started.
func (r *clientRig) newAuditor(t *testing.T) *Auditor {
	t.Helper()
	aud, err := NewAuditor(AuditorConfig{
		Addr:        "auditor",
		Keys:        cryptoutil.DeriveKeyPair("auditor", 0),
		Params:      r.params,
		Peers:       []string{"auditor"},
		MasterAddrs: []string{"master"},
		Seed:        1,
	}, r.s, r.net.Dialer("auditor"), r.content)
	if err != nil {
		t.Fatal(err)
	}
	return aud
}

func TestClientRejectsPayloadPledgeMismatch(t *testing.T) {
	r := newClientRig(t)
	// Flip one payload byte: the hash the client computes is not the one
	// the slave signed.
	r.mutate = func(rr *ReadReply) {
		rr.Payload = bytes.Clone(rr.Payload)
		rr.Payload[len(rr.Payload)-1] ^= 1
	}
	// The frame names the tampered payload's hash: a forgery to the auditor.
	if st := r.readTampered(t); st.PledgesBadSig != st.PledgesReceived {
		t.Fatalf("auditing the forwarded frames: %+v", st)
	}
}

func TestClientRejectsPledgeFromWrongSlave(t *testing.T) {
	r := newClientRig(t)
	other := cryptoutil.DeriveKeyPair("other-slave", 0)
	r.mutate = func(rr *ReadReply) {
		rr.Pledge = SignPledge(other, rr.Pledge.QueryBytes, rr.Pledge.ResultHash, rr.Pledge.Stamp)
	}
	r.readTampered(t)
}

func TestClientRejectsBrokenPledgeSignature(t *testing.T) {
	r := newClientRig(t)
	r.mutate = func(rr *ReadReply) { rr.Pledge.Sig[0] ^= 0x01 }
	r.readTampered(t)
}

func TestClientRejectsPledgeForDifferentQuery(t *testing.T) {
	r := newClientRig(t)
	r.mutate = func(rr *ReadReply) {
		// A valid signature by the assigned slave, over another query:
		// the client checks it against the query it asked.
		otherQ := query.Encode(query.Get{Key: "other"})
		rr.Pledge = SignPledge(r.slaveKeys, otherQ, rr.Pledge.ResultHash, rr.Pledge.Stamp)
	}
	r.readTampered(t)
}

func TestClientRejectsStampFromUnknownMaster(t *testing.T) {
	r := newClientRig(t)
	evil := cryptoutil.DeriveKeyPair("evil-master", 0)
	r.mutate = func(rr *ReadReply) {
		stamp := SignStamp(evil, rr.Pledge.Stamp.Version, rr.Pledge.Stamp.Timestamp)
		rr.Pledge = SignPledge(r.slaveKeys, rr.Pledge.QueryBytes, rr.Pledge.ResultHash, stamp)
	}
	_, err := r.readOnce(t)
	if err == nil {
		t.Fatal("stamp from unknown master accepted")
	}
}

func TestClientRejectsStaleStamp(t *testing.T) {
	r := newClientRig(t)
	r.mutate = func(rr *ReadReply) {
		old := r.s.Now().Add(-r.params.MaxLatency - time.Second)
		stamp := SignStamp(r.masterKeys, rr.Pledge.Stamp.Version, old)
		rr.Pledge = SignPledge(r.slaveKeys, rr.Pledge.QueryBytes, rr.Pledge.ResultHash, stamp)
	}
	_, err := r.readOnce(t)
	if err == nil {
		t.Fatal("stale stamp accepted")
	}
	if r.client.Stats().StaleRejects == 0 {
		t.Fatalf("stats: %+v", r.client.Stats())
	}
}

func TestClientClientBoundOverridesMaxLatency(t *testing.T) {
	r := newClientRig(t)
	// Stamp aged past max_latency but inside the client's own bound.
	r.client.cfg.Params.ClientMaxLatency = 10 * time.Second
	r.mutate = func(rr *ReadReply) {
		old := r.s.Now().Add(-r.params.MaxLatency - time.Second)
		stamp := SignStamp(r.masterKeys, rr.Pledge.Stamp.Version, old)
		rr.Pledge = SignPledge(r.slaveKeys, rr.Pledge.QueryBytes, rr.Pledge.ResultHash, stamp)
	}
	if _, err := r.readOnce(t); err != nil {
		t.Fatalf("client-set bound did not relax freshness: %v", err)
	}
}

func TestClientDoubleCheckCatchesLie(t *testing.T) {
	r := newClientRig(t)
	r.client.cfg.ForceDoubleCheck = true
	calls := 0
	r.mutate = func(rr *ReadReply) {
		calls++
		if calls > 1 {
			return // after the report, answer honestly (same slave here)
		}
		rr.Payload = append(rr.Payload, 0xee)
		rr.Pledge = SignPledge(r.slaveKeys, rr.Pledge.QueryBytes,
			cryptoutil.HashBytes(rr.Payload), rr.Pledge.Stamp)
	}
	payload, err := r.readOnce(t)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	v, _, _ := query.GetResult(payload)
	if string(v) != "v" {
		t.Fatalf("final payload = %q", v)
	}
	st := r.client.Stats()
	if st.CaughtImmediate != 1 || st.ReportsFiled != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestClientNotifyReassigns(t *testing.T) {
	r := newClientRig(t)
	r.s.Go(func() {
		if err := r.client.Setup(); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		excl := pki.Exclusion{Subject: r.slaveKeys.Public, Reason: "test"}
		excl.Sign(r.masterKeys)
		newSlave := cryptoutil.DeriveKeyPair("slave", 9)
		cert := pki.Certificate{Role: pki.RoleSlave, Addr: "slave-9", Subject: newSlave.Public}
		cert.Sign(r.masterKeys)
		w := wire.NewWriter(512)
		excl.Encode(w)
		cert.Encode(w)
		if _, err := r.client.Handle("master", MethodNotify, w.Bytes()); err != nil {
			t.Errorf("notify: %v", err)
		}
	})
	r.s.Run()
	if r.client.SlaveAddr() != "slave-9" {
		t.Fatalf("slave after notify = %s", r.client.SlaveAddr())
	}
	if r.client.Stats().Reassignments != 1 {
		t.Fatalf("stats: %+v", r.client.Stats())
	}
}

func TestClientNotifyRejectsForgedCert(t *testing.T) {
	r := newClientRig(t)
	r.s.Go(func() {
		if err := r.client.Setup(); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		evil := cryptoutil.DeriveKeyPair("evil", 0)
		excl := pki.Exclusion{Subject: r.slaveKeys.Public, Reason: "forged"}
		excl.Sign(evil)
		cert := pki.Certificate{Role: pki.RoleSlave, Addr: "evil-slave", Subject: evil.Public}
		cert.Sign(evil) // not our master's signature
		w := wire.NewWriter(512)
		excl.Encode(w)
		cert.Encode(w)
		if _, err := r.client.Handle("evil", MethodNotify, w.Bytes()); err == nil {
			t.Error("forged reassignment accepted")
		}
	})
	r.s.Run()
	if r.client.SlaveAddr() == "evil-slave" {
		t.Fatal("client redirected to attacker's slave")
	}
}

func TestClientSetupFailsWithEmptyDirectory(t *testing.T) {
	s := sim.New(1)
	net := rpc.NewSimNet(s, sim.Const(0))
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	cl := NewClient(ClientConfig{
		Addr: "c", Keys: cryptoutil.DeriveKeyPair("client", 0),
		Params: DefaultParams(), ContentKey: owner.Public,
		Directory:   BoundDirectory{Dir: pki.NewDirectory(), ContentKey: owner.Public},
		AuditorAddr: "auditor",
	}, s, net.Dialer("c"))
	var err error
	s.Go(func() { err = cl.Setup() })
	s.Run()
	if err == nil {
		t.Fatal("setup succeeded with no masters")
	}
}

// TestClientChecksStampBesidePledge: the slave's signature covers the
// stamp's version and nothing else of it, so everything a client believes
// about the stamp it checks itself, on every reply. Each row starts from
// an honest reply whose pledge signature the client has already verified
// and cached, then swaps or edits the stamp that rides beside it. The
// checks run in readOnce's order for a read the auditor does not vouch
// for: stamp signature and freshness first, so a row they refuse never
// looks at the pledge, then the pledge signature.
func TestClientChecksStampBesidePledge(t *testing.T) {
	r := newClientRig(t)
	c := r.client
	sl := slaveAssignment{addr: "slave", pub: r.slaveKeys.Public}
	masters := []cryptoutil.PublicKey{r.masterKeys.Public}
	evil := cryptoutil.DeriveKeyPair("evil-master", 0)
	qb := query.Encode(query.Get{Key: "k"})
	payload := []byte("answer at version 7")
	now := r.s.Now()
	honest := func() ReadReply {
		stamp := SignStamp(r.masterKeys, 7, now.Add(-time.Second))
		return ReadReply{Payload: payload, Pledge: SignPledge(r.slaveKeys, qb, cryptoutil.HashBytes(payload), stamp)}
	}
	cases := []struct {
		name   string
		mutate func(p *Pledge)
		want   error // nil: accepted
		stat   func(ClientStats) uint64
	}{
		{"the honest reply again", func(p *Pledge) {}, nil, nil},
		{"a fresher master stamp of the same version", func(p *Pledge) {
			p.Stamp = SignStamp(r.masterKeys, 7, now)
		}, nil, nil},
		{"a batch stamp of the same version", func(p *Pledge) {
			p.Stamp = SignBatchStamp(r.masterKeys, 7, now, cryptoutil.Digest{1})
		}, nil, nil},
		{"stamp signature flipped", func(p *Pledge) {
			p.Stamp.Sig = bytes.Clone(p.Stamp.Sig)
			p.Stamp.Sig[3] ^= 1
		}, ErrBadStamp, func(st ClientStats) uint64 { return st.BadPledges }},
		{"stamp timestamp moved forward under the old signature", func(p *Pledge) {
			p.Stamp.Timestamp = now
		}, ErrBadStamp, func(st ClientStats) uint64 { return st.BadPledges }},
		{"stamp of the same version from an uncertified key", func(p *Pledge) {
			p.Stamp = SignStamp(evil, 7, now)
		}, ErrBadStamp, func(st ClientStats) uint64 { return st.BadPledges }},
		{"stale master stamp of the same version", func(p *Pledge) {
			p.Stamp = SignStamp(r.masterKeys, 7, now.Add(-r.params.MaxLatency-time.Second))
		}, ErrStale, func(st ClientStats) uint64 { return st.StaleRejects }},
		{"fresh master stamp of another version", func(p *Pledge) {
			p.Stamp = SignStamp(r.masterKeys, 8, now)
		}, ErrBadPledge, func(st ClientStats) uint64 { return st.BadPledges }},
		{"stamp version edited in place", func(p *Pledge) {
			p.Stamp.Version = 8
		}, ErrBadStamp, func(st ClientStats) uint64 { return st.BadPledges }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			first := honest()
			if err := verifyUnvouched(c, sl, masters, qb, &first); err != nil {
				t.Fatalf("honest reply: %v", err)
			}
			before := c.Stats()
			reply := honest()
			tc.mutate(&reply.Pledge)
			// Twice: a rejection must not leave a verdict behind either.
			for round := 0; round < 2; round++ {
				tampered := reply
				err := verifyUnvouched(c, sl, masters, qb, &tampered)
				if tc.want == nil {
					if err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					continue
				}
				if !errors.Is(err, errRetry) || !strings.Contains(err.Error(), tc.want.Error()) {
					t.Fatalf("round %d: err = %v, want a retryable %v", round, err, tc.want)
				}
			}
			after := c.Stats()
			if tc.want != nil && tc.stat(after) != tc.stat(before)+2 {
				t.Errorf("rejections not counted: before %+v, after %+v", before, after)
			}
			// An accepted pledge was a cache hit both times, one for another
			// version a miss; one the stamp checks caught was not looked at.
			wantHits, wantMisses := before.PledgeCacheHits, before.PledgeCacheMisses
			switch tc.want {
			case nil:
				wantHits += 2
			case ErrBadPledge:
				wantMisses += 2
			}
			if after.PledgeCacheHits != wantHits || after.PledgeCacheMisses != wantMisses {
				t.Errorf("pledge cache %d hits, %d misses, want %d and %d",
					after.PledgeCacheHits, after.PledgeCacheMisses, wantHits, wantMisses)
			}
		})
	}
}

// verifyUnvouched runs one reply through every check a read the auditor
// does not vouch for makes, in readOnce's order.
func verifyUnvouched(c *Client, sl slaveAssignment, masters []cryptoutil.PublicKey, qb []byte, reply *ReadReply) error {
	if err := c.checkReply(sl, masters, qb, reply); err != nil {
		return err
	}
	return c.verifyPledges([]ReadReply{*reply})
}

// withAuditor puts an auditor over the rig's content where the scripted
// one was, its apply loop running; every body is still recorded. The
// loop never idles out: a test's last step is r.s.Stop().
func (r *clientRig) withAuditor(t *testing.T) *Auditor {
	t.Helper()
	aud := r.newAuditor(t)
	r.net.Register("auditor", func(from, method string, body []byte) ([]byte, error) {
		r.forwarded = append(r.forwarded, bytes.Clone(body))
		return aud.Handle(from, method, body)
	})
	r.s.Go(aud.applyLoop)
	return aud
}

// lie makes the slave answer k with a wrong value, under its own valid
// signature, or under a garbage one when forge is set.
func (r *clientRig) lie(forge bool) {
	r.mutate = func(rr *ReadReply) {
		rr.Payload = query.Encode(query.Get{Key: "not the answer"})
		rr.Pledge = SignPledge(r.slaveKeys, rr.Pledge.QueryBytes, cryptoutil.HashBytes(rr.Payload), rr.Pledge.Stamp)
		rr.XLie = true
		if forge {
			rr.Pledge.Sig = bytes.Clone(rr.Pledge.Sig)
			rr.Pledge.Sig[0] ^= 0xff
		}
	}
}

// readNoCheck is one read of k that draws no double-check, so only the
// auditor's ack decides whether the pledge signature is checked.
func (r *clientRig) readNoCheck() ([]byte, error) {
	return r.client.ReadAtLevel(query.Get{Key: "k"}, 0)
}

// TestClientVouchSkipsVerify: an auditor at the current version vouches
// for a read of k — settled on arrival, nothing queued — the first time by
// executing k there and then, the next time from its query cache; the
// client accepts both without looking at the pledge signature.
func TestClientVouchSkipsVerify(t *testing.T) {
	r := newClientRig(t)
	aud := r.withAuditor(t)
	r.s.Go(func() {
		defer r.s.Stop()
		if err := r.client.Setup(); err != nil {
			t.Error(err)
			return
		}
		if _, err := r.readNoCheck(); err != nil {
			t.Errorf("first read: %v", err)
			return
		}
		if st := r.client.Stats(); st.PledgeCacheHits+st.PledgeCacheMisses != 0 {
			t.Errorf("the first read, vouched on execution, made %d pledge checks, want none", st.PledgeCacheHits+st.PledgeCacheMisses)
		}
		r.s.Sleep(2 * r.params.KeepAliveEvery)
		before := r.client.Stats()
		payload, err := r.readNoCheck()
		if err != nil {
			t.Errorf("vouched read: %v", err)
			return
		}
		if v, ok, _ := query.GetResult(payload); !ok || string(v) != "v" {
			t.Errorf("payload = %q", v)
		}
		after := r.client.Stats()
		if after.ReadsAccepted != before.ReadsAccepted+1 ||
			after.PledgeCacheHits+after.PledgeCacheMisses != before.PledgeCacheHits+before.PledgeCacheMisses {
			t.Errorf("vouched read: before %+v, after %+v", before, after)
		}
		ast := aud.Stats()
		if ast.PledgesReceived != 2 || ast.PledgesAudited != 2 || ast.PledgesVouched != 2 || ast.CacheHits != 1 || aud.Backlog() != 0 {
			t.Errorf("auditor: %+v, backlog %d", ast, aud.Backlog())
		}
	})
	r.s.Run()
}

// TestClientVouchLieConvicted: a lie under the slave's valid signature
// disagrees with what the current auditor holds, so it is not vouched for;
// the client verifies and accepts it, and the audit convicts the slave, as
// for any lie.
func TestClientVouchLieConvicted(t *testing.T) {
	r := newClientRig(t)
	aud := r.withAuditor(t)
	r.s.Go(func() {
		defer r.s.Stop()
		if err := r.client.Setup(); err != nil {
			t.Error(err)
			return
		}
		if _, err := r.readNoCheck(); err != nil {
			t.Errorf("honest read: %v", err)
			return
		}
		r.s.Sleep(2 * r.params.KeepAliveEvery)
		r.lie(false)
		before := r.client.Stats()
		if _, err := r.readNoCheck(); err != nil {
			t.Errorf("signed lie: %v", err)
			return
		}
		after := r.client.Stats()
		if after.LiesAccepted != 1 || after.PledgeCacheMisses != before.PledgeCacheMisses+1 {
			t.Errorf("signed lie: before %+v, after %+v", before, after)
		}
		r.s.Sleep(2 * r.params.KeepAliveEvery)
		if ast := aud.Stats(); ast.Mismatches != 1 || ast.ReportsSent != 1 || ast.PledgesAudited != 2 {
			t.Errorf("auditor: %+v", ast)
		}
	})
	r.s.Run()
}

// TestClientVouchGarbageSignatureRefused: a lie under a signature its
// slave never made is refused, whether the auditor holds the right answer
// at the current version or acks without vouching; no attempt is vouched.
func TestClientVouchGarbageSignatureRefused(t *testing.T) {
	for _, current := range []bool{true, false} {
		r := newClientRig(t)
		var aud *Auditor
		if current {
			aud = r.withAuditor(t)
		}
		r.s.Go(func() {
			defer r.s.Stop()
			if err := r.client.Setup(); err != nil {
				t.Error(err)
				return
			}
			if _, err := r.readNoCheck(); err != nil {
				t.Errorf("honest read: %v", err)
				return
			}
			r.s.Sleep(2 * r.params.KeepAliveEvery)
			r.lie(true)
			before := r.client.Stats()
			if _, err := r.readNoCheck(); err == nil {
				t.Errorf("current auditor %v: forged lie accepted", current)
			}
			after := r.client.Stats()
			if after.ReadsAccepted != before.ReadsAccepted || after.LiesAccepted != 0 ||
				after.BadPledges != before.BadPledges+after.PledgesSent-before.PledgesSent {
				t.Errorf("current auditor %v: before %+v, after %+v", current, before, after)
			}
			if aud != nil {
				r.s.Sleep(2 * r.params.KeepAliveEvery)
				if ast := aud.Stats(); ast.Mismatches != 0 || ast.PledgesBadSig != after.PledgesSent-before.PledgesSent {
					t.Errorf("auditor: %+v", ast)
				}
			}
		})
		r.s.Run()
	}
}

// TestClientVouchReplyByte: only the exact one-byte vouch stands in for
// the pledge signature. The slave's answer is right but its signature is
// garbage, so every other ack leaves the read refused.
func TestClientVouchReplyByte(t *testing.T) {
	for _, tc := range []struct {
		ack    []byte
		accept bool
	}{
		{nil, false},
		{[]byte{}, false},
		{[]byte{0x00}, false},
		{[]byte{0x02}, false},
		{[]byte{0xff}, false},
		{[]byte{0x01, 0x01}, false},
		{[]byte{0x01}, true},
	} {
		r := newClientRig(t)
		r.ack = tc.ack
		r.mutate = func(rr *ReadReply) {
			rr.Pledge.Sig = bytes.Clone(rr.Pledge.Sig)
			rr.Pledge.Sig[0] ^= 0xff
		}
		var err error
		r.s.Go(func() {
			if err = r.client.Setup(); err == nil {
				_, err = r.readNoCheck()
			}
		})
		r.s.Run()
		st := r.client.Stats()
		if tc.accept {
			if err != nil || st.ReadsAccepted != 1 || st.PledgeCacheHits+st.PledgeCacheMisses != 0 {
				t.Errorf("ack %x: err %v, %+v", tc.ack, err, st)
			}
			continue
		}
		if err == nil || st.ReadsAccepted != 0 || st.BadPledges == 0 {
			t.Errorf("ack %x: err %v, %+v", tc.ack, err, st)
		}
	}
}
