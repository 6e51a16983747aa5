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
	// forwarded holds every body the scripted auditor was sent.
	forwarded [][]byte
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

	// Scripted auditor: records and acks.
	net.Register("auditor", func(from, method string, body []byte) ([]byte, error) {
		r.forwarded = append(r.forwarded, bytes.Clone(body))
		return nil, nil
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
// requires the read to be refused as a bad pledge: nothing forwarded and
// no slot taken in the client's verified-pledge memo, so a hostile slave
// can neither get a pledge past the auditor nor flush the memo.
func (r *clientRig) readTampered(t *testing.T) {
	t.Helper()
	if _, err := r.readOnce(t); err == nil {
		t.Fatal("tampered reply accepted")
	}
	st := r.client.Stats()
	if st.BadPledges == 0 || st.ReadsAccepted != 0 {
		t.Fatalf("not refused as a bad pledge: %+v", st)
	}
	if len(r.forwarded) != 0 || st.PledgesSent != 0 {
		t.Fatalf("%d pledges forwarded from a tampered reply", len(r.forwarded))
	}
	if n := r.client.pledges.entries(); n != 0 || st.PledgeCacheHits != 0 {
		t.Fatalf("tampered reply left %d memo entries and %d hits", n, st.PledgeCacheHits)
	}
}

func TestClientRejectsPayloadPledgeMismatch(t *testing.T) {
	r := newClientRig(t)
	// Flip one payload byte: the hash the client computes is not the one
	// the slave signed.
	r.mutate = func(rr *ReadReply) {
		rr.Payload = bytes.Clone(rr.Payload)
		rr.Payload[len(rr.Payload)-1] ^= 1
	}
	r.readTampered(t)
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
// and cached, then swaps or edits the stamp that rides beside it.
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
		}, ErrBadPledge, func(st ClientStats) uint64 { return st.BadPledges }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			first := honest()
			if err := c.verifyReply(sl, masters, qb, &first); err != nil {
				t.Fatalf("honest reply: %v", err)
			}
			before := c.Stats()
			reply := honest()
			tc.mutate(&reply.Pledge)
			// Twice: a rejection must not leave a verdict behind either.
			for round := 0; round < 2; round++ {
				tampered := reply
				err := c.verifyReply(sl, masters, qb, &tampered)
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
			// Unless the version moved, the pledge itself was a cache hit
			// both times: the stamp checks are what caught the reply.
			if wantHits := before.PledgeCacheHits + 2; tc.want != ErrBadPledge && after.PledgeCacheHits != wantHits {
				t.Errorf("pledge cache hits = %d, want %d", after.PledgeCacheHits, wantHits)
			}
		})
	}
}
