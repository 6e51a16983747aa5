package core

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"sync"
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
	// reports holds every m.report body the scripted master was sent, and
	// excludes the exclusion list of every m.getslave.
	reports  [][]byte
	excludes [][]string
	// more are scripted slaves assigned after "slave" to a client asking
	// for more than one.
	more []rigSlave
	// refs holds the stamp reference of every s.read "slave" was sent; with
	// omit set, "slave" leaves its stamp out of every reply to a request
	// that names one, whichever it names.
	refs [][]byte
	omit bool
	// signs counts the s.sign calls every scripted slave was sent, and
	// asked the s.read requests that asked for the signature up front;
	// with refuseSign set, every scripted slave refuses s.sign.
	signs, asked int
	refuseSign   bool
	// onCheck, if set, runs inside the scripted master's m.check handler
	// before it answers; with emptyDigest set the answer's digest field is
	// empty, a malformed reply.
	onCheck     func()
	emptyDigest bool
}

// rigSlave is a scripted slave besides the rig's own: honest, then mutate
// applied.
type rigSlave struct {
	addr   string
	keys   *cryptoutil.KeyPair
	mutate func(*ReadReply)
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
			rd := wire.NewReader(body)
			_ = rd.String() // client addr
			rd.Bytes()      // client pub
			k := rd.Uvarint()
			r.excludes = append(r.excludes, rd.StringSlice())
			slaves := append([]rigSlave{{addr: "slave", keys: r.slaveKeys}}, r.more...)
			slaves = slaves[:min(len(slaves), int(k))]
			w := wire.NewWriter(256)
			w.Uvarint(uint64(len(slaves)))
			for _, sl := range slaves {
				cert := pki.Certificate{Role: pki.RoleSlave, Addr: sl.addr, Subject: sl.keys.Public}
				cert.Sign(r.masterKeys)
				cert.Encode(w)
			}
			return w.Bytes(), nil
		case MethodCheck:
			if r.onCheck != nil {
				r.onCheck()
			}
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
			digest := d[:]
			if r.emptyDigest {
				digest = nil
			}
			w := wire.NewWriter(64)
			w.Uvarint(r.content.Version())
			w.Bytes_(digest)
			w.Bool(false)
			return w.Bytes(), nil
		case MethodReport:
			r.reports = append(r.reports, bytes.Clone(body))
			return nil, nil
		}
		return nil, errors.New("unexpected master method " + method)
	})

	// Scripted slave: honest reply, the stamp left out under r.omit, then
	// r.mutate applied, and the encoded reply rewritten by r.mutateBody.
	slave := r.scriptedSlave(r.slaveKeys, func(body []byte, reply *ReadReply) {
		rd := wire.NewReader(body)
		rd.Bytes() // query
		ref := rd.Bytes()
		r.refs = append(r.refs, ref)
		if r.omit && len(ref) > 0 {
			reply.Pledge.Stamp.Sig = nil
		}
		if r.mutate != nil {
			r.mutate(reply)
		}
	})
	net.Register("slave", func(from, method string, body []byte) ([]byte, error) {
		resp, err := slave(from, method, body)
		if err == nil && method == MethodRead && r.mutateBody != nil {
			resp = r.mutateBody(resp)
		}
		return resp, err
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

// honestReply is a slave's honest answer to an s.read body, under keys.
func (r *clientRig) honestReply(keys *cryptoutil.KeyPair, body []byte) (ReadReply, error) {
	qb := wire.NewReader(body).Bytes()
	q, err := query.Decode(qb)
	if err != nil {
		return ReadReply{}, err
	}
	res, err := q.Execute(r.content)
	if err != nil {
		return ReadReply{}, err
	}
	stamp := SignStamp(r.masterKeys, r.content.Version(), r.s.Now())
	return ReadReply{Payload: res.Payload, Pledge: SignPledge(keys, qb, res.Digest(), stamp)}, nil
}

// scriptedSlave is a scripted slave under keys. Its s.read reply is the
// honest one that edit rewrites, sent with its signature only when the
// request asks for it; s.sign answers the signature of the reply it
// served last, whatever statement it is asked about (a scripted slave
// signs what its script made it send), or is refused under r.refuseSign.
func (r *clientRig) scriptedSlave(keys *cryptoutil.KeyPair, edit func(body []byte, reply *ReadReply)) rpc.Handler {
	var served []byte // the signature on the reply served last
	return func(from, method string, body []byte) ([]byte, error) {
		if method == MethodSign {
			r.signs++
			if r.refuseSign || served == nil {
				return nil, errors.New("scripted slave: s.sign refused")
			}
			return wire.EncodeFrame(func(w *wire.Writer) { w.Bytes_(served) }), nil
		}
		reply, err := r.honestReply(keys, body)
		if err != nil {
			return nil, err
		}
		edit(body, &reply)
		served = reply.Pledge.Sig
		rd := wire.NewReader(body)
		rd.Bytes() // query
		rd.Bytes() // ref
		if rd.Bool() {
			r.asked++
		} else {
			reply.Pledge.Sig = nil
		}
		return EncodeReadReply(reply), nil
	}
}

// addSlave scripts another slave the master assigns after "slave".
func (r *clientRig) addSlave(sl rigSlave) {
	r.more = append(r.more, sl)
	r.net.Register(sl.addr, r.scriptedSlave(sl.keys, func(_ []byte, reply *ReadReply) {
		if sl.mutate != nil {
			sl.mutate(reply)
		}
	}))
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
// requires the read to be refused as a bad pledge: nothing accepted, every
// signature check failed, nothing reported. The scripted auditor asks for
// every read's evidence, and nothing is ever vouched, so each attempt
// sends its evidence frame once before the signature check refuses it:
// the first after its statement and an s.sign, every retry at once, its
// signature asked for up front (its held stamp is newer than any version
// vouched for). An auditor over the rig's content, given those evidence
// frames, convicts nobody: it settles each as a forgery (PledgesBadSig)
// or, where the tampering left the answer right, as an honest audit.
// readTampered returns that auditor's counters.
func (r *clientRig) readTampered(t *testing.T) AuditorStats {
	t.Helper()
	r.ack = pledgeEvidence
	if _, err := r.readOnce(t); err == nil {
		t.Fatal("tampered reply accepted")
	}
	st := r.client.Stats()
	if st.BadPledges == 0 || st.ReadsAccepted != 0 {
		t.Fatalf("not refused as a bad pledge: %+v", st)
	}
	if st.PledgesVerified != st.BadPledges || st.ReportsFiled != 0 || len(r.reports) != 0 {
		t.Fatalf("tampered reply: %d of %d signature checks refused, %d reports", st.BadPledges, st.PledgesVerified, len(r.reports))
	}
	evidence := 0
	for _, body := range r.forwarded {
		if body[0] == pledgeFormEvidence {
			evidence++
		}
	}
	if evidence == 0 || uint64(evidence) != st.PledgesSent || len(r.forwarded) != evidence+1 {
		t.Fatalf("%d bodies forwarded, %d of them evidence, %d pledges sent", len(r.forwarded), evidence, st.PledgesSent)
	}
	if r.signs != 1 || uint64(r.asked) != st.PledgesSent-1 {
		t.Fatalf("%d pledges sent: %d s.sign calls, %d signatures asked up front", st.PledgesSent, r.signs, r.asked)
	}
	aud := r.newAuditor(t)
	r.s.Go(func() {
		for _, body := range r.forwarded {
			if body[0] != pledgeFormEvidence {
				continue
			}
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
// scripted master.
func (r *clientRig) newAuditor(t *testing.T) *Auditor {
	t.Helper()
	aud, err := NewAuditor(AuditorConfig{
		Addr:        "auditor",
		Keys:        cryptoutil.DeriveKeyPair("auditor", 0),
		Params:      r.params,
		Peers:       []string{"auditor"},
		MasterAddrs: []string{"master"},
		MasterPubs:  []cryptoutil.PublicKey{r.masterKeys.Public},
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

// A client checks freshness against its own Params.MaxLatency (§3.2
// variant): one stamp aged past the masters' max_latency is refused as
// stale by a default client and accepted by one whose bound is 6 s.
func TestClientClientBoundOverridesMaxLatency(t *testing.T) {
	for _, row := range []struct {
		bound  time.Duration // the client's own MaxLatency; 0 keeps the default
		accept bool
	}{
		{bound: 0, accept: false},
		{bound: 6 * time.Second, accept: true},
	} {
		r := newClientRig(t)
		if row.bound > 0 {
			r.client.cfg.Params.MaxLatency = row.bound
		}
		r.mutate = func(rr *ReadReply) {
			old := r.s.Now().Add(-r.params.MaxLatency - time.Second)
			stamp := SignStamp(r.masterKeys, rr.Pledge.Stamp.Version, old)
			rr.Pledge = SignPledge(r.slaveKeys, rr.Pledge.QueryBytes, rr.Pledge.ResultHash, stamp)
		}
		_, err := r.readOnce(t)
		if accepted := err == nil; accepted != row.accept {
			t.Fatalf("bound %v: accepted = %v (%v), want %v", row.bound, accepted, err, row.accept)
		}
		if stale := r.client.Stats().StaleRejects > 0; stale == row.accept {
			t.Fatalf("bound %v: stats %+v", row.bound, r.client.Stats())
		}
	}
}

func TestClientDoubleCheckCatchesLie(t *testing.T) {
	r := newClientRig(t)
	r.client.cfg.Params.DoubleCheckP = 1
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

// TestClientDoubleCheckExcludesTheSlaveThatAnswered: a notification
// that replaces "slave" with "slave-9" arrives while the double-check of
// a lie "slave" told is at the master. The client still asks m.getslave to
// exclude "slave", the liar, and not its honest replacement.
func TestClientDoubleCheckExcludesTheSlaveThatAnswered(t *testing.T) {
	r := newClientRig(t)
	r.client.cfg.Params.DoubleCheckP = 1
	r.lie(false)
	r.onCheck = func() {
		r.onCheck, r.mutate = nil, nil // one notification; honest from now on
		if err := r.notifyReplacement("slave-9"); err != nil {
			t.Errorf("notify: %v", err)
		}
	}
	if _, err := r.readOnce(t); err != nil {
		t.Fatalf("read: %v", err)
	}
	if st := r.client.Stats(); st.CaughtImmediate != 1 || st.Reassignments != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if len(r.excludes) < 2 || !slices.Equal(r.excludes[1], []string{"slave"}) {
		t.Fatalf("m.getslave exclusions %q, want the slave that answered", r.excludes)
	}
}

// notifyReplacement hands the client the master's notification that "slave"
// is excluded and addr replaces it.
func (r *clientRig) notifyReplacement(addr string) error {
	excl := pki.Exclusion{Subject: r.slaveKeys.Public, Reason: "test"}
	excl.Sign(r.masterKeys)
	newSlave := cryptoutil.DeriveKeyPair("slave", 9)
	cert := pki.Certificate{Role: pki.RoleSlave, Addr: addr, Subject: newSlave.Public}
	cert.Sign(r.masterKeys)
	w := wire.NewWriter(512)
	excl.Encode(w)
	cert.Encode(w)
	_, err := r.client.Handle("master", MethodNotify, w.Bytes())
	return err
}

func TestClientNotifyReassigns(t *testing.T) {
	r := newClientRig(t)
	r.s.Go(func() {
		if err := r.client.Setup(); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		if err := r.notifyReplacement("slave-9"); err != nil {
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
// an honest reply the client has already verified, whose stamp it now
// holds from that slave (unless the row holds none), then swaps, edits or
// leaves out the stamp that rides beside it. A reply that leaves it out is
// completed from the held stamp. The checks run in readOnce's order for a
// read the auditor does not vouch for: stamp signature (or, for a held
// stamp, its certified master) and freshness first, so a row they refuse
// never looks at the pledge, then the pledge signature.
func TestClientChecksStampBesidePledge(t *testing.T) {
	r := newClientRig(t)
	c := r.client
	masters := []cryptoutil.PublicKey{r.masterKeys.Public}
	evil := cryptoutil.DeriveKeyPair("evil-master", 0)
	qb := query.Encode(query.Get{Key: "k"})
	payload := []byte("answer at version 7")
	now := r.s.Now()
	honest := func() ReadReply {
		stamp := SignStamp(r.masterKeys, 7, now.Add(-time.Second))
		return ReadReply{Payload: payload, Pledge: SignPledge(r.slaveKeys, qb, cryptoutil.HashBytes(payload), stamp)}
	}
	leaveOut := func(p *Pledge) { p.Stamp.Sig = nil }
	cases := []struct {
		name    string
		mutate  func(p *Pledge)
		noHeld  bool                   // the client holds no stamp from the slave
		masters []cryptoutil.PublicKey // the group's certified masters when the reply arrives; nil: the rig's
		want    error                  // nil: accepted
		stat    func(ClientStats) uint64
	}{
		{name: "the honest reply again", mutate: func(p *Pledge) {}},
		{name: "a fresher master stamp of the same version", mutate: func(p *Pledge) {
			p.Stamp = SignStamp(r.masterKeys, 7, now)
		}},
		{name: "a batch stamp of the same version", mutate: func(p *Pledge) {
			p.Stamp = SignBatchStamp(r.masterKeys, 7, now, cryptoutil.Digest{1})
		}},
		{name: "stamp signature flipped", mutate: func(p *Pledge) {
			p.Stamp.Sig = bytes.Clone(p.Stamp.Sig)
			p.Stamp.Sig[3] ^= 1
		}, want: ErrBadStamp, stat: func(st ClientStats) uint64 { return st.BadPledges }},
		{name: "stamp timestamp moved forward under the old signature", mutate: func(p *Pledge) {
			p.Stamp.Timestamp = now
		}, want: ErrBadStamp, stat: func(st ClientStats) uint64 { return st.BadPledges }},
		{name: "stamp of the same version from an uncertified key", mutate: func(p *Pledge) {
			p.Stamp = SignStamp(evil, 7, now)
		}, want: ErrBadStamp, stat: func(st ClientStats) uint64 { return st.BadPledges }},
		{name: "stale master stamp of the same version", mutate: func(p *Pledge) {
			p.Stamp = SignStamp(r.masterKeys, 7, now.Add(-r.params.MaxLatency-time.Second))
		}, want: ErrStale, stat: func(st ClientStats) uint64 { return st.StaleRejects }},
		{name: "fresh master stamp of another version", mutate: func(p *Pledge) {
			p.Stamp = SignStamp(r.masterKeys, 8, now)
		}, want: ErrBadPledge, stat: func(st ClientStats) uint64 { return st.BadPledges }},
		{name: "stamp version edited in place", mutate: func(p *Pledge) {
			p.Stamp.Version = 8
		}, want: ErrBadStamp, stat: func(st ClientStats) uint64 { return st.BadPledges }},
		{name: "the held stamp left out", mutate: leaveOut},
		{name: "a stamp left out that the request did not name", mutate: leaveOut, noHeld: true,
			want: ErrBadStamp, stat: func(st ClientStats) uint64 { return st.BadPledges }},
		// After a resetup the group's masters are others: the stamp held
		// from before is from a master no longer certified for the group.
		{name: "the held stamp left out, its master no longer certified", mutate: leaveOut, masters: []cryptoutil.PublicKey{evil.Public},
			want: ErrBadStamp, stat: func(st ClientStats) uint64 { return st.BadPledges }},
		// A whole stamp identical to the held one skips its signature
		// check, not the certification and freshness checks.
		{name: "the held stamp whole again, its master no longer certified", mutate: func(p *Pledge) {}, masters: []cryptoutil.PublicKey{evil.Public},
			want: ErrBadStamp, stat: func(st ClientStats) uint64 { return st.BadPledges }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sl := &slaveAssignment{addr: "slave", pub: r.slaveKeys.Public}
			if !tc.noHeld {
				first := honest()
				if err := verifyUnvouched(c, sl, masters, qb, &first); err != nil {
					t.Fatalf("honest reply: %v", err)
				}
			}
			certified := masters
			if tc.masters != nil {
				certified = tc.masters
			}
			before := c.Stats()
			reply := honest()
			tc.mutate(&reply.Pledge)
			// Twice: a rejection must not leave a verdict behind either.
			for round := 0; round < 2; round++ {
				tampered := reply
				err := verifyUnvouched(c, sl, certified, qb, &tampered)
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
			// An accepted pledge and one for another version were verified
			// both times; one the stamp checks caught was not looked at.
			wantVerified := before.PledgesVerified
			if tc.want == nil || tc.want == ErrBadPledge {
				wantVerified += 2
			}
			if after.PledgesVerified != wantVerified {
				t.Errorf("%d pledge signatures verified, want %d", after.PledgesVerified, wantVerified)
			}
		})
	}

	// A held stamp gone stale: the reply left it out, the client completes
	// it from the stamp it holds, refuses it as stale and drops that stamp,
	// so the retry names none and receives the stamp whole.
	t.Run("a held stamp gone stale, the retry receives the stamp whole", func(t *testing.T) {
		r := newClientRig(t)
		r.omit = true
		var err error
		r.s.Go(func() {
			if err = r.client.Setup(); err != nil {
				return
			}
			if _, err = r.client.Read(query.Get{Key: "k"}); err != nil {
				return
			}
			r.s.Sleep(r.params.MaxLatency + time.Second)
			_, err = r.client.Read(query.Get{Key: "k"})
		})
		r.s.Run()
		if err != nil {
			t.Fatal(err)
		}
		st := r.client.Stats()
		if st.ReadsAccepted != 2 || st.StaleRejects != 1 || st.StampCacheHits != 1 || st.StampCacheMisses != 2 {
			t.Fatalf("stats: %+v", st)
		}
		if len(r.refs) != 3 || len(r.refs[0]) != 0 || len(r.refs[1]) != stampRefLen || len(r.refs[2]) != 0 {
			t.Fatalf("stamp references sent: %x, want none, the held stamp's, none", r.refs)
		}
	})
}

// TestClientHeldStampConcurrent: several readers share one client and its
// one slave, a real one, while a master announces batches, which the slave
// fetches, and sends keep-alives that replace the slave's stamp under them. Each reader completes a reply that
// leaves the stamp out from the stamp its own request named, whatever
// another reader stored meanwhile: every version moves the pledge's signed
// statement, so a reply completed from any other stamp would fail its
// signature. The auditor never vouches, so every pledge is verified. Run
// under -race (make race does, ten times).
func TestClientHeldStampConcurrent(t *testing.T) {
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	master := cryptoutil.DeriveKeyPair("master", 0)
	slaveKeys := cryptoutil.DeriveKeyPair("slave", 0)
	trusted := []cryptoutil.PublicKey{master.Public}
	params := DefaultParams()
	params.DoubleCheckP = 0
	initial := store.New()
	initial.Apply(store.Put{Key: "k", Value: []byte("v")})
	log := new(batchLog)
	sl := NewSlave(SlaveConfig{
		Addr: "slave", Keys: slaveKeys, Params: params, MasterAddr: "master", MasterPubs: trusted,
	}, sim.RealClock{}, log, initial)
	dir := pki.NewDirectory()
	mcert := pki.Certificate{Role: pki.RoleMaster, Addr: "master", Subject: master.Public}
	mcert.Sign(owner)
	dir.Publish(owner.Public, mcert)
	scert := pki.Certificate{Role: pki.RoleSlave, Addr: "slave", Subject: slaveKeys.Public}
	scert.Sign(master)
	dlr := handlerDialer{
		"master": func(from, method string, body []byte) ([]byte, error) {
			w := wire.NewWriter(256)
			w.Uvarint(1)
			scert.Encode(w)
			return w.Bytes(), nil
		},
		"slave":   sl.Handle,
		"auditor": func(from, method string, body []byte) ([]byte, error) { return nil, nil },
	}
	c := NewClient(ClientConfig{
		Addr: "client", Keys: cryptoutil.DeriveKeyPair("client", 0), Params: params,
		ContentKey: owner.Public, Directory: BoundDirectory{Dir: dir, ContentKey: owner.Public},
		AuditorAddr: "auditor", PreferredMaster: 0, Seed: 1,
	}, sim.RealClock{}, dlr)
	keepAlive := func() error {
		_, err := announce(sl, SignStamp(master, sl.Version(), time.Now()))
		return err
	}
	if err := keepAlive(); err != nil {
		t.Fatal(err)
	}
	if err := c.Setup(); err != nil {
		t.Fatal(err)
	}

	const batches, readers = 16, 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the master: a batch, then keep-alives at its version
		defer wg.Done()
		defer close(stop)
		for b := 0; b < batches; b++ {
			bu := signedBatch(master, uint64(b+2), waveOps(1), time.Now())
			log.add(bu)
			if _, err := announce(sl, bu.Stamp); err != nil {
				t.Errorf("batch %d: %v", b, err)
				return
			}
			if err := awaitVersion(sl, bu.Last()); err != nil {
				t.Errorf("batch %d: %v", b, err)
				return
			}
			for k := 0; k < 3; k++ {
				if err := keepAlive(); err != nil {
					t.Errorf("keep-alive: %v", err)
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				payload, err := c.Read(query.Get{Key: "k"})
				if v, _, _ := query.GetResult(payload); err != nil || string(v) != "v" {
					t.Errorf("read: %q, %v", v, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.BadPledges != 0 || st.Retries != 0 || st.PledgesVerified != st.ReadsAccepted {
		t.Fatalf("stats: %+v", st)
	}
	if st.StampCacheHits == 0 || st.StampCacheMisses < 2 {
		t.Fatalf("%d replies completed from a held stamp, %d stamps whole: the test did not exercise both", st.StampCacheHits, st.StampCacheMisses)
	}
	t.Logf("%d reads: %d completed from a held stamp, %d stamps whole", st.ReadsAccepted, st.StampCacheHits, st.StampCacheMisses)
}

// verifyUnvouched runs one reply through every check a read the auditor
// does not vouch for makes, in readOnce's order, naming the stamp the
// client holds from sl.
func verifyUnvouched(c *Client, sl *slaveAssignment, masters []cryptoutil.PublicKey, qb []byte, reply *ReadReply) error {
	c.mu.Lock()
	held := sl.stamp
	c.mu.Unlock()
	if err := c.checkReply(sl, held, masters, qb, reply); err != nil {
		return err
	}
	return c.verifyPledge(sl, &reply.Pledge)
}

// withAuditor puts an auditor over the rig's content where the scripted
// one was; every body is still recorded.
func (r *clientRig) withAuditor(t *testing.T) *Auditor {
	t.Helper()
	aud := r.newAuditor(t)
	r.net.Register("auditor", func(from, method string, body []byte) ([]byte, error) {
		r.forwarded = append(r.forwarded, bytes.Clone(body))
		return aud.Handle(from, method, body)
	})
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
		if st := r.client.Stats(); st.PledgesVerified != 0 {
			t.Errorf("the first read, vouched on execution, made %d pledge checks, want none", st.PledgesVerified)
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
		if after.ReadsAccepted != before.ReadsAccepted+1 || after.PledgesVerified != before.PledgesVerified {
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
		if after.LiesAccepted != 1 || after.PledgesVerified != before.PledgesVerified+1 {
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
// garbage, so every other ack leaves the read refused, after every retry.
// The first attempt, which asks no signature up front, sends the statement
// form and, on pledgeEvidence (0x02), the evidence form once more: the
// scripted auditor answers the evidence the same way, and the attempt is
// refused after that one round trip more. Each retry holds a stamp newer
// than any vouched version, so it asks for the signature up front and
// sends the evidence form at once, in one a.pledge call.
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
		want := []byte{pledgeFormStatement}
		if bytes.Equal(tc.ack, pledgeEvidence) {
			want = append(want, pledgeFormEvidence)
		}
		for range st.PledgesSent - 1 {
			want = append(want, pledgeFormEvidence)
		}
		var forms []byte
		for _, body := range r.forwarded {
			forms = append(forms, body[0])
		}
		if !bytes.Equal(forms, want) {
			t.Errorf("ack %x: a.pledge forms %v for %d attempts, want %v", tc.ack, forms, st.PledgesSent, want)
		}
		if tc.accept {
			if err != nil || st.ReadsAccepted != 1 || st.PledgesVerified != 0 || st.PledgesSent != 1 {
				t.Errorf("ack %x: err %v, %+v", tc.ack, err, st)
			}
			continue
		}
		if err == nil || st.ReadsAccepted != 0 || st.BadPledges != st.PledgesSent || st.PledgesSent != uint64(r.params.MaxReadRetries)+1 {
			t.Errorf("ack %x: err %v, %+v", tc.ack, err, st)
		}
	}
}

// TestClientSendsEvidenceOnce: an auditor that answers pledgeEvidence to
// both of an attempt's a.pledge calls gets exactly two. The first carries
// the statement and no signature, the second the evidence frame, and then
// the pledge verify decides: a right answer under the slave's signature
// is accepted, one under a garbage signature refused.
func TestClientSendsEvidenceOnce(t *testing.T) {
	for _, forge := range []bool{false, true} {
		r := newClientRig(t)
		r.client.cfg.Params.MaxReadRetries = 0
		r.ack = pledgeEvidence
		var sent Pledge
		r.mutate = func(rr *ReadReply) {
			if forge {
				rr.Pledge.Sig = bytes.Clone(rr.Pledge.Sig)
				rr.Pledge.Sig[0] ^= 0xff
			}
			sent = rr.Pledge
		}
		_, err := r.readOnce(t)
		if (err == nil) == forge {
			t.Fatalf("forged %v: err %v", forge, err)
		}
		st := r.client.Stats()
		if len(r.forwarded) != 2 || st.PledgesSent != 1 || st.PledgesVerified != 1 || (st.BadPledges == 1) != forge {
			t.Fatalf("forged %v: %d a.pledge calls, %+v", forge, len(r.forwarded), st)
		}
		sent.SlavePub = r.slaveKeys.Public
		if bytes.Contains(r.forwarded[0], sent.Sig) || !bytes.Equal(r.forwarded[0], statements(sent)) {
			t.Fatalf("forged %v: the first call is not the statement body", forge)
		}
		if !bytes.Equal(r.forwarded[1], evidence(sent)) {
			t.Fatalf("forged %v: the second call is not the evidence body", forge)
		}
	}
}

// TestClientVouchVerifyRule: with every read double-checked against the
// scripted master, a client verifies a slave's signature only where it
// relies on it — after the forward, for an answer the auditor did not
// vouch for, and before it files a report — never ahead of the
// double-check. Each row is one attempt: the first reply may be wrong
// (lie) and may carry a signature its slave never made (forge), and the
// master's m.check answer may be malformed (emptyDigest): that fails the
// attempt, and convicts nobody.
func TestClientVouchVerifyRule(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		vouch, lie, forge      bool
		emptyDigest            bool
		accept                 bool
		verified, bad, reports uint64
		forwarded, replaced    bool
	}{
		{name: "vouched right answer", vouch: true, accept: true, forwarded: true},
		{name: "unvouched right answer", accept: true, verified: 1, forwarded: true},
		{name: "vouched right answer, garbage signature", vouch: true, forge: true, accept: true, forwarded: true},
		{name: "unvouched right answer, garbage signature", forge: true, verified: 1, bad: 1, forwarded: true},
		{name: "signed lie", vouch: true, lie: true, verified: 1, reports: 1, replaced: true},
		{name: "garbage-signed lie", vouch: true, lie: true, forge: true, verified: 1, bad: 1},
		{name: "right answer, m.check digest empty", vouch: true, emptyDigest: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newClientRig(t)
			r.client.cfg.Params.DoubleCheckP = 1
			r.client.cfg.Params.MaxReadRetries = 0
			r.emptyDigest = tc.emptyDigest
			if tc.vouch {
				r.ack = pledgeVouch
			}
			switch {
			case tc.lie:
				r.lie(tc.forge)
			case tc.forge:
				r.mutate = func(rr *ReadReply) {
					rr.Pledge.Sig = bytes.Clone(rr.Pledge.Sig)
					rr.Pledge.Sig[0] ^= 0xff
				}
			}
			_, err := r.readOnce(t)
			if (err == nil) != tc.accept {
				t.Fatalf("err = %v, want accepted: %v", err, tc.accept)
			}
			st := r.client.Stats()
			if st.DoubleChecks != 1 || st.PledgesVerified != tc.verified || st.BadPledges != tc.bad ||
				st.ReportsFiled != tc.reports || st.CaughtImmediate != tc.reports {
				t.Errorf("%d double-checks, %d verified, %d bad, %d reports filed, %d caught; want 1, %d, %d, %d, %d: %+v",
					st.DoubleChecks, st.PledgesVerified, st.BadPledges, st.ReportsFiled, st.CaughtImmediate,
					tc.verified, tc.bad, tc.reports, tc.reports, st)
			}
			if uint64(len(r.reports)) != tc.reports || (len(r.forwarded) == 1) != tc.forwarded {
				t.Errorf("%d reports reached the master, %d bodies the auditor", len(r.reports), len(r.forwarded))
			}
			if replaced := len(r.excludes) > 1; replaced != tc.replaced {
				t.Errorf("slave replaced: %v, want %v (m.getslave exclusions %q)", replaced, tc.replaced, r.excludes)
			}
		})
	}
}

// TestClientVouchKSlaveDisagreement: two slaves disagree, one with a lie
// under a signature it never made, one with a lie it signed. The client
// double-checks with the master and verifies each pledge only as it
// reports it: the signed liar is reported and replaced, the forgery
// frames nobody.
func TestClientVouchKSlaveDisagreement(t *testing.T) {
	r := newClientRig(t)
	r.client.cfg.KSlaves = 2
	r.client.cfg.Params.MaxReadRetries = 0
	r.lie(true)
	liar := cryptoutil.DeriveKeyPair("slave", 2)
	r.addSlave(rigSlave{addr: "slave-2", keys: liar, mutate: func(rr *ReadReply) {
		rr.Payload = query.Encode(query.Get{Key: "another wrong answer"})
		rr.Pledge = SignPledge(liar, rr.Pledge.QueryBytes, cryptoutil.HashBytes(rr.Payload), rr.Pledge.Stamp)
	}})
	if _, err := r.readOnce(t); !errors.Is(err, errRetry) {
		t.Fatalf("disagreeing read: %v", err)
	}
	st := r.client.Stats()
	if st.KMismatch != 1 || st.PledgesVerified != 2 || st.BadPledges != 1 || st.ReportsFiled != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if len(r.reports) != 1 {
		t.Fatalf("%d reports reached the master, want 1", len(r.reports))
	}
	rd := wire.NewReader(r.reports[0])
	p, err := DecodePledge(wire.NewReader(rd.Bytes()))
	if err != nil || !bytes.Equal(p.SlavePub, liar.Public) || p.VerifySig() != nil {
		t.Errorf("the report is not the liar's signed pledge: %v", err)
	}
	if len(r.excludes) != 2 || !slices.Equal(r.excludes[1], []string{"slave-2"}) {
		t.Errorf("m.getslave exclusions %q, want the liar's replacement", r.excludes)
	}
}
