package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

// auditorRig wires a bare auditor with a scripted master endpoint.
type auditorRig struct {
	s       *sim.Sim
	net     *rpc.SimNet
	auditor *Auditor
	master  *cryptoutil.KeyPair
	slave   *cryptoutil.KeyPair
	reports [][]byte // m.report bodies the master accepted
	refuse  int      // how many m.reports the master refuses before it accepts
	initial *store.Store
	params  Params
	seq     uint64 // broadcast slots commit has delivered
}

// rigKeys are the master, slave and auditor keys of every auditor rig,
// derived once.
var rigKeys = sync.OnceValue(func() [3]*cryptoutil.KeyPair {
	return [3]*cryptoutil.KeyPair{
		cryptoutil.DeriveKeyPair("master", 0),
		cryptoutil.DeriveKeyPair("slave", 0),
		cryptoutil.DeriveKeyPair("auditor", 0),
	}
})

func newAuditorRig(t testing.TB, mut func(*AuditorConfig)) *auditorRig {
	t.Helper()
	s := sim.New(1)
	net := rpc.NewSimNet(s, sim.Const(time.Millisecond))
	initial := store.New()
	initial.Apply(store.Put{Key: "k", Value: []byte("v")})
	keys := rigKeys()
	r := &auditorRig{
		s: s, net: net,
		master:  keys[0],
		slave:   keys[1],
		initial: initial,
		params:  DefaultParams(),
	}
	cfg := AuditorConfig{
		Addr:        "auditor",
		Keys:        keys[2],
		Params:      r.params,
		Peers:       []string{"master", "auditor"},
		MasterAddrs: []string{"master"},
		MasterPubs:  []cryptoutil.PublicKey{r.master.Public},
		Seed:        1,
	}
	if mut != nil {
		mut(&cfg)
	}
	aud, err := NewAuditor(cfg, s, net.Dialer("auditor"), initial)
	if err != nil {
		t.Fatal(err)
	}
	r.auditor = aud
	net.Register("auditor", aud.Handle)
	net.Register("master", func(from, method string, body []byte) ([]byte, error) {
		if method == MethodReport {
			if r.refuse > 0 {
				r.refuse--
				return nil, ErrNotProven
			}
			r.reports = append(r.reports, body)
			return nil, nil
		}
		return nil, nil // swallow broadcast traffic
	})
	return r
}

// pledgeFor builds a pledge at the rig's current content version.
func (r *auditorRig) pledgeFor(q query.Query, lie bool) Pledge {
	res, err := q.Execute(r.initial)
	if err != nil {
		panic(err)
	}
	h := res.Digest()
	if lie {
		h = cryptoutil.HashBytes(append(res.Payload, 0xee))
	}
	stamp := SignStamp(r.master, r.initial.Version(), r.s.Now())
	return SignPledge(r.slave, query.Encode(q), h, stamp)
}

// commit delivers ops to the auditor as the next ordered batch, as the
// broadcast would, and applies them to the rig's content, so later
// pledges are built at the version they make.
func (r *auditorRig) commit(ops ...store.Op) { r.commitAfter(0, ops...) }

// commitAfter is commit with the delivery d later, as a broadcast that
// lags by d would make it; the rig's content moves at once, so pledges
// built meanwhile are ahead of the auditor's delivery.
func (r *auditorRig) commitAfter(d time.Duration, ops ...store.Op) {
	r.seq++
	wave := queuedWave{}
	for _, op := range ops {
		wave.ops = append(wave.ops, store.EncodeOp(op))
		r.initial.Apply(op)
	}
	seq, msg := r.seq, encodeBatchMessage([]queuedWave{wave})
	if d == 0 {
		r.auditor.deliver(seq, msg, nil)
		return
	}
	r.s.GoAfter(d, func() { r.auditor.deliver(seq, msg, nil) })
}

// sendPledge forwards p as a client does (forward).
func (r *auditorRig) sendPledge(p Pledge) error {
	_, err := forward(r.auditor, p)
	return err
}

// forward sends a the pledges' statement body, and their evidence body
// when a asks for it, as Client.forwardPledges does, and returns the last
// ack.
func forward(a *Auditor, ps ...Pledge) ([]byte, error) {
	ack, err := a.Handle("client", MethodPledge, statements(ps...))
	if err == nil && bytes.Equal(ack, pledgeEvidence) {
		ack, err = a.Handle("client", MethodPledge, evidence(ps...))
	}
	return ack, err
}

// pledgeBody is the a.pledge body of the pledges in form.
func pledgeBody(form byte, ps ...Pledge) []byte {
	replies := make([]ReadReply, len(ps))
	for i := range ps {
		replies[i].Pledge = ps[i]
	}
	return encodePledgeBody(form, replies)
}

// statements is the statement body of the pledges; evidence their
// evidence body.
func statements(ps ...Pledge) []byte { return pledgeBody(pledgeFormStatement, ps...) }
func evidence(ps ...Pledge) []byte   { return pledgeBody(pledgeFormEvidence, ps...) }

// forged returns p under a signature the slave never made.
func forged(p Pledge) Pledge {
	p.Sig = append([]byte(nil), p.Sig...)
	p.Sig[0] ^= 0xff
	return p
}

// garbageQuery does not decode; badGrep decodes but does not execute.
var (
	garbageQuery = []byte{0xff, 0x01}
	badGrep      = query.Encode(query.Grep{Pattern: "("})
)

// signedQuery is a slave-signed pledge for a query no honest slave would
// have answered.
func (r *auditorRig) signedQuery(queryBytes []byte) Pledge {
	stamp := SignStamp(r.master, r.initial.Version(), r.s.Now())
	return SignPledge(r.slave, queryBytes, cryptoutil.Digest{}, stamp)
}

// audit forwards the pledges in order, runs the reports they start, and
// returns the auditor's counters.
func (r *auditorRig) audit(t *testing.T, pledges ...Pledge) AuditorStats {
	t.Helper()
	r.s.Go(func() {
		for _, p := range pledges {
			if err := r.sendPledge(p); err != nil {
				t.Errorf("pledge refused: %v", err)
			}
		}
	})
	r.s.Run()
	r.checkPartition(t)
	return r.auditor.Stats()
}

// added returns the counters after has added to before (the maxima are
// left out).
func added(before, after AuditorStats) AuditorStats {
	return AuditorStats{
		PledgesReceived: after.PledgesReceived - before.PledgesReceived,
		PledgesAudited:  after.PledgesAudited - before.PledgesAudited,
		PledgesSampled:  after.PledgesSampled - before.PledgesSampled,
		PledgesLate:     after.PledgesLate - before.PledgesLate,
		PledgesBadSig:   after.PledgesBadSig - before.PledgesBadSig,
		PledgesVouched:  after.PledgesVouched - before.PledgesVouched,
		CacheHits:       after.CacheHits - before.CacheHits,
		Mismatches:      after.Mismatches - before.Mismatches,
		ReportsSent:     after.ReportsSent - before.ReportsSent,
	}
}

// checkPartition asserts that every received pledge is queued or ended in
// exactly one of the audited / sampled / late / bad-signature buckets —
// the sum replbench's drain waits on — and that a lie is an audited pledge.
func (r *auditorRig) checkPartition(t *testing.T) {
	t.Helper()
	st := r.auditor.Stats()
	settled := st.PledgesAudited + st.PledgesSampled + st.PledgesLate + st.PledgesBadSig
	if settled+uint64(r.auditor.Backlog()) != st.PledgesReceived {
		t.Errorf("%d settled + %d queued != %d received: %+v", settled, r.auditor.Backlog(), st.PledgesReceived, st)
	}
	if st.Mismatches > st.PledgesAudited {
		t.Errorf("%d mismatches among %d audited pledges", st.Mismatches, st.PledgesAudited)
	}
}

// slaveDetected reports whether the auditor holds the rig's slave as a
// reported liar.
func (r *auditorRig) slaveDetected() bool {
	r.auditor.mu.Lock()
	defer r.auditor.mu.Unlock()
	return r.auditor.detected[string(r.slave.Public)]
}

// checkReport asserts that body is a report of a pledge the rig's slave
// really signed, under a valid auditor signature.
func (r *auditorRig) checkReport(t *testing.T, body []byte) {
	t.Helper()
	rr := wire.NewReader(body)
	pledgeBytes := rr.Bytes()
	sig := rr.Bytes()
	if err := rr.Done(); err != nil {
		t.Fatal(err)
	}
	if err := cryptoutil.Verify(r.auditor.PublicKey(), pledgeBytes, sig); err != nil {
		t.Errorf("auditor report signature: %v", err)
	}
	pr := wire.NewReader(pledgeBytes)
	p, err := DecodePledge(pr)
	if err != nil || pr.Done() != nil {
		t.Fatalf("reported pledge does not decode: %v", err)
	}
	if !bytes.Equal(p.SlavePub, r.slave.Public) {
		t.Error("reported pledge names another slave")
	}
	if err := p.VerifySig(); err != nil {
		t.Errorf("reported pledge does not verify under the slave key: %v", err)
	}
}

// TestAuditorVerifiesOnEvidence pins the audit order: the result hash is
// compared first and the slave's signature is checked only on a pledge
// that disagrees — so an honest pledge costs no verification whoever
// signed it, and nothing is counted as a lie, remembered or reported
// without one. Every pledge is at the version of a delivered batch that
// rewrote k: the handler settles the pledge on arrival against the
// content there. Each is forwarded as a client does: a wrong answer's
// statement executes its query and asks for the evidence, whose audit
// then hits the cache.
func TestAuditorVerifiesOnEvidence(t *testing.T) {
	get := query.Get{Key: "k"}
	for _, tc := range []struct {
		name    string
		pledges func(r *auditorRig) []Pledge
		want    AuditorStats // counters compared below; PledgesReceived is len(pledges)
		report  bool
	}{
		{"valid sig, right hash",
			func(r *auditorRig) []Pledge { return []Pledge{r.pledgeFor(get, false)} },
			AuditorStats{PledgesAudited: 1, PledgesVouched: 1}, false},
		{"forged sig, right hash",
			func(r *auditorRig) []Pledge { return []Pledge{forged(r.pledgeFor(get, false))} },
			AuditorStats{PledgesAudited: 1, PledgesVouched: 1}, false},
		{"valid sig, wrong hash",
			func(r *auditorRig) []Pledge { return []Pledge{r.pledgeFor(get, true)} },
			AuditorStats{PledgesAudited: 1, CacheHits: 1, Mismatches: 1, ReportsSent: 1}, true},
		{"forged sig, wrong hash, twice", // each copy is verified, and refused
			func(r *auditorRig) []Pledge {
				p := forged(r.pledgeFor(get, true))
				return []Pledge{p, p}
			},
			AuditorStats{PledgesBadSig: 2, CacheHits: 2}, false},
		{"valid sig, garbage query",
			func(r *auditorRig) []Pledge { return []Pledge{r.signedQuery(garbageQuery)} },
			AuditorStats{PledgesAudited: 1, Mismatches: 1, ReportsSent: 1}, true},
		{"forged sig, garbage query", // the row a reorder that reports before verifying breaks
			func(r *auditorRig) []Pledge { return []Pledge{forged(r.signedQuery(garbageQuery))} },
			AuditorStats{PledgesBadSig: 1}, false},
		{"valid sig, unexecutable query",
			func(r *auditorRig) []Pledge { return []Pledge{r.signedQuery(badGrep)} },
			AuditorStats{PledgesAudited: 1, Mismatches: 1, ReportsSent: 1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newAuditorRig(t, nil)
			r.commit(store.Put{Key: "k", Value: []byte("v2")})
			pledges := tc.pledges(r)
			st := r.audit(t, pledges...)
			tc.want.PledgesReceived = uint64(len(pledges))
			tc.want.VersionLagMax = 1 // the content before and after the write to k, held together
			if st != tc.want {
				t.Errorf("stats:\n got %+v\nwant %+v", st, tc.want)
			}
			if got := r.slaveDetected(); got != tc.report {
				t.Errorf("slave detected = %v, want %v", got, tc.report)
			}
			if !tc.report {
				if len(r.reports) != 0 {
					t.Fatalf("%d reports, want none", len(r.reports))
				}
				return
			}
			if len(r.reports) != 1 {
				t.Fatalf("%d reports, want 1", len(r.reports))
			}
			r.checkReport(t, r.reports[0])
		})
	}
}

func TestAuditorHonestPledgePasses(t *testing.T) {
	r := newAuditorRig(t, nil)
	st := r.audit(t, r.pledgeFor(query.Get{Key: "k"}, false))
	if st.PledgesAudited != 1 || st.Mismatches != 0 || len(r.reports) != 0 {
		t.Fatalf("stats: %+v reports=%d", st, len(r.reports))
	}
}

func TestAuditorLieDetectedAndReportedSigned(t *testing.T) {
	r := newAuditorRig(t, nil)
	st := r.audit(t, r.pledgeFor(query.Get{Key: "k"}, true))
	if st.Mismatches != 1 || st.ReportsSent != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if len(r.reports) != 1 {
		t.Fatalf("reports = %d", len(r.reports))
	}
	// The report must carry the pledge and a valid auditor signature.
	r.checkReport(t, r.reports[0])
}

func TestAuditorCacheHitsForRepeatedQueries(t *testing.T) {
	r := newAuditorRig(t, nil)
	p := r.pledgeFor(query.Get{Key: "k"}, false)
	st := r.audit(t, p, p, p, p, p)
	if st.PledgesAudited != 5 {
		t.Fatalf("audited = %d", st.PledgesAudited)
	}
	if st.CacheHits != 4 {
		t.Fatalf("cache hits = %d, want 4", st.CacheHits)
	}
	// Five honest pledges: no signature is looked at.
	if verifies := st.PledgesBadSig + st.Mismatches; verifies != 0 {
		t.Fatalf("%d pledge verifications, want none", verifies)
	}
}

func TestAuditorSamplingSkips(t *testing.T) {
	r := newAuditorRig(t, func(c *AuditorConfig) {
		c.Params.AuditSampleP = 0.0 // audit nothing
	})
	lies := make([]Pledge, 10)
	for i := range lies {
		lies[i] = r.pledgeFor(query.Get{Key: "k"}, true)
	}
	st := r.audit(t, lies...)
	if st.PledgesSampled != 10 || st.PledgesAudited != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestAuditorBadSignatureDropped(t *testing.T) {
	r := newAuditorRig(t, nil)
	p := forged(r.pledgeFor(query.Get{Key: "k"}, true)) // a forged pledge cannot frame the slave
	st := r.audit(t, p, p)                              // nor can a second copy
	if st.PledgesBadSig != 2 || st.ReportsSent != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestAuditorGarbageQueryIsProof(t *testing.T) {
	r := newAuditorRig(t, nil)
	if st := r.audit(t, r.signedQuery(garbageQuery)); st.ReportsSent != 1 {
		t.Fatalf("signed garbage query not reported: %+v", st)
	}
}

func TestAuditorDuplicateLiarReportedOnce(t *testing.T) {
	r := newAuditorRig(t, nil)
	lie := r.pledgeFor(query.Count{P: ""}, true)
	st := r.audit(t, lie, lie, lie, lie)
	if st.Mismatches != 4 {
		t.Fatalf("stats: %+v", st)
	}
	if st.ReportsSent != 1 {
		t.Fatalf("reports sent = %d, want 1 (dedup per slave)", st.ReportsSent)
	}
}

// TestAuditorReReportsRefusedLiar: when no master accepts the report of a
// slave's lie, the auditor forgets that it detected the slave, so the
// slave's next lie is reported again — and accepted.
func TestAuditorReReportsRefusedLiar(t *testing.T) {
	r := newAuditorRig(t, nil)
	r.refuse = 1
	r.s.Go(func() {
		defer r.s.Stop()
		if err := r.sendPledge(r.pledgeFor(query.Get{Key: "k"}, true)); err != nil {
			t.Error(err)
		}
		r.s.Sleep(r.params.KeepAliveEvery) // the report is refused
		if r.refuse != 0 || r.slaveDetected() {
			t.Errorf("after the refused report: %d refusals left, slave detected %v", r.refuse, r.slaveDetected())
		}
		if err := r.sendPledge(r.pledgeFor(query.Count{P: ""}, true)); err != nil {
			t.Error(err)
		}
		r.s.Sleep(r.params.KeepAliveEvery)
	})
	r.s.Run()
	if st := r.auditor.Stats(); st.Mismatches != 2 || st.ReportsSent != 2 || !r.slaveDetected() {
		t.Fatalf("stats: %+v, slave detected %v", st, r.slaveDetected())
	}
	if len(r.reports) != 1 {
		t.Fatalf("%d reports accepted, want the second", len(r.reports))
	}
	r.checkReport(t, r.reports[0])
}

func TestAuditorLatePledgeCounted(t *testing.T) {
	r := newAuditorRig(t, nil)
	r.s.Go(func() {
		// A pledge for a version below the replica's.
		stamp := SignStamp(r.master, 0, r.s.Now())
		p := SignPledge(r.slave, query.Encode(query.Get{Key: "k"}), cryptoutil.Digest{}, stamp)
		r.sendPledge(p)
	})
	r.s.Run()
	if r.auditor.Stats().PledgesLate != 1 {
		t.Fatalf("stats: %+v", r.auditor.Stats())
	}
	r.checkPartition(t)
}

// TestAuditorAppliesOnDelivery: the auditor's version is the delivered
// one as soon as deliver returns, with no pledge to bring it there, and
// the content at that version answers at once.
func TestAuditorAppliesOnDelivery(t *testing.T) {
	r := newAuditorRig(t, nil)
	for i := 0; i < 3; i++ {
		r.commit(store.Put{Key: "k", Value: []byte{byte(i)}}, store.Put{Key: "j", Value: []byte{byte(i)}})
		if got, want := r.auditor.Version(), r.initial.Version(); got != want {
			t.Fatalf("after delivery %d: auditor at version %d, want %d", i+1, got, want)
		}
	}
	r.auditor.mu.Lock()
	w := r.auditor.viewLocked(r.initial.Version(), r.s.Now())
	r.auditor.mu.Unlock()
	if w == nil || w.content.StateDigest() != r.initial.StateDigest() {
		t.Fatal("no view holds the delivered content")
	}
}

// TestAuditorAdvancesAfterWindow pins how long the auditor answers at a
// version a later batch superseded: until max_latency + slack after that
// batch was delivered, when no client accepts a read there any more. The
// batch is applied when it is delivered; a pledge at the old version is
// still audited inside the window, and late after it.
func TestAuditorAdvancesAfterWindow(t *testing.T) {
	r := newAuditorRig(t, nil)
	old := r.pledgeFor(query.Get{Key: "w"}, false)
	window := r.params.MaxLatency + r.params.AuditorSlack
	r.s.Go(func() {
		r.commit(store.Put{Key: "w", Value: []byte("1")})
		r.s.Sleep(2 * r.params.KeepAliveEvery)
		if got := r.auditor.Version(); got != r.initial.Version() {
			t.Errorf("the batch is not applied: version %d, want %d", got, r.initial.Version())
		}
		r.s.Sleep(window - 3*r.params.KeepAliveEvery)
		r.sendPledge(old)
		if st := r.auditor.Stats(); st.PledgesAudited != 1 || st.PledgesLate != 0 {
			t.Errorf("inside the window: %+v", st)
		}
		r.s.Sleep(2 * r.params.KeepAliveEvery)
		r.sendPledge(old)
		r.sendPledge(r.pledgeFor(query.Get{Key: "w"}, false))
		if st := r.auditor.Stats(); st.PledgesAudited != 2 || st.PledgesLate != 1 {
			t.Errorf("after the window: %+v", st)
		}
		r.s.Stop()
	})
	r.s.Run()
	r.checkPartition(t)
}

// nopDialer swallows the auditor's reports where no simulation runs.
type nopDialer struct{}

func (nopDialer) CallTimeout(string, string, []byte, time.Duration) ([]byte, error) {
	return nil, nil
}

// pledges builds n pledges for one query that differ in their stamp.
func (r *auditorRig) pledges(n int, lie bool) []Pledge {
	ps := make([]Pledge, n)
	for i := range ps {
		p := r.pledgeFor(query.Get{Key: "k"}, lie)
		p.Stamp = SignStamp(r.master, r.initial.Version(), r.s.Now().Add(time.Duration(i)))
		ps[i] = SignPledge(r.slave, p.QueryBytes, p.ResultHash, p.Stamp)
	}
	return ps
}

// bodies encodes each pledge's statement and evidence bodies.
func bodies(ps []Pledge) (stmts, evs [][]byte) {
	for _, p := range ps {
		stmts, evs = append(stmts, statements(p)), append(evs, evidence(p))
	}
	return stmts, evs
}

// TestAuditorHonestPledgeAllocs pins what an honest pledge costs the
// allocator: its statement body is decoded by view and settled on arrival
// by one probe of the view's answer cache (the first by executing its
// query).
func TestAuditorHonestPledgeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	r := newAuditorRig(t, nil)
	frames, _ := bodies(r.pledges(64, false))
	i := 0
	n := testing.AllocsPerRun(1000, func() {
		if _, err := r.auditor.handlePledge(frames[i%len(frames)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if n > 2 {
		t.Fatalf("an admitted and audited honest pledge allocates %v times, want <= 2", n)
	}
	if st := r.auditor.Stats(); st.PledgesAudited != uint64(i) || st.CacheHits != uint64(i-1) {
		t.Fatalf("stats: %+v after %d pledges", st, i)
	}
	r.checkPartition(t)
}

// TestAuditorConcurrentAdmitAndAudit has handlers settle pledges while
// batches are delivered and applied, as over TCP, where every request
// runs on its own goroutine. One sender lies at the initial version, two
// pledge honestly there, and one pledges ahead of delivery, so its frames
// wait in pending until the delivery of their version settles them.
// Under -race it checks the hand-over; in any build, that nothing is lost
// or counted twice, and that nothing waits once the last batch and the
// last frame are in.
func TestAuditorConcurrentAdmitAndAudit(t *testing.T) {
	r := newAuditorRig(t, nil)
	a := r.auditor
	a.dlr = nopDialer{}
	a.rt = sim.RealClock{}
	const senders, each, batches = 4, 64, 8
	cur := r.initial.Version()
	honest, lies := r.pledges(each, false), r.pledges(each, true)
	ahead := make([]Pledge, each)
	for i, p := range r.pledges(each, false) {
		ahead[i] = r.resign(p, cur+1+uint64(i%batches)) // the writes leave k alone
	}
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		ps := [][]Pledge{lies, honest, honest, ahead}[g]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range ps {
				if _, err := forward(a, p); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for i := uint64(1); i <= batches; i++ {
		op := store.EncodeOp(store.Put{Key: "w", Value: []byte{byte(i)}})
		a.deliver(i, encodeBatchMessage([]queuedWave{{ops: [][]byte{op}}}), nil)
	}
	wg.Wait()
	st := a.Stats()
	if st.PledgesReceived != senders*each || st.PledgesAudited != senders*each ||
		st.Mismatches != each || st.ReportsSent != 1 || a.Backlog() != 0 || a.Version() != cur+batches {
		t.Fatalf("stats: %+v backlog %d version %d", st, a.Backlog(), a.Version())
	}
	r.checkPartition(t)
}

// BenchmarkAuditPledge is the auditor's row of the layer ledger: one
// pledge settled on arrival, its statement body and, for a lie, the
// evidence body the auditor asks for, with the slave-signature
// verifications it cost (PledgesBadSig + Mismatches: only a pledge the
// content contradicts is verified).
func BenchmarkAuditPledge(b *testing.B) {
	for _, bc := range []struct {
		name    string
		lie     bool
		recache bool // the query was already executed at this version
	}{
		{"honest_hit", false, true},
		{"honest_miss", false, false},
		{"lie", true, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := newAuditorRig(b, nil)
			a := r.auditor
			a.dlr = nopDialer{}
			stmts, evs := bodies(r.pledges(1024, bc.lie))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !bc.recache {
					clear(a.views[0].answers)
				}
				ack, err := a.handlePledge(stmts[i%len(stmts)])
				if err == nil && bytes.Equal(ack, pledgeEvidence) {
					_, err = a.handlePledge(evs[i%len(evs)])
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := a.Stats()
			if st.PledgesAudited != uint64(b.N) || (st.Mismatches != 0) != bc.lie {
				b.Fatalf("stats: %+v", st)
			}
			b.ReportMetric(float64(st.PledgesBadSig+st.Mismatches)/float64(b.N), "verifies/op")
		})
	}
}

// resign returns p at version v, under the rig master's stamp for v and
// the rig slave's signature.
func (r *auditorRig) resign(p Pledge, v uint64) Pledge {
	return SignPledge(r.slave, p.QueryBytes, p.ResultHash, SignStamp(r.master, v, p.Stamp.Timestamp))
}

// TestAuditorVouchTable pins how the auditor answers a.pledge bodies at
// the newest content's version. A statement body is vouched for when
// every frame agrees with the answer the view's cache holds or, on a miss,
// the answer executed there and then; it is answered pledgeEvidence, and
// counts nothing, when a frame disagrees or is ahead of delivery, and the
// evidence body of the same frames then settles them: a lie convicted
// there and then, a frame ahead of delivery left waiting. An evidence body
// is settled the same way, without the sampling coin. Each row starts
// from an auditor that has audited Get k at its version.
func TestAuditorVouchTable(t *testing.T) {
	k, other := query.Get{Key: "k"}, query.Get{Key: "other"}
	stmt, ev := pledgeFormStatement, pledgeFormEvidence
	for _, tc := range []struct {
		name    string
		sample  float64 // AuditSampleP
		form    byte
		pledges func(r *auditorRig) []Pledge
		cut     int    // bytes cut off the body's end
		ack     []byte // the reply to the body
		evAck   []byte // on pledgeEvidence, the reply to the evidence body that follows
		err     bool
		queued  int          // the frames left waiting for delivery
		want    AuditorStats // counters the bodies add on arrival
	}{
		{"cached and agreeing", 1, stmt, func(r *auditorRig) []Pledge {
			return []Pledge{r.pledgeFor(k, false)}
		}, 0, pledgeVouch, nil, false, 0, AuditorStats{PledgesReceived: 1, PledgesAudited: 1, PledgesVouched: 1, CacheHits: 1}},
		{"two slaves, both agreeing", 1, stmt, func(r *auditorRig) []Pledge {
			return []Pledge{r.pledgeFor(k, false), r.pledgeFor(k, false)}
		}, 0, pledgeVouch, nil, false, 0, AuditorStats{PledgesReceived: 2, PledgesAudited: 2, PledgesVouched: 2, CacheHits: 2}},
		{"uncached", 1, stmt, func(r *auditorRig) []Pledge { // executed on arrival
			return []Pledge{r.pledgeFor(other, false)}
		}, 0, pledgeVouch, nil, false, 0, AuditorStats{PledgesReceived: 1, PledgesAudited: 1, PledgesVouched: 1}},
		{"two slaves, one uncached frame", 1, stmt, func(r *auditorRig) []Pledge {
			return []Pledge{r.pledgeFor(k, false), r.pledgeFor(other, false)}
		}, 0, pledgeVouch, nil, false, 0, AuditorStats{PledgesReceived: 2, PledgesAudited: 2, PledgesVouched: 2, CacheHits: 1}},
		{"cached but disagreeing", 1, stmt, func(r *auditorRig) []Pledge {
			return []Pledge{r.pledgeFor(k, true)}
		}, 0, pledgeEvidence, nil, false, 0, AuditorStats{PledgesReceived: 1, PledgesAudited: 1, CacheHits: 1, Mismatches: 1, ReportsSent: 1}},
		{"uncached and disagreeing", 1, stmt, func(r *auditorRig) []Pledge {
			return []Pledge{r.pledgeFor(other, true)} // executed on the statement; the evidence hits
		}, 0, pledgeEvidence, nil, false, 0, AuditorStats{PledgesReceived: 1, PledgesAudited: 1, CacheHits: 1, Mismatches: 1, ReportsSent: 1}},
		{"two slaves, one lying frame", 1, stmt, func(r *auditorRig) []Pledge {
			return []Pledge{r.pledgeFor(k, false), r.pledgeFor(k, true)}
		}, 0, pledgeEvidence, nil, false, 0, AuditorStats{PledgesReceived: 2, PledgesAudited: 2, CacheHits: 2, Mismatches: 1, ReportsSent: 1}},
		{"replica behind", 1, stmt, func(r *auditorRig) []Pledge { // ahead of delivery: waits
			p := r.pledgeFor(k, false)
			return []Pledge{r.resign(p, p.Stamp.Version+1)}
		}, 0, pledgeEvidence, nil, false, 1, AuditorStats{PledgesReceived: 1}},
		{"late", 1, stmt, func(r *auditorRig) []Pledge {
			p := r.pledgeFor(k, false)
			return []Pledge{r.resign(p, p.Stamp.Version-1)}
		}, 0, nil, nil, false, 0, AuditorStats{PledgesReceived: 1, PledgesLate: 1}},
		{"sampled out", 0, stmt, func(r *auditorRig) []Pledge {
			return []Pledge{r.pledgeFor(k, true)} // a lie the coin skips: nothing asks for its evidence
		}, 0, nil, nil, false, 0, AuditorStats{PledgesReceived: 1, PledgesSampled: 1}},
		{"undecodable", 1, stmt, func(r *auditorRig) []Pledge {
			return []Pledge{r.pledgeFor(k, false)}
		}, 1, nil, nil, true, 0, AuditorStats{}},
		{"evidence, cached and agreeing", 1, ev, func(r *auditorRig) []Pledge {
			return []Pledge{r.pledgeFor(k, false)}
		}, 0, pledgeVouch, nil, false, 0, AuditorStats{PledgesReceived: 1, PledgesAudited: 1, PledgesVouched: 1, CacheHits: 1}},
		{"evidence, uncached and disagreeing", 1, ev, func(r *auditorRig) []Pledge { // executed, then convicted, on arrival
			return []Pledge{r.pledgeFor(other, true)}
		}, 0, nil, nil, false, 0, AuditorStats{PledgesReceived: 1, PledgesAudited: 1, Mismatches: 1, ReportsSent: 1}},
		{"two slaves, one uncached lying frame", 1, ev, func(r *auditorRig) []Pledge {
			return []Pledge{r.pledgeFor(k, false), r.pledgeFor(other, true)}
		}, 0, nil, nil, false, 0, AuditorStats{PledgesReceived: 2, PledgesAudited: 2, CacheHits: 1, Mismatches: 1, ReportsSent: 1}},
		{"evidence, late", 1, ev, func(r *auditorRig) []Pledge {
			p := r.pledgeFor(k, true)
			return []Pledge{r.resign(p, p.Stamp.Version-1)}
		}, 0, nil, nil, false, 0, AuditorStats{PledgesReceived: 1, PledgesLate: 1}},
		{"evidence draws no sampling coin", 0, ev, func(r *auditorRig) []Pledge {
			return []Pledge{r.pledgeFor(k, true)}
		}, 0, nil, nil, false, 0, AuditorStats{PledgesReceived: 1, PledgesAudited: 1, CacheHits: 1, Mismatches: 1, ReportsSent: 1}},
		{"evidence, undecodable", 1, ev, func(r *auditorRig) []Pledge {
			return []Pledge{r.pledgeFor(k, false)}
		}, 1, nil, nil, true, 0, AuditorStats{}},
		{"unknown form", 1, 2, func(r *auditorRig) []Pledge {
			return []Pledge{r.pledgeFor(k, false)}
		}, 0, nil, nil, true, 0, AuditorStats{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newAuditorRig(t, nil)
			a := r.auditor
			a.dlr = nopDialer{}
			if err := r.sendPledge(r.pledgeFor(k, false)); err != nil { // caches k's answer
				t.Fatal(err)
			}
			a.cfg.Params.AuditSampleP = tc.sample
			before := a.Stats()
			ps := tc.pledges(r)
			body := pledgeBody(tc.form, ps...)
			ack, err := a.handlePledge(body[:len(body)-tc.cut])
			if tc.err {
				if err == nil {
					t.Fatal("undecodable body admitted")
				}
			} else if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ack, tc.ack) {
				t.Fatalf("ack %x, want %x", ack, tc.ack)
			}
			if bytes.Equal(ack, pledgeEvidence) {
				if got := added(before, a.Stats()); got != (AuditorStats{}) || a.Backlog() != 0 {
					t.Fatalf("a statement body answered pledgeEvidence added %+v and left %d waiting", got, a.Backlog())
				}
				if ack, err = a.handlePledge(evidence(ps...)); err != nil || !bytes.Equal(ack, tc.evAck) {
					t.Fatalf("the evidence that follows: ack %x, %v; want %x", ack, err, tc.evAck)
				}
			}
			if a.Backlog() != tc.queued {
				t.Fatalf("backlog %d, want %d", a.Backlog(), tc.queued)
			}
			if got := added(before, a.Stats()); got != tc.want {
				t.Fatalf("counters added %+v, want %+v", got, tc.want)
			}
			r.checkPartition(t)
		})
	}
}

// TestAuditorVouchAhead pins the answer at a frame's own version V when
// batches delivered since the frame's read reach V: the handler answers
// against the content at exactly V, whatever the batches wrote, and
// whatever later batches rewrite.
// A right frame is vouched, a lie convicted, on arrival; V must be a
// batch boundary inside its window, or the frame is late; a frame ahead
// of delivery is held until the delivery of V settles it, however late
// that comes. Each row commits its batches to an auditor at version cur,
// inside one simulation task, then has the body handled, then delivers
// what follows it (then), and lets the reports run.
func TestAuditorVouchAhead(t *testing.T) {
	k := query.Get{Key: "k"}
	put := func(key, value string) store.Op { return store.Put{Key: key, Value: []byte(value)} }
	window := DefaultParams().MaxLatency + DefaultParams().AuditorSlack
	for _, tc := range []struct {
		name   string
		warm   bool // k's answer is cached at cur before the writes
		body   func(r *auditorRig) []byte
		then   func(r *auditorRig) // batches delivered after the body; nil for none
		vouch  bool
		queued int          // the frames the body leaves waiting for delivery
		want   AuditorStats // counters the body adds, once what follows it is delivered
	}{
		{"V = cur+2, span untouched, cached", true, func(r *auditorRig) []byte {
			r.commit(put("j", "1"))
			r.commit(put("k\x00", "1"))
			return evidence(r.pledgeFor(k, false)) // the cache at cur is not asked at cur+2
		}, nil, true, 0, AuditorStats{PledgesReceived: 1, PledgesAudited: 1, PledgesVouched: 1}},
		{"V = cur+2, span untouched, executed on arrival", false, func(r *auditorRig) []byte {
			r.commit(put("j", "1"))
			r.commit(put("k\x00", "1"))
			return evidence(r.pledgeFor(k, false))
		}, nil, true, 0, AuditorStats{PledgesReceived: 1, PledgesAudited: 1, PledgesVouched: 1}},
		{"write in the span at V, the replica's answer", true, func(r *auditorRig) []byte {
			stale := r.pledgeFor(k, false) // right at cur, a lie at V
			r.commit(put("j", "1"))
			r.commit(put("k", "v2"))
			return evidence(r.resign(stale, r.initial.Version()))
		}, nil, false, 0, AuditorStats{PledgesReceived: 1, PledgesAudited: 1, Mismatches: 1, ReportsSent: 1}},
		{"write in the span below V, the replica's answer", true, func(r *auditorRig) []byte {
			stale := r.pledgeFor(k, false)
			r.commit(put("k", "v2"))
			r.commit(put("j", "1"))
			return evidence(r.resign(stale, r.initial.Version()))
		}, nil, false, 0, AuditorStats{PledgesReceived: 1, PledgesAudited: 1, Mismatches: 1, ReportsSent: 1}},
		{"write in the span at V, the answer at V", true, func(r *auditorRig) []byte {
			r.commit(put("j", "1"))
			r.commit(put("k", "v2"))
			return evidence(r.pledgeFor(k, false))
		}, nil, true, 0, AuditorStats{PledgesReceived: 1, PledgesAudited: 1, PledgesVouched: 1}},
		{"write in the span only above V", true, func(r *auditorRig) []byte {
			r.commit(put("j", "1"))
			p := r.pledgeFor(k, false)
			r.commit(put("k", "v2"))
			return evidence(p)
		}, nil, true, 0, AuditorStats{PledgesReceived: 1, PledgesAudited: 1, PledgesVouched: 1}},
		{"V above delivery", true, func(r *auditorRig) []byte {
			r.commit(put("j", "1"))
			p := r.pledgeFor(k, false)
			return evidence(r.resign(p, p.Stamp.Version+1))
		}, func(r *auditorRig) {
			r.commit(put("j", "2"))
		}, false, 1, AuditorStats{PledgesReceived: 1, PledgesAudited: 1}},
		{"lying frame ahead, convicted at V", true, func(r *auditorRig) []byte {
			r.commit(put("j", "1"))
			return evidence(r.pledgeFor(k, true))
		}, nil, false, 0, AuditorStats{PledgesReceived: 1, PledgesAudited: 1, Mismatches: 1, ReportsSent: 1}},
		{"lying frame ahead of a lagging auditor, convicted at V", false, func(r *auditorRig) []byte {
			r.commitAfter(window/2, put("j", "1"))
			return evidence(r.pledgeFor(k, true))
		}, nil, false, 1, AuditorStats{PledgesReceived: 1, PledgesAudited: 1, Mismatches: 1, ReportsSent: 1}},
		{"lying frame ahead of an auditor lagging past the window, later convicted at V", false, func(r *auditorRig) []byte {
			r.commitAfter(3*window, put("j", "1"))
			return evidence(r.pledgeFor(k, true))
		}, nil, false, 1, AuditorStats{PledgesReceived: 1, PledgesAudited: 1, Mismatches: 1, ReportsSent: 1}},
		{"two slaves, one frame unvouchable", true, func(r *auditorRig) []byte {
			r.commit(put("j", "1"))
			p := r.pledgeFor(k, false)
			return evidence(p, r.resign(p, p.Stamp.Version+1))
		}, func(r *auditorRig) {
			r.commit(put("j", "2"))
		}, false, 1, AuditorStats{PledgesReceived: 2, PledgesAudited: 2}},
		{"rewritten by a later held batch, the answer at V", true, func(r *auditorRig) []byte {
			r.commit(put("k", "v2"))
			p := r.pledgeFor(k, false)
			r.commit(put("k", "v3"))
			return evidence(p)
		}, nil, true, 0, AuditorStats{PledgesReceived: 1, PledgesAudited: 1, PledgesVouched: 1}},
		{"rewritten by a later held batch, the later answer", true, func(r *auditorRig) []byte {
			r.commit(put("k", "v2"))
			v := r.initial.Version()
			r.commit(put("k", "v3"))
			return evidence(r.resign(r.pledgeFor(k, false), v))
		}, nil, false, 0, AuditorStats{PledgesReceived: 1, PledgesAudited: 1, Mismatches: 1, ReportsSent: 1}},
		{"inside a batch, late", true, func(r *auditorRig) []byte {
			r.commit(put("k", "v2"), put("j", "1"))
			return evidence(r.resign(r.pledgeFor(k, true), r.initial.Version()-1))
		}, nil, false, 0, AuditorStats{PledgesReceived: 1, PledgesLate: 1}},
		{"superseded inside the window", true, func(r *auditorRig) []byte {
			p := r.pledgeFor(k, false)
			r.commit(put("k", "v2"))
			r.s.Sleep(window)
			return evidence(p)
		}, nil, true, 0, AuditorStats{PledgesReceived: 1, PledgesAudited: 1, PledgesVouched: 1, CacheHits: 1}},
		{"superseded more than the window ago, late", true, func(r *auditorRig) []byte {
			p := r.pledgeFor(k, true)
			r.commit(put("k", "v2"))
			r.s.Sleep(window + time.Millisecond)
			return evidence(p)
		}, nil, false, 0, AuditorStats{PledgesReceived: 1, PledgesLate: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newAuditorRig(t, nil)
			a := r.auditor
			var before AuditorStats
			r.s.Go(func() {
				if tc.warm {
					if err := r.sendPledge(r.pledgeFor(k, false)); err != nil {
						t.Error(err)
						return
					}
				}
				before = a.Stats()
				body := tc.body(r)
				ack, err := a.handlePledge(body)
				if err != nil {
					t.Error(err)
					return
				}
				if vouched := bytes.Equal(ack, pledgeVouch); vouched != tc.vouch || (!vouched && len(ack) != 0) {
					t.Errorf("ack %x, want vouch %v", ack, tc.vouch)
				}
				if a.Backlog() != tc.queued {
					t.Errorf("backlog %d, want %d", a.Backlog(), tc.queued)
				}
				if arrived := added(before, a.Stats()); tc.queued == 0 && arrived != tc.want {
					t.Errorf("counters added on arrival %+v, want %+v", arrived, tc.want)
				}
				if tc.then != nil {
					tc.then(r)
				}
			})
			r.s.Run()
			if a.Backlog() != 0 || a.Version() != r.initial.Version() {
				t.Errorf("once delivered: backlog %d at version %d, want 0 at %d", a.Backlog(), a.Version(), r.initial.Version())
			}
			if got := added(before, a.Stats()); got != tc.want {
				t.Errorf("counters added %+v, want %+v", got, tc.want)
			}
			r.checkPartition(t)
			if tc.want.ReportsSent > 0 && !t.Failed() {
				r.checkReport(t, r.reports[0])
			}
		})
	}
}

// TestAuditorForgedFarAheadNotHeld: any client can send a frame at a
// version no master will reach for ages (2^40 past the newest delivered).
// No master stamped that version, so whatever stamp the frame carries does
// not verify: the frame costs at most that one stamp verify (none when the
// stamp names a key no master holds, as certifiedBy decides that), its
// slave signature is never looked at, it ends in PledgesBadSig, and
// nothing is held — under the slave's own signature, a garbage one or a
// freshly minted key's alike. A stamp the masters did sign, but for
// another version than the frame's, does not decode, and the body is
// refused whole.
func TestAuditorForgedFarAheadNotHeld(t *testing.T) {
	r := newAuditorRig(t, nil)
	a := r.auditor
	cpu := r.s.NewResource("auditor", 1)
	a.meter = cryptoutil.NewMeter(cpu, a.cfg.Params.Costs)
	cur, far := a.Version(), a.Version()+1<<40
	p := r.pledgeFor(query.Get{Key: "k"}, false)
	anyone := cryptoutil.DeriveKeyPair("anyone", 0)
	renamed := SignStamp(r.master, cur+1, r.s.Now()) // a real stamp, its version then rewritten
	renamed.Version = far
	rows := []struct {
		name     string
		stamp    VersionStamp
		signer   *cryptoutil.KeyPair
		garbage  bool // the slave signature is flipped
		verifies int  // signature checks the frame costs
	}{
		{"the slave's signature, a master stamp renamed to V", renamed, r.slave, false, 1},
		{"a garbage signature, a master stamp renamed to V", renamed, r.slave, true, 1},
		{"a minted key's signature, a master stamp renamed to V", renamed, anyone, false, 1},
		{"the slave's signature, a stamp under a key no master holds", SignStamp(anyone, far, r.s.Now()), r.slave, false, 0},
		{"a minted key's signature, a stamp under a key no master holds", SignStamp(anyone, far, r.s.Now()), anyone, false, 0},
	}
	r.s.Go(func() {
		for _, tc := range rows {
			f := SignPledge(tc.signer, p.QueryBytes, p.ResultHash, tc.stamp)
			if tc.garbage {
				f = forged(f)
			}
			before, busy := a.Stats(), cpu.BusyTime()
			if ack, err := forward(a, f); err != nil || len(ack) != 0 {
				t.Errorf("%s: ack %x, err %v", tc.name, ack, err)
			}
			if a.Backlog() != 0 {
				t.Errorf("%s: backlog %d, want 0", tc.name, a.Backlog())
			}
			if got, want := added(before, a.Stats()), (AuditorStats{PledgesReceived: 1, PledgesBadSig: 1}); got != want {
				t.Errorf("%s: counters added %+v, want %+v", tc.name, got, want)
			}
			if paid, want := cpu.BusyTime()-busy, time.Duration(tc.verifies)*a.cfg.Params.Costs.VerifySig; paid != want {
				t.Errorf("%s: the frame cost the auditor %v, want %d verifies (%v)", tc.name, paid, tc.verifies, want)
			}
		}
		real := r.resign(p, cur+1)
		f := real
		f.Stamp.Version = far
		f = SignPledge(r.slave, f.QueryBytes, f.ResultHash, f.Stamp)
		body := wire.EncodeFrame(func(w *wire.Writer) {
			w.Byte(pledgeFormEvidence)
			f.Encode(w)
			real.Stamp.Encode(w)
		})
		before := a.Stats()
		if _, err := a.handlePledge(body); err == nil {
			t.Error("a frame at V under a stamp for another version decodes")
		}
		if got := added(before, a.Stats()); got != (AuditorStats{}) || a.Backlog() != 0 {
			t.Errorf("the refused body added %+v and left %d waiting", got, a.Backlog())
		}
	})
	r.s.Run()
	r.checkPartition(t)
}

// TestAuditorSettlesHeldFramesOnDelivery: the deliver call that reaches a
// held frame's version settles the frame before it returns, with no tick,
// no task and no simulated time in between: a right frame is audited and
// a lie convicted, its report started. A frame still ahead of the head
// waits for the delivery after.
func TestAuditorSettlesHeldFramesOnDelivery(t *testing.T) {
	r := newAuditorRig(t, nil)
	a := r.auditor
	k := query.Get{Key: "k"}
	cur := a.Version()
	right, lie := r.resign(r.pledgeFor(k, false), cur+1), r.resign(r.pledgeFor(k, true), cur+1)
	beyond := r.resign(r.pledgeFor(k, false), cur+2)
	for _, p := range []Pledge{right, lie, beyond} {
		if ack, err := a.handlePledge(evidence(p)); err != nil || len(ack) != 0 {
			t.Fatalf("ack %x, err %v", ack, err)
		}
	}
	if a.Backlog() != 3 {
		t.Fatalf("backlog %d, want 3", a.Backlog())
	}
	at := r.s.Now()
	r.commit(store.Put{Key: "j", Value: []byte("1")}) // k is untouched: the answers at cur hold at cur+1
	st := a.Stats()
	if a.Backlog() != 1 || st.PledgesAudited != 2 || st.Mismatches != 1 || st.ReportsSent != 1 || !r.slaveDetected() || r.s.Now() != at {
		t.Fatalf("after the delivery of cur+1: backlog %d, %+v, slave detected %v, %v passed",
			a.Backlog(), st, r.slaveDetected(), r.s.Now().Sub(at))
	}
	r.commit(store.Put{Key: "j", Value: []byte("2")})
	if st := a.Stats(); a.Backlog() != 0 || st.PledgesAudited != 3 || st.Mismatches != 1 {
		t.Fatalf("after the delivery of cur+2: backlog %d, %+v", a.Backlog(), st)
	}
	r.s.Run()
	if len(r.reports) != 1 {
		t.Fatalf("%d reports, want 1", len(r.reports))
	}
	r.checkReport(t, r.reports[0])
	r.checkPartition(t)
}

// TestAuditorMintedKeyFloodCapped: anyone can mint a slave key and sign
// frames at a version the masters stamped and the auditor has not yet
// delivered, under a copy of a real stamp for it. The auditor holds at
// most maxHeldFrames of them; each one past that still costs it the slave
// signature verify and is counted late. While the flood fills the
// backlog, a real slave's lie at that version is late too, and goes
// unconvicted: that is what the flood shields, and only until the
// version's delivery, which settles every held frame at once.
func TestAuditorMintedKeyFloodCapped(t *testing.T) {
	r := newAuditorRig(t, nil)
	a := r.auditor
	k := query.Get{Key: "k"}
	v := a.Version() + 1
	honest := r.resign(r.pledgeFor(k, false), v)
	minted := SignPledge(cryptoutil.DeriveKeyPair("anyone", 0), honest.QueryBytes, honest.ResultHash, honest.Stamp)
	frames := make([]Pledge, 64)
	for i := range frames {
		frames[i] = minted
	}
	body := evidence(frames...)
	for sent := 0; sent <= maxHeldFrames; sent += len(frames) {
		if _, err := a.handlePledge(body); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.handlePledge(evidence(r.resign(r.pledgeFor(k, true), v))); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if a.Backlog() != maxHeldFrames || st.BacklogMax != maxHeldFrames || st.PledgesLate != uint64(len(frames)+1) || st.PledgesBadSig != 0 {
		t.Fatalf("after the flood: backlog %d, %+v", a.Backlog(), st)
	}
	r.checkPartition(t)
	r.commit(store.Put{Key: "j", Value: []byte("1")})
	if st := a.Stats(); a.Backlog() != 0 || st.PledgesAudited != maxHeldFrames || st.Mismatches != 0 {
		t.Fatalf("after the delivery of V: backlog %d, %+v", a.Backlog(), st)
	}
	r.checkPartition(t)
}
