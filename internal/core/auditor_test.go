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
	reports [][]byte
	initial *store.Store
	params  Params
}

func newAuditorRig(t testing.TB, mut func(*AuditorConfig)) *auditorRig {
	t.Helper()
	s := sim.New(1)
	net := rpc.NewSimNet(s, sim.Const(time.Millisecond))
	initial := store.New()
	initial.Apply(store.Put{Key: "k", Value: []byte("v")})
	r := &auditorRig{
		s: s, net: net,
		master:  cryptoutil.DeriveKeyPair("master", 0),
		slave:   cryptoutil.DeriveKeyPair("slave", 0),
		initial: initial,
		params:  DefaultParams(),
	}
	cfg := AuditorConfig{
		Addr:        "auditor",
		Keys:        cryptoutil.DeriveKeyPair("auditor", 0),
		Params:      r.params,
		Peers:       []string{"master", "auditor"},
		MasterAddrs: []string{"master"},
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

func (r *auditorRig) sendPledge(p Pledge) error {
	_, err := r.auditor.Handle("client", MethodPledge, EncodePledge(p))
	return err
}

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

// audit starts the audit worker, delivers the pledges in order, lets three
// keep-alive intervals pass and returns the auditor's counters.
func (r *auditorRig) audit(t *testing.T, pledges ...Pledge) AuditorStats {
	t.Helper()
	r.auditor.rt.Spawn(r.auditor.auditLoop)
	r.s.Go(func() {
		for _, p := range pledges {
			if err := r.sendPledge(p); err != nil {
				t.Errorf("pledge refused: %v", err)
			}
		}
		r.s.Sleep(3 * r.params.KeepAliveEvery)
		r.s.Stop()
	})
	r.s.Run()
	r.checkPartition(t)
	return r.auditor.Stats()
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
// without one.
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
			AuditorStats{PledgesAudited: 1}, false},
		{"forged sig, right hash",
			func(r *auditorRig) []Pledge { return []Pledge{forged(r.pledgeFor(get, false))} },
			AuditorStats{PledgesAudited: 1}, false},
		{"valid sig, wrong hash",
			func(r *auditorRig) []Pledge { return []Pledge{r.pledgeFor(get, true)} },
			AuditorStats{PledgesAudited: 1, Mismatches: 1, ReportsSent: 1, PledgeCacheMisses: 1}, true},
		{"forged sig, wrong hash, twice", // a second copy does not ride on a cached verdict
			func(r *auditorRig) []Pledge {
				p := forged(r.pledgeFor(get, true))
				return []Pledge{p, p}
			},
			AuditorStats{PledgesBadSig: 2, CacheHits: 1, PledgeCacheMisses: 2}, false},
		{"valid sig, garbage query",
			func(r *auditorRig) []Pledge { return []Pledge{r.signedQuery(garbageQuery)} },
			AuditorStats{PledgesAudited: 1, Mismatches: 1, ReportsSent: 1, PledgeCacheMisses: 1}, true},
		{"forged sig, garbage query", // the row a reorder that reports before verifying breaks
			func(r *auditorRig) []Pledge { return []Pledge{forged(r.signedQuery(garbageQuery))} },
			AuditorStats{PledgesBadSig: 1, PledgeCacheMisses: 1}, false},
		{"valid sig, unexecutable query",
			func(r *auditorRig) []Pledge { return []Pledge{r.signedQuery(badGrep)} },
			AuditorStats{PledgesAudited: 1, Mismatches: 1, ReportsSent: 1, PledgeCacheMisses: 1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newAuditorRig(t, nil)
			pledges := tc.pledges(r)
			st := r.audit(t, pledges...)
			tc.want.PledgesReceived = uint64(len(pledges))
			tc.want.BacklogMax = len(pledges)
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
	// Five honest pledges: no signature is looked at, cached or not.
	if st.PledgeCacheHits != 0 || st.PledgeCacheMisses != 0 {
		t.Fatalf("pledge verifications: %d hits, %d misses, want none", st.PledgeCacheHits, st.PledgeCacheMisses)
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
	st := r.audit(t, p, p)                              // nor does a second copy ride on a cached verdict
	if st.PledgesBadSig != 2 || st.PledgeCacheHits != 0 || st.ReportsSent != 0 {
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

func TestAuditorAdvancesAfterWindow(t *testing.T) {
	r := newAuditorRig(t, nil)
	r.auditor.rt.Spawn(r.auditor.auditLoop)
	r.s.Go(func() {
		// Feed an ordered write through the broadcast delivery path.
		op := store.EncodeOp(store.Put{Key: "w", Value: []byte("1")})
		r.auditor.deliver(1, encodeBatchMessage([]queuedWave{{ops: [][]byte{op}}}), nil)
		if got := r.auditor.Version(); got != r.initial.Version() {
			t.Errorf("auditor advanced immediately: %d", got)
		}
		// Before the window closes the auditor must lag.
		r.s.Sleep(r.params.MaxLatency / 2)
		if got := r.auditor.Version(); got != r.initial.Version() {
			t.Errorf("auditor advanced inside the window: %d", got)
		}
		// After max_latency + slack it applies the write.
		r.s.Sleep(r.params.MaxLatency + 2*r.params.AuditorSlack)
		if got := r.auditor.Version(); got != r.initial.Version()+1 {
			t.Errorf("auditor failed to advance: %d", got)
		}
		r.s.Stop()
	})
	r.s.Run()
	r.checkPartition(t)
}

// nopDialer swallows the auditor's reports where no simulation runs.
type nopDialer struct{}

func (nopDialer) Call(string, string, []byte) ([]byte, error) { return nil, nil }
func (nopDialer) CallTimeout(string, string, []byte, time.Duration) ([]byte, error) {
	return nil, nil
}

// pledgeFrames encodes n pledges for one query that differ in their stamp,
// so no two share a verified-signature cache entry.
func (r *auditorRig) pledgeFrames(n int, lie bool) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		p := r.pledgeFor(query.Get{Key: "k"}, lie)
		p.Stamp = SignStamp(r.master, r.initial.Version(), r.s.Now().Add(time.Duration(i)))
		frames[i] = EncodePledge(SignPledge(r.slave, p.QueryBytes, p.ResultHash, p.Stamp))
	}
	return frames
}

// TestAuditorHonestPledgeAllocs pins what an admitted, audited honest
// pledge costs the allocator: the pledge is decoded by view, queued, and
// settled by one probe of the query cache.
func TestAuditorHonestPledgeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	r := newAuditorRig(t, nil)
	frames := r.pledgeFrames(64, false)
	i := 0
	n := testing.AllocsPerRun(1000, func() {
		if _, err := r.auditor.handlePledge(frames[i%len(frames)]); err != nil {
			t.Fatal(err)
		}
		i++
		r.auditor.auditPending()
	})
	if n > 2 {
		t.Fatalf("an admitted and audited honest pledge allocates %v times, want <= 2", n)
	}
	if st := r.auditor.Stats(); st.PledgesAudited != uint64(i) || st.CacheHits != uint64(i-1) {
		t.Fatalf("stats: %+v after %d pledges", st, i)
	}
	r.checkPartition(t)
}

// TestAuditorConcurrentAdmitAndAudit has handlers queue pledges — views of
// their frames — while the audit worker drains them, as over TCP, where
// every request runs on its own goroutine. Under -race it checks the
// hand-over; in any build, that nothing is lost or counted twice.
func TestAuditorConcurrentAdmitAndAudit(t *testing.T) {
	r := newAuditorRig(t, nil)
	a := r.auditor
	a.dlr = nopDialer{}
	const senders, each = 4, 64
	honest, lies := r.pledgeFrames(each, false), r.pledgeFrames(each, true)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		frames := honest
		if g == 0 {
			frames = lies
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, f := range frames {
				if _, err := a.Handle("client", MethodPledge, f); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	sent := make(chan struct{})
	go func() { wg.Wait(); close(sent) }()
	for done := false; !done; {
		select {
		case <-sent:
			done = true
		default:
		}
		a.auditPending() // once more after the last sender returned
	}
	st := a.Stats()
	if st.PledgesReceived != senders*each || st.PledgesAudited != senders*each ||
		st.Mismatches != each || st.ReportsSent != 1 || a.Backlog() != 0 {
		t.Fatalf("stats: %+v backlog %d", st, a.Backlog())
	}
	r.checkPartition(t)
}

// BenchmarkAuditPledge is the auditor's row of the layer ledger: one
// pledge admitted and audited, with the slave-signature verifications it
// cost. The frames carry more distinct stamps than the verified-pledge
// memo holds entries.
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
			frames := r.pledgeFrames(2*pledgeVerifyMemoSize, bc.lie)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !bc.recache {
					clear(a.cache)
				}
				if _, err := a.handlePledge(frames[i%len(frames)]); err != nil {
					b.Fatal(err)
				}
				a.auditPending()
			}
			b.StopTimer()
			st := a.Stats()
			if st.PledgesAudited != uint64(b.N) || (st.Mismatches != 0) != bc.lie {
				b.Fatalf("stats: %+v", st)
			}
			b.ReportMetric(float64(st.PledgeCacheHits+st.PledgeCacheMisses)/float64(b.N), "verifies/op")
		})
	}
}
