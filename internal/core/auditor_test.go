package core

import (
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

func newAuditorRig(t *testing.T, mut func(*AuditorConfig)) *auditorRig {
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

func TestAuditorHonestPledgePasses(t *testing.T) {
	r := newAuditorRig(t, nil)
	r.auditor.rt.Spawn(r.auditor.auditLoop)
	r.s.Go(func() {
		r.sendPledge(r.pledgeFor(query.Get{Key: "k"}, false))
		r.s.Sleep(3 * r.params.KeepAliveEvery)
		r.s.Stop()
	})
	r.s.Run()
	st := r.auditor.Stats()
	if st.PledgesAudited != 1 || st.Mismatches != 0 || len(r.reports) != 0 {
		t.Fatalf("stats: %+v reports=%d", st, len(r.reports))
	}
}

func TestAuditorLieDetectedAndReportedSigned(t *testing.T) {
	r := newAuditorRig(t, nil)
	r.auditor.rt.Spawn(r.auditor.auditLoop)
	r.s.Go(func() {
		r.sendPledge(r.pledgeFor(query.Get{Key: "k"}, true))
		r.s.Sleep(3 * r.params.KeepAliveEvery)
		r.s.Stop()
	})
	r.s.Run()
	st := r.auditor.Stats()
	if st.Mismatches != 1 || st.ReportsSent != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if len(r.reports) != 1 {
		t.Fatalf("reports = %d", len(r.reports))
	}
	// The report must carry the pledge and a valid auditor signature.
	rr := wire.NewReader(r.reports[0])
	pledgeBytes := rr.Bytes()
	sig := rr.Bytes()
	if err := rr.Done(); err != nil {
		t.Fatal(err)
	}
	if err := cryptoutil.Verify(r.auditor.PublicKey(), pledgeBytes, sig); err != nil {
		t.Fatalf("auditor report signature: %v", err)
	}
}

func TestAuditorCacheHitsForRepeatedQueries(t *testing.T) {
	r := newAuditorRig(t, nil)
	r.auditor.rt.Spawn(r.auditor.auditLoop)
	r.s.Go(func() {
		p := r.pledgeFor(query.Get{Key: "k"}, false)
		for i := 0; i < 5; i++ {
			r.sendPledge(p)
		}
		r.s.Sleep(3 * r.params.KeepAliveEvery)
		r.s.Stop()
	})
	r.s.Run()
	st := r.auditor.Stats()
	if st.PledgesAudited != 5 {
		t.Fatalf("audited = %d", st.PledgesAudited)
	}
	if st.CacheHits != 4 {
		t.Fatalf("cache hits = %d, want 4", st.CacheHits)
	}
	// The five pledges are byte-identical: one signature check, four
	// lookups.
	if st.PledgeCacheHits != 4 || st.PledgeCacheMisses != 1 {
		t.Fatalf("pledge cache: %d hits, %d misses, want 4 and 1", st.PledgeCacheHits, st.PledgeCacheMisses)
	}
}

func TestAuditorSamplingSkips(t *testing.T) {
	r := newAuditorRig(t, func(c *AuditorConfig) {
		c.Params.AuditSampleP = 0.0 // audit nothing
	})
	r.auditor.rt.Spawn(r.auditor.auditLoop)
	r.s.Go(func() {
		for i := 0; i < 10; i++ {
			r.sendPledge(r.pledgeFor(query.Get{Key: "k"}, true))
		}
		r.s.Sleep(3 * r.params.KeepAliveEvery)
		r.s.Stop()
	})
	r.s.Run()
	st := r.auditor.Stats()
	if st.PledgesSampled != 10 || st.PledgesAudited != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestAuditorBadSignatureDropped(t *testing.T) {
	r := newAuditorRig(t, nil)
	r.auditor.rt.Spawn(r.auditor.auditLoop)
	r.s.Go(func() {
		p := r.pledgeFor(query.Get{Key: "k"}, true)
		p.Sig[0] ^= 0xff // a forged pledge cannot frame the slave
		r.sendPledge(p)
		r.sendPledge(p) // nor does a second copy ride on a cached verdict
		r.s.Sleep(3 * r.params.KeepAliveEvery)
		r.s.Stop()
	})
	r.s.Run()
	st := r.auditor.Stats()
	if st.PledgesBadSig != 2 || st.PledgeCacheHits != 0 || st.ReportsSent != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestAuditorGarbageQueryIsProof(t *testing.T) {
	r := newAuditorRig(t, nil)
	r.auditor.rt.Spawn(r.auditor.auditLoop)
	r.s.Go(func() {
		stamp := SignStamp(r.master, r.initial.Version(), r.s.Now())
		p := SignPledge(r.slave, []byte{0xff, 0x01}, cryptoutil.Digest{}, stamp)
		r.sendPledge(p)
		r.s.Sleep(3 * r.params.KeepAliveEvery)
		r.s.Stop()
	})
	r.s.Run()
	if r.auditor.Stats().ReportsSent != 1 {
		t.Fatalf("signed garbage query not reported: %+v", r.auditor.Stats())
	}
}

func TestAuditorDuplicateLiarReportedOnce(t *testing.T) {
	r := newAuditorRig(t, nil)
	r.auditor.rt.Spawn(r.auditor.auditLoop)
	r.s.Go(func() {
		for i := 0; i < 4; i++ {
			r.sendPledge(r.pledgeFor(query.Count{P: ""}, true))
		}
		r.s.Sleep(3 * r.params.KeepAliveEvery)
		r.s.Stop()
	})
	r.s.Run()
	st := r.auditor.Stats()
	if st.Mismatches < 1 {
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
}

func TestAuditorAdvancesAfterWindow(t *testing.T) {
	r := newAuditorRig(t, nil)
	r.auditor.rt.Spawn(r.auditor.auditLoop)
	r.s.Go(func() {
		// Feed an ordered write through the broadcast delivery path.
		op := store.EncodeOp(store.Put{Key: "w", Value: []byte("1")})
		r.auditor.deliver(1, encodeBatchMessage("master", 1, []batchWaiter{{opBytes: op}}))
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
}
