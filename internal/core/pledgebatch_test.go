package core

import (
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/sim"
)

// TestPledgeMultiEquivalentToSingles feeds the same pledge wave to two
// identically-seeded auditors — one a.pledge per frame versus the whole
// wave's frames back to back in a single a.pledge body — and requires
// identical admission outcomes: same receive/sample/late counters and the
// same backlog. The shared frame order drives the sampling RNG through the
// same sequence, so batching changes only the transport, never what gets
// audited.
func TestPledgeMultiEquivalentToSingles(t *testing.T) {
	mut := func(c *AuditorConfig) { c.Params.AuditSampleP = 0.5 }
	single := newAuditorRig(t, mut)
	multi := newAuditorRig(t, mut)

	const n = 16
	pledges := make([]Pledge, n)
	for i := range pledges {
		pledges[i] = single.pledgeFor(query.Get{Key: "k"}, false)
	}

	for _, p := range pledges {
		if err := single.sendPledge(p); err != nil {
			t.Fatalf("single pledge: %v", err)
		}
	}
	if _, err := multi.auditor.Handle("client", MethodPledge, statements(pledges...)); err != nil {
		t.Fatalf("pledge wave: %v", err)
	}

	ss, ms := single.auditor.Stats(), multi.auditor.Stats()
	if ss.PledgesReceived != n || ms.PledgesReceived != n {
		t.Fatalf("received %d/%d pledges, want %d each", ss.PledgesReceived, ms.PledgesReceived, n)
	}
	if ss.PledgesSampled != ms.PledgesSampled || ss.PledgesLate != ms.PledgesLate ||
		ss.BacklogMax != ms.BacklogMax {
		t.Fatalf("admission diverged: single %+v vs multi %+v", ss, ms)
	}
	if ss.PledgesSampled == 0 || ss.PledgesSampled == n {
		t.Fatalf("sampling did not split the wave (%d/%d); equivalence check is vacuous",
			ss.PledgesSampled, n)
	}
	if single.auditor.Backlog() != multi.auditor.Backlog() {
		t.Fatalf("backlog diverged: %d vs %d", single.auditor.Backlog(), multi.auditor.Backlog())
	}
}

// TestPledgeMultiRejectsMalformedWave: a body in either form with any
// frame that does not decode — a broken frame after a good one, a byte
// trailing the last frame, or no frame at all — is refused whole, as is
// an empty body: nothing from it is admitted.
func TestPledgeMultiRejectsMalformedWave(t *testing.T) {
	rig := newAuditorRig(t, nil)
	p := rig.pledgeFor(query.Get{Key: "k"}, false)
	for _, form := range []byte{pledgeFormStatement, pledgeFormEvidence} {
		for name, body := range map[string][]byte{
			"broken frame":  append(pledgeBody(form, p), 0xde, 0xad),
			"trailing byte": append(pledgeBody(form, p, p), 0x00),
			"no frame":      {form},
			"empty":         nil,
		} {
			if _, err := rig.auditor.Handle("client", MethodPledge, body); err == nil {
				t.Fatalf("form %d, %s: body accepted", form, name)
			}
			if got := rig.auditor.Stats().PledgesReceived; got != 0 {
				t.Fatalf("form %d, %s: body partially admitted %d pledges", form, name, got)
			}
		}
	}
}

// TestClusterKReadForwardsWholeWave: an agreeing k-slave read forwards
// its whole pledge wave (one a.pledge body) and the auditor audits every
// pledge in it cleanly.
func TestClusterKReadForwardsWholeWave(t *testing.T) {
	s := sim.New(62)
	o := defaultOpts()
	o.nMasters = 1
	o.slavesPerM = 3
	c := newTestCluster(t, s, o)
	cl := c.addClient(t, 0, func(cc *ClientConfig) {
		cc.KSlaves = 2
		cc.PreferredMaster = 0
	})
	s.Go(func() {
		s.Sleep(c.warmup())
		if err := cl.Setup(); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		if _, err := cl.Read(mustQuery(t, "catalog/001")); err != nil {
			t.Errorf("read: %v", err)
		}
	})
	s.RunUntil(sim.Epoch.Add(time.Minute))

	if got := cl.Stats().PledgesSent; got != 2 {
		t.Fatalf("client forwarded %d pledges, want the whole wave of 2", got)
	}
	as := c.auditor.Stats()
	if as.PledgesReceived != 2 {
		t.Fatalf("auditor received %d pledges, want 2", as.PledgesReceived)
	}
	if as.PledgesAudited != 2 || as.Mismatches != 0 {
		t.Fatalf("audit of the batched wave: %+v", as)
	}
}
