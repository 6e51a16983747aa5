package harness

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestMemoisedPledgesStillConvictLiars runs a deployment whose clients
// repeat one query many times inside every keep-alive interval — the
// pattern the slave's signature memo exists for — against a slave that
// lies about it. With double-checking off, the conviction has to come
// through the auditor, which verifies every pledge its content
// contradicts.
// The liar must end up excluded on evidence that stands on its own: a
// pledge that verifies under the liar's key and that a trusted
// re-execution contradicts. Nobody honest may be excluded.
func TestMemoisedPledgesStillConvictLiars(t *testing.T) {
	hot := query.Get{Key: workload.CatalogKey(3)}
	for _, tc := range []struct {
		name     string
		behavior core.Behavior
		// mixed: the liar must also have answered the hot query honestly,
		// so honest and false pledges for it shared stamp intervals.
		mixed bool
	}{
		{"always-lie", core.AlwaysLie{}, false},
		{"targeted-lie", core.TargetedLie{TargetFrac: 1}, false},
		{"lie-with-prob", core.LieWithProb{P: 0.3}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultScenario()
			cfg.Seed = 7
			cfg.Params.DoubleCheckP = 0
			cfg.SlaveBehaviors = map[int]core.Behavior{0: tc.behavior}
			sc := NewScenario(cfg)
			liar := sc.Slaves[0]
			for i := 0; i < 4; i++ {
				cl := sc.AddClient(func(c *core.ClientConfig) { c.PreferredMaster = 0 })
				sc.S.Go(func() {
					sc.S.Sleep(sc.Warmup())
					if err := cl.Setup(); err != nil {
						t.Errorf("setup: %v", err)
						return
					}
					for j := 0; j < 300; j++ {
						cl.Read(hot) // a read may fail while the liar is being replaced
					}
				})
			}
			sc.Run(time.Minute)

			ls := liar.Stats()
			if ls.ReadsLied == 0 || ls.PledgeCacheHits == 0 {
				t.Fatalf("liar served %d reads, %d lies, %d memo hits: the scenario did not exercise the memo",
					ls.ReadsServed, ls.ReadsLied, ls.PledgeCacheHits)
			}
			if tc.mixed && ls.ReadsServed == ls.ReadsLied {
				t.Fatalf("liar never answered honestly (%d reads, all lies)", ls.ReadsServed)
			}
			if as := sc.Auditor.Stats(); as.Mismatches == 0 || as.PledgesBadSig != 0 {
				t.Fatalf("auditor: %d mismatches, %d bad signatures", as.Mismatches, as.PledgesBadSig)
			}
			if cs := sc.TotalClientStats(); cs.ReadsAccepted == 0 {
				t.Fatalf("clients accepted nothing: %+v", cs)
			}

			excls := sc.Dir.Exclusions(sc.Owner.Public)
			if len(excls) != 1 || !bytes.Equal(excls[0].Subject, liar.PublicKey()) {
				t.Fatalf("%d exclusions, want exactly the liar's", len(excls))
			}
			r := wire.NewReader(excls[0].Evidence)
			p, err := core.DecodePledge(r)
			if err != nil || r.Done() != nil {
				t.Fatalf("exclusion evidence does not decode: %v", err)
			}
			if !bytes.Equal(p.SlavePub, liar.PublicKey()) {
				t.Fatal("evidence is a pledge by someone else")
			}
			if err := p.VerifySig(); err != nil {
				t.Fatalf("evidence does not verify under the liar's key: %v", err)
			}
			// No writes ran, so the initial content is the pledged version.
			proven, _, err := core.CheckPledgeAgainst(sc.Initial, &p)
			if err != nil || !proven {
				t.Fatalf("re-execution does not contradict the evidence: proven=%v err=%v", proven, err)
			}
		})
	}
}
