package harness

import (
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/store"
)

// TestSubmitRetryCommitsBatchOnce puts the writer on the master that is
// not the sequencer, so every batch travels by b.submit, and makes those
// submits misbehave the three ways a retry can come about: a reply lost,
// a request delayed past the call timeout, and a sequencer that answers
// nobody until the origin takes over. The commit ledger must come out as
// if nothing had happened: every wave acknowledged once, versions dense
// and distinct, and each master's applied-write count equal to the
// number of writes acknowledged — a batch sequenced twice shows up there
// as a whole wave too many.
func TestSubmitRetryCommitsBatchOnce(t *testing.T) {
	cfg := DefaultScenario()
	cfg.Seed = 16
	cfg.NMasters = 2
	cfg.SlavesPerMaster = 1
	cfg.CatalogSize = 40
	cfg.DocCount = 4
	cfg.Latency = sim.Const(2 * time.Millisecond)
	cfg.Params.MaxLatency = 4 * time.Millisecond
	cfg.Params.KeepAliveEvery = 50 * time.Millisecond // also the broadcast call timeout
	cfg.BatchSize = 8
	cfg.BatchTimeout = 2 * time.Millisecond
	sc := NewScenario(cfg)
	seqAddr, origin := sc.masterCfgs[0].Addr, sc.masterCfgs[1].Addr
	cl := sc.AddClient(func(c *core.ClientConfig) { c.PreferredMaster = 1 })

	// Lose the reply of the next b.submit: SimNet samples a reply's loss
	// as the handler returns, so the link is cut for that one message.
	loseReply, lost := false, 0
	sc.Net.Register(seqAddr, func(from, method string, body []byte) ([]byte, error) {
		out, err := sc.Masters[0].Handle(from, method, body)
		if method == broadcast.MethodSubmit && loseReply {
			loseReply = false
			lost++
			sc.Net.SetDrop(seqAddr, origin, 1)
			sc.S.Call(0, func() { sc.Net.SetDrop(seqAddr, origin, 0) })
		}
		return out, err
	})

	const waveSize = 8
	var acked []uint64
	wave := func(tag byte) {
		ops := make([]store.Op, waveSize)
		for j := range ops {
			ops[j] = store.Put{Key: string(rune('a' + j)), Value: []byte{tag}}
		}
		versions, err := cl.WriteMulti(ops)
		if err != nil {
			t.Errorf("wave %d: %v", tag, err)
			return
		}
		acked = append(acked, versions...)
	}
	sc.S.Go(func() {
		defer sc.S.Stop()
		sc.S.Sleep(sc.Warmup())
		if err := cl.Setup(); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		wave(0)

		loseReply = true
		wave(1)

		// Sampled when the call starts: slow for the first try only.
		sc.Net.SetLink(origin, seqAddr, sim.Const(70*time.Millisecond))
		sc.S.GoAfter(10*time.Millisecond, func() { sc.Net.SetLink(origin, seqAddr, cfg.Latency) })
		wave(2)

		// Nothing from the sequencer reaches the origin until it has given
		// up on it and taken over.
		sc.Net.SetDrop(seqAddr, origin, 1)
		wave(3)
		sc.Net.SetDrop(seqAddr, origin, 0)
		wave(4)
		sc.S.Sleep(500 * time.Millisecond)
	})
	sc.Run(time.Hour)
	if t.Failed() {
		return
	}
	if lost != 1 {
		t.Fatalf("the reply-loss fault fired %d times, want 1", lost)
	}
	base := sc.Initial.Version()
	for i, v := range acked {
		if want := base + uint64(i) + 1; v != want {
			t.Fatalf("acknowledged versions %v: position %d is %d, want %d (dense from %d)", acked, i, v, want, base)
		}
	}
	for i, m := range sc.Masters {
		if got := m.Stats().WritesApplied; got != uint64(len(acked)) {
			t.Errorf("master %d applied %d writes, the ledger acknowledged %d (a batch was lost or applied twice)", i, got, len(acked))
		}
		if got, want := m.Version(), base+uint64(len(acked)); got != want {
			t.Errorf("master %d is at version %d, want %d", i, got, want)
		}
	}
}
