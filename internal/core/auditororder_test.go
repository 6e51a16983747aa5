package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/wire"
)

// orderEvent is one thing that can reach an auditor: the next ordered
// batch, or one a.pledge body.
type orderEvent byte

const (
	evDeliver         orderEvent = 'D' // the next of the three batches
	evLieStatement    orderEvent = 'L' // the statement of a read a slave lied on
	evLieEvidence     orderEvent = 'l' // its evidence, if the statement was answered pledgeEvidence
	evHonestStatement orderEvent = 'H' // the statement of an honest read
	evHonestEvidence  orderEvent = 'h' // its evidence, likewise
	evMinted          orderEvent = 'M' // a minted key's evidence frame, far ahead, under a stamp of its own
)

// interleavings calls visit with every order of: the first deliveries
// batches, each statement before its own evidence, and the minted frame.
func interleavings(deliveries int, visit func([]orderEvent)) {
	var walk func(seq []orderEvent, d, lie, honest int, minted bool)
	walk = func(seq []orderEvent, d, lie, honest int, minted bool) {
		if d == deliveries && lie == 2 && honest == 2 && minted {
			visit(seq)
			return
		}
		if d < deliveries {
			walk(append(seq, evDeliver), d+1, lie, honest, minted)
		}
		if lie < 2 {
			walk(append(seq, []orderEvent{evLieStatement, evLieEvidence}[lie]), d, lie+1, honest, minted)
		}
		if honest < 2 {
			walk(append(seq, []orderEvent{evHonestStatement, evHonestEvidence}[honest]), d, lie, honest+1, minted)
		}
		if !minted {
			walk(append(seq, evMinted), d, lie, honest, true)
		}
	}
	walk(nil, 0, 0, 0, false)
}

// TestAuditorOrderExhaustive runs one auditor through every interleaving
// of up to three batch deliveries, the statement and evidence of one lie
// (at cur+2) and of one honest read (at cur+1), each forwarded as a client
// does, and one evidence frame under a freshly minted key at a version no
// master stamped, under a stamp the same key made. The auditor lags past
// the window: the first delivery comes a window and a keep-alive after the
// pledges may start. After every step the received frames are exactly the
// audited, sampled, late, bad-signature and held ones; the backlog is
// within maxHeldFrames; every held frame is ahead of delivery under a stamp
// the master made for its version; and no slave but the liar is detected
// or convicted. Once every step has run, the lie is convicted and reported
// if its version was delivered, and held otherwise. The runs share one
// stamp memo, so each real stamp's signature is checked once.
func TestAuditorOrderExhaustive(t *testing.T) {
	put := func(key, value string) store.Op { return store.Put{Key: key, Value: []byte(value)} }
	batches := [][]store.Op{{put("j", "1")}, {put("k", "v2")}, {put("j", "2")}}
	tmpl := newAuditorRig(t, nil)
	cur := tmpl.initial.Version()
	at := []*store.Store{tmpl.initial.Clone()}
	var msgs [][]byte
	for _, ops := range batches {
		next := at[len(at)-1].Clone()
		wave := queuedWave{}
		for _, op := range ops {
			next.Apply(op)
			wave.ops = append(wave.ops, store.EncodeOp(op))
		}
		at, msgs = append(at, next), append(msgs, encodeBatchMessage([]queuedWave{wave}))
	}
	k := query.Get{Key: "k"}
	answer := func(v uint64) cryptoutil.Digest {
		res, err := k.Execute(at[v-cur])
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest()
	}
	liar, honest, anyone := tmpl.slave, cryptoutil.DeriveKeyPair("slave", 1), cryptoutil.DeriveKeyPair("anyone", 0)
	stamped := func(v uint64) VersionStamp { return SignStamp(tmpl.master, v, tmpl.s.Now()) }
	lie := SignPledge(liar, query.Encode(k), cryptoutil.HashBytes([]byte("not k")), stamped(cur+2))
	right := SignPledge(honest, query.Encode(k), answer(cur+1), stamped(cur+1))
	minted := SignPledge(anyone, query.Encode(k), answer(cur), SignStamp(anyone, cur+1<<40, tmpl.s.Now()))
	real := []VersionStamp{lie.Stamp, right.Stamp}
	lag := tmpl.params.MaxLatency + tmpl.params.AuditorSlack + tmpl.params.KeepAliveEvery

	runs := 0
	for deliveries := 0; deliveries <= len(batches) && !t.Failed(); deliveries++ {
		interleavings(deliveries, func(seq []orderEvent) {
			if t.Failed() {
				return
			}
			runs++
			order := string(seq)
			r := newAuditorRig(t, nil)
			a := r.auditor
			a.stamps = tmpl.auditor.stamps
			asked := map[orderEvent]bool{}
			send := func(form byte, p Pledge) []byte {
				ack, err := a.handlePledge(pledgeBody(form, p))
				if err != nil {
					t.Errorf("%s: %v", order, err)
				}
				return ack
			}
			r.s.Go(func() {
				delivered := 0
				for i, ev := range seq {
					switch ev {
					case evDeliver:
						if delivered == 0 {
							r.s.Sleep(lag)
						}
						delivered++
						a.deliver(uint64(delivered), msgs[delivered-1], nil)
					case evLieStatement:
						asked[evLieEvidence] = bytes.Equal(send(pledgeFormStatement, lie), pledgeEvidence)
					case evHonestStatement:
						asked[evHonestEvidence] = bytes.Equal(send(pledgeFormStatement, right), pledgeEvidence)
					case evLieEvidence, evHonestEvidence:
						if asked[ev] {
							send(pledgeFormEvidence, map[orderEvent]Pledge{evLieEvidence: lie, evHonestEvidence: right}[ev])
						}
					case evMinted:
						send(pledgeFormEvidence, minted)
					}
					if err := checkAuditorOrderStep(a, real, liar.Public); err != nil {
						t.Errorf("%s, after step %d: %v", order, i+1, err)
						return
					}
				}
			})
			r.s.Run()
			if t.Failed() {
				return
			}
			st := a.Stats()
			convicted := a.Version() >= lie.Stamp.Version
			if convicted && (st.Mismatches != 1 || len(r.reports) != 1 || !r.slaveDetected()) {
				t.Errorf("%s: the lie at a delivered version is not convicted: %+v, %d reports", order, st, len(r.reports))
				return
			}
			if !convicted && (st.Mismatches != 0 || !holds(a, lie)) {
				t.Errorf("%s: the lie ahead of delivery is not held: %+v, backlog %d", order, st, a.Backlog())
				return
			}
			if convicted && !bytes.Equal(wire.NewReader(r.reports[0]).Bytes(), EncodePledge(lie)) {
				t.Errorf("%s: the report is not of the lie", order)
			}
		})
	}
	if !t.Failed() && runs != 30+180+630+1680 {
		t.Fatalf("walked %d interleavings, want 2520", runs)
	}
}

// checkAuditorOrderStep checks what must hold between any two events
// (TestAuditorOrderExhaustive); real are the stamps the masters made.
func checkAuditorOrderStep(a *Auditor, real []VersionStamp, liar cryptoutil.PublicKey) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.stats
	if settled := st.PledgesAudited + st.PledgesSampled + st.PledgesLate + st.PledgesBadSig; settled+uint64(len(a.pending)) != st.PledgesReceived {
		return fmt.Errorf("%d settled + %d held != %d received: %+v", settled, len(a.pending), st.PledgesReceived, st)
	}
	if len(a.pending) > maxHeldFrames {
		return fmt.Errorf("%d frames held, over the cap of %d", len(a.pending), maxHeldFrames)
	}
	head := a.headLocked().Version()
	for _, p := range a.pending {
		if p.Stamp.Version <= head {
			return fmt.Errorf("holds a frame at version %d, delivered to %d", p.Stamp.Version, head)
		}
		if !slices.ContainsFunc(real, func(v VersionStamp) bool { return v.equal(&p.Stamp) }) {
			return fmt.Errorf("holds a frame at version %d under a stamp no master made", p.Stamp.Version)
		}
	}
	for pub := range a.detected {
		if pub != string(liar) {
			return fmt.Errorf("a slave that did not lie is detected")
		}
	}
	if st.Mismatches > 1 {
		return fmt.Errorf("%d frames convicted, but only one lie was sent", st.Mismatches)
	}
	return nil
}

// holds reports whether the auditor holds p's frame.
func holds(a *Auditor, p Pledge) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, h := range a.pending {
		if bytes.Equal(h.Sig, p.Sig) {
			return true
		}
	}
	return false
}
