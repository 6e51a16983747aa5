package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/pki"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/store"
)

// newStabilityRig builds an unstarted master whose store is at the given
// version, for white-box stability-policy tests.
func newStabilityRig(t *testing.T, version int) *Master {
	t.Helper()
	s := sim.New(1)
	net := rpc.NewSimNet(s, sim.Const(time.Millisecond))
	initial := store.New()
	for i := 0; i < version; i++ {
		initial.Apply(store.Put{Key: "k", Value: []byte{byte(i)}})
	}
	m, err := NewMaster(MasterConfig{
		Addr:   "m0",
		Keys:   cryptoutil.DeriveKeyPair("master", 0),
		Params: DefaultParams(),
		Peers:  []string{"m0"},
	}, s, net.Dialer("m0"), initial)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestStableVersionLaggingAckPolicy pins the policy that keeps one
// untrusted slave from defeating the bounded-memory guarantee: a slave
// that keeps acking an ancient version (never silent, so checkpointMaxLag
// never ungates it) must stop gating stability once its version lag
// exceeds the maxAckBehind bound, while a merely-slow slave inside the
// bound still pins history to the cheap record-replay path.
func TestStableVersionLaggingAckPolicy(t *testing.T) {
	const cur = 2 * maxAckBehind
	const far, near = maxAckBehind + 8, maxAckBehind / 2
	m := newStabilityRig(t, cur)
	m.AddSlave("s-fresh", cryptoutil.DeriveKeyPair("slave", 0).Public)
	m.AddSlave("s-behind", cryptoutil.DeriveKeyPair("slave", 1).Public)

	m.recordAck("s-fresh", cur)
	m.recordAck("s-behind", cur-far) // beyond maxAckBehind: adversarial or hopeless
	m.mu.Lock()
	got := m.stableVersionLocked(m.rt.Now())
	m.mu.Unlock()
	if got != cur {
		t.Fatalf("stable = %d with a %d-behind acker; want %d (it must not gate)", got, far, cur)
	}

	m.recordAck("s-behind", cur-near) // inside the bound: honest-but-slow
	m.mu.Lock()
	got = m.stableVersionLocked(m.rt.Now())
	m.mu.Unlock()
	if got != cur-near {
		t.Fatalf("stable = %d with a %d-behind acker; want %d (it should gate)", got, near, cur-near)
	}

	// A forged ack claiming a future version must not raise stability.
	m.recordAck("s-behind", cur+1000)
	m.mu.Lock()
	got = m.stableVersionLocked(m.rt.Now())
	m.mu.Unlock()
	if got != cur {
		t.Fatalf("stable = %d with a future-version acker; want %d", got, cur)
	}
}

// TestForgedFutureAckNeverEntersStability: a slave that acks a version
// its master has not committed yet is clamped to the committed version at
// once. Kept as sent, the forged ack would wait in the ack table until the
// store caught up and then stand in the stability minimum for history the
// slave never applied — here 110, while the liar has acked only 100 since.
func TestForgedFutureAckNeverEntersStability(t *testing.T) {
	m := newStabilityRig(t, 100)
	m.AddSlave("s-honest", cryptoutil.DeriveKeyPair("slave", 0).Public)
	m.AddSlave("s-liar", cryptoutil.DeriveKeyPair("slave", 1).Public)
	m.recordAck("s-liar", 110)
	m.mu.Lock()
	for i := 0; i < 20; i++ {
		m.store.Apply(store.Put{Key: "k", Value: []byte{byte(i)}})
	}
	m.mu.Unlock()
	m.recordAck("s-honest", 120)
	m.recordAck("s-liar", 100)
	m.mu.Lock()
	got := m.stableVersionLocked(m.rt.Now())
	m.mu.Unlock()
	if got > 100 {
		t.Fatalf("stable = %d; want at most 100, the liar's highest ack the master had committed", got)
	}
}

// TestRecordAckDropsNonMembers pins the exclusion-leak guard: an ack
// arriving from a slave that was just removed from the set must not
// re-create its entry in the slave table, and AddSlave seeds the
// member's ack (version 0, now).
func TestRecordAckDropsNonMembers(t *testing.T) {
	m := newStabilityRig(t, 10)
	m.AddSlave("s0", cryptoutil.DeriveKeyPair("slave", 0).Public)
	m.recordAck("ghost", 5)
	m.mu.Lock()
	ghost := m.slaveIndexLocked("ghost")
	slaves := slices.Clone(m.slaves)
	m.mu.Unlock()
	if ghost >= 0 || len(slaves) != 1 {
		t.Fatalf("ack from a non-member slave was recorded: %d entries", len(slaves))
	}
	if e := slaves[0]; e.cert.Addr != "s0" || e.ack.version != 0 || !e.ack.at.Equal(m.rt.Now()) {
		t.Fatalf("AddSlave should seed the member's ack entry: %+v", e.ack)
	}
}

// TestEachMasterTruncatesAtItsOwnStablePoint: two masters share one
// ordered history, but each one's slave acks a different version, and
// truncation is each master's own decision. Each cuts at its own slave's
// stable point — while idle too, on slave-list deliveries alone — and then,
// with acks moving under a steady write stream, never more than once per
// CheckpointEvery. The slaves' acks are refreshed well inside the
// silent-slave lag, and one wave of checkpointMinRetain ops puts the
// retain window above both stable points.
func TestEachMasterTruncatesAtItsOwnStablePoint(t *testing.T) {
	const every = time.Second
	s := sim.New(7)
	net := rpc.NewSimNet(s, sim.Const(time.Millisecond))
	params := DefaultParams()
	params.MaxLatency = 10 * time.Millisecond
	params.KeepAliveEvery = 100 * time.Millisecond // slave lists every 400 ms
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	dir := BoundDirectory{Dir: pki.NewDirectory(), ContentKey: owner.Public}
	initial := store.New()
	initial.Apply(store.Put{Key: "k", Value: []byte("v")})
	peers := []string{"m0", "m1"}
	var masters []*Master
	for i, addr := range peers {
		m, err := NewMaster(MasterConfig{
			Addr: addr, Keys: cryptoutil.DeriveKeyPair("master", i), Params: params,
			ContentKey: owner.Public, Peers: peers, Directory: dir, Seed: int64(i),
			CheckpointEvery: every,
		}, s, net.Dialer(addr), initial)
		if err != nil {
			t.Fatal(err)
		}
		net.Register(addr, m.Handle)
		m.AddSlave("s"+addr, cryptoutil.DeriveKeyPair("slave", i).Public) // nobody answers there
		masters = append(masters, m)
	}
	client := cryptoutil.DeriveKeyPair("client", 0)
	writeWave := func(ops []store.Op) error {
		_, err := masters[0].Handle("client", MethodWriteMulti, encodeWave(SignWave(client, ops)))
		return err
	}
	write := func(i int) error { return writeWave([]store.Op{store.Put{Key: "k", Value: []byte{byte(i)}}}) }
	ack := func(v0, v1 uint64) {
		masters[0].recordAck("sm0", v0)
		masters[1].recordAck("sm1", v1)
	}

	var idleBase, idleCuts [2]uint64 // each master after the idle phase
	var cuts [2][]time.Time          // when each master's truncation count rose
	s.Go(func() {
		defer s.Stop()
		start := s.Now()
		for _, m := range masters {
			m.Start()
		}
		for i := 0; i < 20; i++ { // versions 2..21, a batch each
			if err := write(i); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
		window := make([]store.Op, checkpointMinRetain) // versions 22..85, one batch
		for i := range window {
			window[i] = store.Put{Key: fmt.Sprintf("w%d", i), Value: []byte("v")}
		}
		if err := writeWave(window); err != nil {
			t.Errorf("window wave: %v", err)
			return
		}
		if s.Now().Sub(start) >= every {
			t.Errorf("writes took %v; the first truncation was due after %v", s.Now().Sub(start), every)
			return
		}
		for i, m := range masters {
			if st := m.Stats(); st.CheckpointsApplied != 0 || m.BaseVersion() != 1 {
				t.Errorf("master %d truncated before CheckpointEvery passed: %+v, base %d", i, st, m.BaseVersion())
			}
		}
		// Idle: no writes, only slave lists are delivered.
		for i := 0; i < 20; i++ {
			ack(6, 12)
			s.Sleep(every / 10)
		}
		for i, m := range masters {
			idleBase[i], idleCuts[i] = m.BaseVersion(), m.Stats().CheckpointsApplied
		}

		// Busy: a write every 20 ms, each slave acking all of it.
		seen := idleCuts
		for i := 0; i < 200; i++ {
			if err := write(i); err != nil {
				t.Errorf("busy write %d: %v", i, err)
				return
			}
			v := masters[0].Version()
			ack(v, v)
			s.Sleep(20 * time.Millisecond)
			for j, m := range masters {
				if n := m.Stats().CheckpointsApplied; n > seen[j] {
					seen[j] = n
					cuts[j] = append(cuts[j], s.Now())
				}
			}
		}
	})
	s.RunUntil(sim.Epoch.Add(time.Hour))
	if t.Failed() {
		return
	}

	for i, want := range []uint64{6, 12} {
		if idleBase[i] != want || idleCuts[i] != 1 {
			t.Errorf("master %d idle: base %d after %d truncations, want base %d after 1 (its own slave's ack)",
				i, idleBase[i], idleCuts[i], want)
		}
	}
	for i, at := range cuts {
		if len(at) < 3 {
			t.Errorf("master %d truncated %d times in %v of busy writes", i, len(at), 200*20*time.Millisecond)
		}
		for j := 1; j < len(at); j++ {
			// Polled every 20 ms, so a gap reads up to one poll short.
			if gap := at[j].Sub(at[j-1]); gap < every-20*time.Millisecond {
				t.Errorf("master %d truncated twice within %v (CheckpointEvery %v)", i, gap, every)
			}
		}
	}
}
