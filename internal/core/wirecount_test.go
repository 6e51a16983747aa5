package core

import (
	"testing"

	"repro/internal/pki"
	"repro/internal/wire"
)

// A count read off the wire must never size a slice before it is bounded
// by the bytes that follow it. Each test below feeds one decoder a frame
// that says 2^62 elements follow and ends there; before the bound, each
// died in makeslice — and every one of these frames can be sent by anyone.

// hugeCount is a state-transfer reply in records-only mode whose record
// count is 2^62: ten bytes.
var hugeCount = wire.EncodeFrame(func(w *wire.Writer) {
	w.Byte(0)
	w.Uvarint(1 << 62)
})

// TestSlaveSurvivesHostileSyncCount is the remote crash as an attacker runs
// it: replay a genuine keep-alive stamp to the slave with the attacker's
// own address beside it (the address is outside the signature), and answer
// the sync the slave then sends there.
func TestSlaveSurvivesHostileSyncCount(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	asked := 0
	r.net.Register("attacker", func(from, method string, body []byte) ([]byte, error) {
		asked++
		return hugeCount, nil
	})
	r.s.Go(func() {
		stamp := SignStamp(r.master, 5, r.s.Now()) // ahead of the replica: the slave will sync
		w := wire.NewWriter(128)
		stamp.Encode(w)
		w.String_("attacker")
		if _, err := r.slave.Handle("attacker", MethodKeepAlive, w.Bytes()); err != nil {
			t.Errorf("keep-alive: %v", err)
		}
	})
	r.s.Run()
	if asked != 1 {
		t.Fatalf("the slave asked the attacker for %d syncs, want 1", asked)
	}
	if st := r.slave.Stats(); r.slave.Version() != 1 || st.UpdatesSynced != 0 || st.SnapshotSyncs != 0 {
		t.Fatalf("refused reply changed the replica: version %d, %+v", r.slave.Version(), st)
	}
}

// TestCatchUpSurvivesHostileSyncCount: the same reply to a restarted
// master's recovery sync.
func TestCatchUpSurvivesHostileSyncCount(t *testing.T) {
	dir := t.TempDir()
	r := newMasterRig(t, func(cfg *MasterConfig) { cfg.DataDir = dir })
	t.Cleanup(r.master.Stop)
	cert := pki.Certificate{Role: pki.RoleMaster, Addr: "master", Subject: r.master.PublicKey(), IssuedAt: r.s.Now()}
	cert.Sign(r.owner)
	r.dir.Publish(r.owner.Public, cert)
	r.net.Register("peer", func(from, method string, body []byte) ([]byte, error) { return hugeCount, nil })
	var err error
	r.s.Go(func() { err = r.master.catchUpFrom("peer") })
	r.s.Run()
	if err == nil {
		t.Fatal("reply with an impossible record count accepted")
	}
	if st := r.master.Stats(); r.master.Version() != 1 || st.RecoverySyncs != 0 {
		t.Fatalf("refused reply changed the master: version %d, %+v", r.master.Version(), st)
	}
}

// TestDeliverSurvivesHostileCounts: b.submit is unauthenticated, so one
// forged frame reaches deliver on every master. The slave-list and the
// adoption arm each read a count; both frames end right after it.
func TestDeliverSurvivesHostileCounts(t *testing.T) {
	for name, kind := range map[string]byte{"slave list": bcSlaveList, "adoption": bcAdopt} {
		t.Run(name, func(t *testing.T) {
			m := newRealClockMaster(t)
			m.deliver(1, wire.EncodeFrame(func(w *wire.Writer) {
				w.Byte(kind)
				w.String_("m9") // the sending master / the dead one
				w.Uvarint(1 << 62)
			}))
			m.mu.Lock()
			peers, adopted := len(m.peerSlaves), len(m.adopted)
			m.mu.Unlock()
			if peers != 0 || adopted != 0 || m.SlaveCount() != 0 {
				t.Fatalf("forged frame left state behind: %d peer sets, %d adoptions", peers, adopted)
			}
		})
	}
}
