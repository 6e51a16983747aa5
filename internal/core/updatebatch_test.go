package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/sim"
	"repro/internal/store"
)

// signedBatch builds the s.updatebatch frame contents an honest master
// sends for ops committed at first, first+1, ….
func signedBatch(master *cryptoutil.KeyPair, first uint64, ops []store.Op, now time.Time) BatchUpdate {
	bu := BatchUpdate{First: first, MasterAddr: "master"}
	for _, op := range ops {
		bu.Ops = append(bu.Ops, store.EncodeOp(op))
	}
	bu.Stamp = SignBatchStamp(master, bu.Last(), now, BatchTree(first, bu.Ops).Root())
	return bu
}

// batchRecords is what an honest master logs for that batch and ships in
// a sync reply: one OpRecord per op, under the batch stamp, each with its
// membership proof.
func batchRecords(master *cryptoutil.KeyPair, first uint64, ops []store.Op, now time.Time) []OpRecord {
	bu := signedBatch(master, first, ops, now)
	tree := BatchTree(first, bu.Ops)
	recs := make([]OpRecord, len(bu.Ops))
	for i, op := range bu.Ops {
		proof, err := tree.Prove(i)
		if err != nil {
			panic(err)
		}
		recs[i] = OpRecord{Version: first + uint64(i), OpBytes: op, Stamp: bu.Stamp,
			First: first, Count: uint64(len(bu.Ops)), Proof: proof}
	}
	return recs
}

// adoptedStamp is a test accessor.
func (s *Slave) adoptedStamp() VersionStamp {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastStamp
}

// batchTamper is one way of presenting a batch a slave at version 1 must
// refuse. frame starts from the honest batch of waveOps(8) at versions
// 2..9; evil is a key the slave does not trust.
type batchTamper struct {
	name  string
	frame func(master, evil *cryptoutil.KeyPair, now time.Time) []byte
}

var batchTamperCases = []batchTamper{
	{"two ops swapped", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		bu.Ops[1], bu.Ops[2] = bu.Ops[2], bu.Ops[1]
		return EncodeBatchUpdate(bu)
	}},
	{"last op dropped", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		bu.Ops = bu.Ops[:7]
		return EncodeBatchUpdate(bu)
	}},
	{"last op dropped under a stamp closing the shorter batch", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		bu.Ops = bu.Ops[:7]
		bu.Stamp = SignBatchStamp(m, 8, now, bu.Stamp.OpDigest)
		return EncodeBatchUpdate(bu)
	}},
	{"op appended", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		bu.Ops = append(bu.Ops, store.EncodeOp(store.Delete{Key: "catalog/00000"}))
		return EncodeBatchUpdate(bu)
	}},
	{"op byte flipped", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		op := append([]byte(nil), bu.Ops[3]...)
		op[len(op)-1] ^= 1 // inside the value: the op still decodes
		bu.Ops[3] = op
		return EncodeBatchUpdate(bu)
	}},
	{"first shifted up", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		bu.First++
		return EncodeBatchUpdate(bu)
	}},
	{"first shifted down", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		bu.First--
		return EncodeBatchUpdate(bu)
	}},
	{"first shifted under a stamp closing the shifted range", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 3, waveOps(8), now) // the root binds versions 3..10
		bu.First = 2
		bu.Stamp = SignBatchStamp(m, 9, now, bu.Stamp.OpDigest)
		return EncodeBatchUpdate(bu)
	}},
	{"stamp of a different batch", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		bu.Stamp = signedBatch(m, 2, append(waveOps(7), store.Delete{Key: "k"}), now).Stamp
		return EncodeBatchUpdate(bu)
	}},
	{"per-op stamp over the batch root", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		bu.Stamp.Kind = stampKindOp
		bu.Stamp.sign(m)
		return EncodeBatchUpdate(bu)
	}},
	{"per-op stamp of the last op", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		bu.Stamp = SignStampWithOp(m, 9, now, bu.Ops[7])
		return EncodeBatchUpdate(bu)
	}},
	{"stamp version does not close the batch", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		bu.Stamp = SignBatchStamp(m, 10, now, bu.Stamp.OpDigest)
		return EncodeBatchUpdate(bu)
	}},
	{"kind byte flipped on the wire", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		bu.Stamp.Kind = stampKindOp // signature still covers the batch domain
		return EncodeBatchUpdate(bu)
	}},
	{"zero ops", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		bu.Ops = nil
		return EncodeBatchUpdate(bu)
	}},
	{"zero ops under a stamp over the empty root", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		return EncodeBatchUpdate(BatchUpdate{First: 2, MasterAddr: "master",
			Stamp: SignBatchStamp(m, 1, now, BatchTree(2, nil).Root())})
	}},
	{"unknown master key", func(_, evil *cryptoutil.KeyPair, now time.Time) []byte {
		return EncodeBatchUpdate(signedBatch(evil, 2, waveOps(8), now))
	}},
	{"trailing byte", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		return append(EncodeBatchUpdate(signedBatch(m, 2, waveOps(8), now)), 0)
	}},
	{"truncated inside the stamp", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		b := EncodeBatchUpdate(signedBatch(m, 2, waveOps(8), now))
		return b[:len(b)-40]
	}},
}

// TestSlaveUpdateBatchTamperRefused sends every tampered batch of the
// table to a slave: each is refused — with ErrBadStamp unless the frame
// does not even decode — and leaves the replica exactly as it was:
// version, content and adopted stamp.
func TestSlaveUpdateBatchTamperRefused(t *testing.T) {
	evil := cryptoutil.DeriveKeyPair("evil", 0)
	for _, tc := range batchTamperCases {
		t.Run(tc.name, func(t *testing.T) {
			r := newSlaveRig(t, Honest{})
			var err error
			var digest cryptoutil.Digest
			var stamp VersionStamp
			r.s.Go(func() {
				r.keepAlive(1)
				digest, stamp = r.slave.StateDigest(), r.slave.adoptedStamp()
				r.s.Sleep(time.Millisecond) // a fresher stamp would be adopted if accepted
				_, err = r.slave.Handle("master", MethodUpdateBatch, tc.frame(r.master, evil, r.s.Now()))
			})
			r.s.Run()
			if err == nil {
				t.Fatal("tampered batch accepted")
			}
			if _, decodeErr := DecodeBatchUpdate(tc.frame(r.master, evil, r.s.Now())); decodeErr == nil && !errors.Is(err, ErrBadStamp) {
				t.Fatalf("err = %v, want ErrBadStamp", err)
			}
			if r.slave.Version() != 1 || !r.slave.StateDigest().Equal(digest) {
				t.Fatalf("refused batch changed the replica: version %d", r.slave.Version())
			}
			if got := r.slave.adoptedStamp(); got.Version != stamp.Version || !got.Timestamp.Equal(stamp.Timestamp) {
				t.Fatalf("refused batch changed the adopted stamp: %+v", got)
			}
			if st := r.slave.Stats(); st.UpdatesOK != 0 || st.BatchesApplied != 0 || st.UpdatesSynced != 0 {
				t.Fatalf("refused batch counted as applied: %+v", st)
			}
		})
	}
}

// TestSlaveUpdateBatchApplies covers the tree shapes around a power of
// two (odd nodes are promoted, not duplicated): each batch applies whole,
// is acknowledged at its last version and leaves the content sequential
// application would.
func TestSlaveUpdateBatchApplies(t *testing.T) {
	for _, n := range []int{1, 2, 3, 255, 256, 257} {
		r := newSlaveRig(t, Honest{})
		want := store.New()
		want.Apply(store.Put{Key: "k", Value: []byte("v")})
		for _, op := range waveOps(n) {
			want.Apply(op)
		}
		var ack []byte
		var err error
		r.s.Go(func() {
			ack, err = r.slave.Handle("master", MethodUpdateBatch,
				EncodeBatchUpdate(signedBatch(r.master, 2, waveOps(n), r.s.Now())))
		})
		r.s.Run()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if v, ok := parseAck(ack); !ok || v != uint64(1+n) {
			t.Fatalf("n=%d: ack = %d, %v", n, v, ok)
		}
		if r.slave.Version() != uint64(1+n) || !r.slave.StateDigest().Equal(want.StateDigest()) {
			t.Fatalf("n=%d: replica at version %d differs from sequential application", n, r.slave.Version())
		}
		if st := r.slave.Stats(); st.UpdatesOK != uint64(n) || st.BatchesApplied != 1 {
			t.Fatalf("n=%d: stats %+v", n, st)
		}
		if r.slave.adoptedStamp().Version != uint64(1+n) {
			t.Fatalf("n=%d: batch stamp not adopted", n)
		}
	}
}

// TestSlaveUpdateBatchConcurrent delivers batch N, batch N+1 and a
// duplicate of N from goroutines of their own, as rpc.TCPServer does: the
// tree the root is rebuilt into is shared by every handler. No delivery
// may be refused as tampered; N+1 overtaking N may only fail in the sync
// it then attempts (the stub dialer has no master to offer).
func TestSlaveUpdateBatchConcurrent(t *testing.T) {
	master := cryptoutil.DeriveKeyPair("master", 0)
	sl := NewSlave(SlaveConfig{
		Addr: "slave", Keys: cryptoutil.DeriveKeyPair("slave", 0), Params: DefaultParams(),
		MasterAddr: "master", MasterPubs: []cryptoutil.PublicKey{master.Public},
	}, sim.RealClock{}, nullDialer{}, store.New())
	now := time.Now()
	frameN := EncodeBatchUpdate(signedBatch(master, 1, waveOps(256), now))
	frameN1 := EncodeBatchUpdate(signedBatch(master, 257, waveOps(255), now.Add(time.Millisecond)))

	var wg sync.WaitGroup
	for _, frame := range [][]byte{frameN, frameN1, frameN} {
		wg.Add(1)
		go func(frame []byte) {
			defer wg.Done()
			if _, err := sl.Handle("master", MethodUpdateBatch, frame); errors.Is(err, ErrBadStamp) {
				t.Errorf("honest batch refused as tampered: %v", err)
			}
		}(frame)
	}
	wg.Wait()
	// N+1 lands now if it overtook N above and is a duplicate otherwise.
	if _, err := sl.Handle("master", MethodUpdateBatch, frameN1); err != nil {
		t.Fatalf("batch N+1 after N: %v", err)
	}
	want := store.New()
	for _, op := range append(waveOps(256), waveOps(255)...) {
		want.Apply(op)
	}
	if sl.Version() != 511 || !sl.StateDigest().Equal(want.StateDigest()) {
		t.Fatalf("replica at version %d differs from sequential application", sl.Version())
	}
}

// TestBatchUpdateDecodeVerifyAllocs pins what a slave allocates to decode
// and check one 256-op frame with its retained scratch: one leaf key per
// op (BatchLeaf) and a handful for the frame — the op slice, the stamp's
// key and signature, the master address. A step slice per membership
// proof, as the proof-carrying frame needed, would double it.
func TestBatchUpdateDecodeVerifyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts only meaningful without -race")
	}
	const n = 256
	master := cryptoutil.DeriveKeyPair("master", 0)
	trusted := []cryptoutil.PublicKey{master.Public}
	frame := EncodeBatchUpdate(signedBatch(master, 2, waveOps(n), time.Unix(1, 0)))
	stamps := newSigCache()
	var sc batchScratch
	avg := testing.AllocsPerRun(50, func() {
		bu, err := DecodeBatchUpdate(frame)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stamps.verifyStamp(&bu.Stamp, trusted); err != nil {
			t.Fatal(err)
		}
		if err := bu.VerifyMembers(&sc); err != nil {
			t.Fatal(err)
		}
	})
	if avg > n+8 {
		t.Fatalf("decode+verify of a %d-op frame allocates %.1f times per run, want <= %d", n, avg, n+8)
	}
}
