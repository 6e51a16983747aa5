package core

import (
	"bytes"
	"errors"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/wire"
)

// signedBatch builds the s.updatebatch frame contents an honest master
// sends for ops committed at first, first+1, ….
func signedBatch(master *cryptoutil.KeyPair, first uint64, ops []store.Op, now time.Time) BatchUpdate {
	bu := BatchUpdate{First: first, MasterAddr: "master"}
	for _, op := range ops {
		bu.Ops = append(bu.Ops, store.EncodeOp(op))
	}
	bu.Stamp = SignBatchStamp(master, bu.Last(), now, BatchDigest(first, bu.Ops))
	return bu
}

// adoptedStamp is a test accessor.
func (s *Slave) adoptedStamp() VersionStamp {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastStamp
}

// entryBytes encodes the batch entry: uvarint first ‖ ops ‖ stamp, the
// s.updatebatch frame before its master address, the WAL record after its
// broadcast slot and one entry of an m.sync reply.
func entryBytes(bu BatchUpdate) []byte { return wire.EncodeFrame(bu.appendEntry) }

// batchTamper is one way of presenting a batch entry that a replica at
// version 1 must refuse, whichever of the three consumers reads it: a
// slave's s.updatebatch handler, a state transfer, WAL replay. entry
// starts from the honest batch of waveOps(8) at versions 2..9; evil is a
// key the replica does not trust.
type batchTamper struct {
	name  string
	entry func(master, evil *cryptoutil.KeyPair, now time.Time) []byte
}

var batchTamperCases = []batchTamper{
	{"two ops swapped", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		bu.Ops[1], bu.Ops[2] = bu.Ops[2], bu.Ops[1]
		return entryBytes(bu)
	}},
	{"last op dropped", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		bu.Ops = bu.Ops[:7]
		return entryBytes(bu)
	}},
	{"last op dropped under a stamp closing the shorter batch", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		bu.Ops = bu.Ops[:7]
		bu.Stamp = SignBatchStamp(m, 8, now, bu.Stamp.OpDigest)
		return entryBytes(bu)
	}},
	{"op appended", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		bu.Ops = append(bu.Ops, store.EncodeOp(store.Delete{Key: "catalog/00000"}))
		return entryBytes(bu)
	}},
	// The op boundaries are part of what the digest covers: the same bytes
	// cut into other ops are another batch.
	{"two ops merged into one holding the same bytes, under a stamp closing the shorter batch", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		merged := append(bytes.Clone(bu.Ops[1]), bu.Ops[2]...)
		bu.Ops = append([][]byte{bu.Ops[0], merged}, bu.Ops[3:]...)
		bu.Stamp = SignBatchStamp(m, 8, now, bu.Stamp.OpDigest)
		return entryBytes(bu)
	}},
	{"one op split in two, under a stamp closing the longer batch", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		op := bu.Ops[3]
		bu.Ops = append(append(slices.Clone(bu.Ops[:3]), op[:len(op)/2], op[len(op)/2:]), bu.Ops[4:]...)
		bu.Stamp = SignBatchStamp(m, 10, now, bu.Stamp.OpDigest)
		return entryBytes(bu)
	}},
	{"op byte flipped", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		op := append([]byte(nil), bu.Ops[3]...)
		op[len(op)-1] ^= 1 // inside the value: the op still decodes
		bu.Ops[3] = op
		return entryBytes(bu)
	}},
	{"first shifted up", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		bu.First++
		return entryBytes(bu)
	}},
	{"first shifted down", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		bu.First--
		return entryBytes(bu)
	}},
	{"first shifted under a stamp closing the shifted range", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 3, waveOps(8), now) // the digest binds versions 3..10
		bu.First = 2
		bu.Stamp = SignBatchStamp(m, 9, now, bu.Stamp.OpDigest)
		return entryBytes(bu)
	}},
	{"stamp of a different batch", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		bu.Stamp = signedBatch(m, 2, append(waveOps(7), store.Delete{Key: "k"}), now).Stamp
		return entryBytes(bu)
	}},
	{"per-op stamp over the batch digest", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		bu.Stamp.Kind = stampKindOp
		bu.Stamp.sign(m)
		return entryBytes(bu)
	}},
	{"per-op stamp of the last op", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		bu.Stamp = SignStampWithOp(m, 9, now, bu.Ops[7])
		return entryBytes(bu)
	}},
	{"stamp version does not close the batch", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		bu.Stamp = SignBatchStamp(m, 10, now, bu.Stamp.OpDigest)
		return entryBytes(bu)
	}},
	{"kind byte flipped on the wire", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		bu.Stamp.Kind = stampKindOp // signature still covers the batch domain
		return entryBytes(bu)
	}},
	{"zero ops", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		bu := signedBatch(m, 2, waveOps(8), now)
		bu.Ops = nil
		return entryBytes(bu)
	}},
	{"zero ops under a stamp over their digest", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		return entryBytes(BatchUpdate{First: 2, Stamp: SignBatchStamp(m, 1, now, BatchDigest(2, nil))})
	}},
	{"unknown master key", func(_, evil *cryptoutil.KeyPair, now time.Time) []byte {
		return entryBytes(signedBatch(evil, 2, waveOps(8), now))
	}},
	{"trailing byte", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		return append(entryBytes(signedBatch(m, 2, waveOps(8), now)), 0)
	}},
	{"truncated inside the stamp", func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		b := entryBytes(signedBatch(m, 2, waveOps(8), now))
		return b[:len(b)-40]
	}},
}

// honestEntry is the entry every row of batchTamperCases starts from.
func honestEntry(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
	return entryBytes(signedBatch(m, 2, waveOps(8), now))
}

// pushFrame is the s.updatebatch frame that carries entry.
func pushFrame(entry []byte) []byte {
	return append(bytes.Clone(entry), wire.EncodeFrame(func(w *wire.Writer) { w.String_("master") })...)
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
				_, err = r.slave.Handle("master", MethodUpdateBatch, pushFrame(tc.entry(r.master, evil, r.s.Now())))
			})
			r.s.Run()
			if err == nil {
				t.Fatal("tampered batch accepted")
			}
			fr := wire.NewReader(pushFrame(tc.entry(r.master, evil, r.s.Now())))
			_, decodeErr := decodeBatchEntry(fr, (*wire.Reader).BytesSliceView)
			_ = fr.String() // the master address
			if decodeErr == nil && fr.Done() == nil && !errors.Is(err, ErrBadStamp) {
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

// batchEntryConsumers are the readers of a batch entry other than a
// slave's s.updatebatch handler: a state transfer (a slave's sync and a
// restarted master's catch-up, both reading an m.sync reply of one entry
// ending at version 9) and WAL replay (a durable master started over a WAL
// whose one record is the entry). Each starts at version 1, reads entry
// and returns the reader's version afterwards and its error.
var batchEntryConsumers = []struct {
	name string
	read func(t *testing.T, entry func(now time.Time) []byte) (uint64, error)
}{
	{"slave sync", func(t *testing.T, entry func(time.Time) []byte) (uint64, error) {
		c := newSlaveConsumer(t, 1, syncReplyOf(entry), func(s *Slave) error { return s.syncFrom("src") })
		err := pullFrom(c)
		return c.version(), err
	}},
	{"master catch-up", func(t *testing.T, entry func(time.Time) []byte) (uint64, error) {
		c := newMasterConsumer(t, 1, syncReplyOf(entry))
		err := pullFrom(c)
		return c.version(), err
	}},
	{"wal replay", func(t *testing.T, entry func(time.Time) []byte) (uint64, error) {
		m, err := restartOverWAL(t, append([]byte{1}, entry(sim.Epoch)...)) // slot 1
		if err != nil {
			return 1, err
		}
		defer m.Stop()
		return m.Version(), nil
	}},
}

// syncReplyOf answers every m.sync with a batches-only reply holding the
// one entry, anchored at slot 1.
func syncReplyOf(entry func(now time.Time) []byte) syncAnswer {
	return func(now time.Time, _ uint64) []byte {
		return append(append([]byte{syncModeBatches, 1}, entry(now)...), 1)
	}
}

func pullFrom(c *transferConsumer) (err error) {
	c.s.Go(func() { err = c.pull() })
	c.s.Run()
	return err
}

// restartOverWAL starts a durable master whose data directory holds a WAL
// of the one record, over the rigs' initial content at version 1.
func restartOverWAL(t *testing.T, record []byte) (*Master, error) {
	dir := t.TempDir()
	var cfg MasterConfig
	r := newMasterRig(t, func(c *MasterConfig) { c.DataDir = dir; cfg = *c })
	r.master.Stop()
	l, _, err := wal.Open(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(record); err != nil {
		t.Fatal(err)
	}
	l.Close()
	return NewMaster(cfg, r.s, r.net.Dialer("master"), transferState(1))
}

// TestBatchEntryTamperRefusedEverywhere reads every entry of
// batchTamperCases through a state transfer and WAL replay, as
// TestSlaveUpdateBatchTamperRefused pushes each to a slave: each consumer
// brings the honest entry to version 9 and refuses every tampered one,
// staying at version 1.
func TestBatchEntryTamperRefusedEverywhere(t *testing.T) {
	master, evil := cryptoutil.DeriveKeyPair("master", 0), cryptoutil.DeriveKeyPair("evil", 0)
	for _, cons := range batchEntryConsumers {
		t.Run(cons.name+"/honest", func(t *testing.T) {
			v, err := cons.read(t, func(now time.Time) []byte { return honestEntry(master, evil, now) })
			if err != nil || v != 9 {
				t.Fatalf("honest entry: err %v, version %d; want nil, 9", err, v)
			}
		})
		for _, tc := range batchTamperCases {
			t.Run(cons.name+"/"+tc.name, func(t *testing.T) {
				v, err := cons.read(t, func(now time.Time) []byte { return tc.entry(master, evil, now) })
				if err == nil || v != 1 {
					t.Fatalf("tampered entry: err %v, version %d; want an error, 1", err, v)
				}
			})
		}
	}
}

// TestMerkleDigestWALRefused starts a master over a WAL record whose stamp
// signs the merkle root of its batch, the digest batch stamps signed
// before BatchDigest: the master refuses to start, with the digest error.
func TestMerkleDigestWALRefused(t *testing.T) {
	master := cryptoutil.DeriveKeyPair("master", 0)
	bu := signedBatch(master, 2, waveOps(8), sim.Epoch)
	bu.Stamp = SignBatchStamp(master, bu.Last(), sim.Epoch, BatchTree(bu.First, bu.Ops).Root())
	_, err := restartOverWAL(t, append([]byte{1}, entryBytes(bu)...))
	if !errors.Is(err, ErrBadStamp) || !strings.Contains(err.Error(), "batch digest") {
		t.Fatalf("NewMaster over a merkle-digest WAL: err = %v, want the batch digest error", err)
	}
}

// TestSlaveUpdateBatchApplies covers batches of one op up to one past a
// full 256-op wave: each applies whole, is acknowledged at its last
// version and leaves the content sequential application would.
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
// handlers share the replica, its verified-stamp cache and the pooled
// writers the digest is hashed through. No delivery may be refused as
// tampered; N+1 overtaking N may only fail in the sync
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

// openPush reads an s.updatebatch frame as Slave.handleUpdateBatch does:
// the entry through the one rule (openBatch), then the master address,
// then the end of the frame.
func openPush(frame []byte, trusted []cryptoutil.PublicKey, stamps *sigCache) (openedBatch, string, error) {
	r := wire.NewReader(frame)
	b, _, err := openBatch(r, (*wire.Reader).BytesSliceView, trusted, stamps)
	if err != nil {
		return b, "", err
	}
	addr := r.String()
	return b, addr, r.Done()
}

// TestBatchUpdateDecodeVerifyAllocs pins what a slave allocates to open
// one pushed frame of n ops: 6 for any frame — the op slice, the stamp's
// key and signature, the hash of the batch's bytes (written through a
// pooled writer), the decoded-op slice and the master address — and 3 per
// op, all of them store.DecodeOp's: the op value and its key and value
// bytes. The stamp check hits the memo and allocates nothing.
func TestBatchUpdateDecodeVerifyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts only meaningful without -race")
	}
	master := cryptoutil.DeriveKeyPair("master", 0)
	trusted := []cryptoutil.PublicKey{master.Public}
	for _, n := range []int{1, 256} {
		frame := EncodeBatchUpdate(signedBatch(master, 2, waveOps(n), time.Unix(1, 0)))
		stamps := newSigCache(stampMemoSize)
		avg := testing.AllocsPerRun(50, func() {
			if _, _, err := openPush(frame, trusted, stamps); err != nil {
				t.Fatal(err)
			}
		})
		if want := float64(6 + 3*n); avg > want {
			t.Fatalf("opening a %d-op push allocates %.1f times per run, want <= %.0f", n, avg, want)
		}
	}
}
