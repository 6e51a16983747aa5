package core

import (
	"bytes"
	"crypto/sha1"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/wire"
)

// signedBatch builds the batch an honest master commits for ops at
// first, first+1, ….
func signedBatch(master *cryptoutil.KeyPair, first uint64, ops []store.Op, now time.Time) BatchUpdate {
	bu := BatchUpdate{First: first}
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
// WAL record after its broadcast slot and one entry of an m.sync reply.
func entryBytes(bu BatchUpdate) []byte { return wire.EncodeFrame(bu.appendEntry) }

// batchLog is a scripted master's committed history. It answers m.sync as
// an honest master does, with every logged batch from the one holding the
// version asked for on, and counts the calls. It serves as a handler and
// as a dialer.
type batchLog struct {
	mu      sync.Mutex
	batches []BatchUpdate
	syncs   int
}

func (l *batchLog) add(bu BatchUpdate) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.batches = append(l.batches, bu)
}

func (l *batchLog) syncCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

func (l *batchLog) handle(_, method string, body []byte) ([]byte, error) {
	if method != MethodSync {
		return nil, errors.New("batch log: unexpected method " + method)
	}
	from := wire.NewReader(body).Uvarint()
	l.mu.Lock()
	l.syncs++
	var batches []BatchUpdate
	for _, bu := range l.batches {
		if bu.Last() >= from {
			batches = append(batches, bu)
		}
	}
	l.mu.Unlock()
	w := wire.NewWriter(1024)
	encodeStateTransfer(w, nil, batches, 0)
	return w.Bytes(), nil
}

func (l *batchLog) CallTimeout(_, method string, body []byte, _ time.Duration) ([]byte, error) {
	return l.handle("slave", method, body)
}

// keepAliveFrame is the s.keepalive body the rig's master sends: stamp ‖
// its address.
func keepAliveFrame(stamp VersionStamp) []byte { return keepAliveFrameFrom(stamp, "master") }

// keepAliveFrameFrom is the s.keepalive body stamp ‖ addr.
func keepAliveFrameFrom(stamp VersionStamp, addr string) []byte {
	return wire.EncodeFrame(func(w *wire.Writer) {
		stamp.Encode(w)
		w.String_(addr)
	})
}

// signKeepAlive signs the keep-alive stamp a master at addr sends.
func signKeepAlive(master *cryptoutil.KeyPair, addr string, version uint64, ts time.Time) VersionStamp {
	return signStamp(master, stampKindKeepAlive, version, ts, addrDigest(addr))
}

// announce sends sl the keep-alive that names stamp, as a master announces
// a batch by its stamp, and returns the slave's ack.
func announce(sl *Slave, stamp VersionStamp) ([]byte, error) {
	return sl.Handle("master", MethodKeepAlive, keepAliveFrame(stamp))
}

// awaitVersion waits on the real clock, for at most ten seconds, until the
// replica of sl reaches version v through the fetches its keep-alives
// started.
func awaitVersion(sl *Slave, v uint64) error {
	for deadline := time.Now().Add(10 * time.Second); sl.Version() < v; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("slave at version %d, want %d", sl.Version(), v)
		}
	}
	return nil
}

// batchTamper is one way of presenting a batch entry that a replica at
// version 1 must refuse, whichever consumer reads it: a slave fetching an
// announced batch, a state transfer, WAL replay. entry
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
		bu.Stamp = signStamp(m, stampKindOp, bu.Stamp.Version, now, bu.Stamp.OpDigest)
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

// honestEntryBatch is the batch every row of batchTamperCases starts
// from, and honestEntry its entry.
func honestEntryBatch(m *cryptoutil.KeyPair, now time.Time) BatchUpdate {
	return signedBatch(m, 2, waveOps(8), now)
}

func honestEntry(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
	return entryBytes(honestEntryBatch(m, now))
}

// TestSlaveUpdateBatchTamperRefused announces the honest batch to a slave
// and answers its fetch with every tampered entry of the table: each is
// refused — with ErrBadStamp unless the reply does not even decode — and
// leaves the replica exactly as it was: version, content and adopted
// stamp. The announced stamp is not adopted, so the slave still serves at
// its own version.
func TestSlaveUpdateBatchTamperRefused(t *testing.T) {
	evil := cryptoutil.DeriveKeyPair("evil", 0)
	for _, tc := range batchTamperCases {
		t.Run(tc.name, func(t *testing.T) {
			r := newSlaveRig(t, Honest{})
			syncs := 0
			r.net.Register("master", func(_, method string, body []byte) ([]byte, error) {
				syncs++
				return syncReplyOf(func(now time.Time) []byte { return tc.entry(r.master, evil, now) })(r.s.Now(), 0), nil
			})
			var err, readErr error
			var digest cryptoutil.Digest
			var stamp VersionStamp
			var rr ReadReply
			r.s.Go(func() {
				r.keepAlive(1)
				digest, stamp = r.slave.StateDigest(), r.slave.adoptedStamp()
				r.s.Sleep(time.Millisecond) // a fresher stamp would be adopted if accepted
				if _, err = announce(r.slave, honestEntryBatch(r.master, r.s.Now()).Stamp); err != nil {
					return
				}
				r.s.Sleep(10 * time.Millisecond) // the fetch lands
				rr, readErr = r.read(t, query.Get{Key: "k"})
				err = r.slave.syncFrom("master")
			})
			r.s.Run()
			if err == nil {
				t.Fatal("tampered batch accepted")
			}
			fr := wire.NewReader(tc.entry(r.master, evil, r.s.Now()))
			if _, decodeErr := decodeBatchEntry(fr); decodeErr == nil && fr.Done() == nil && !errors.Is(err, ErrBadStamp) {
				t.Fatalf("err = %v, want ErrBadStamp", err)
			}
			if syncs != 2 {
				t.Fatalf("%d m.sync calls, want the announce's and the direct one", syncs)
			}
			if r.slave.Version() != 1 || !r.slave.StateDigest().Equal(digest) {
				t.Fatalf("refused batch changed the replica: version %d", r.slave.Version())
			}
			if got := r.slave.adoptedStamp(); got.Version != stamp.Version || !got.Timestamp.Equal(stamp.Timestamp) {
				t.Fatalf("refused batch changed the adopted stamp: %+v", got)
			}
			if readErr != nil || rr.Pledge.Stamp.Version != 1 {
				t.Fatalf("read after the refused fetch: %v, at version %d; want served at 1", readErr, rr.Pledge.Stamp.Version)
			}
			if st := r.slave.Stats(); st.UpdatesSynced != 0 || st.ReadsRefused != 0 {
				t.Fatalf("refused batch counted as applied, or a read refused: %+v", st)
			}
		})
	}
}

// batchEntryConsumers are the readers of a batch entry other than a
// slave fetching an announced batch: a state transfer (a slave's sync and a
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
// TestSlaveUpdateBatchTamperRefused feeds each to a slave through an
// announce: each consumer
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

// TestSHA1DigestWALRefused starts a master over a WAL record whose stamp
// signs the SHA-1 of the batch's bytes, the digest batch stamps signed
// before the digest became truncated SHA-256: the master refuses to start,
// with the digest error.
func TestSHA1DigestWALRefused(t *testing.T) {
	master := cryptoutil.DeriveKeyPair("master", 0)
	bu := signedBatch(master, 2, waveOps(8), sim.Epoch)
	sha1Digest := cryptoutil.Digest(sha1.Sum(wire.EncodeFrame(func(w *wire.Writer) { appendBatchPrefix(w, bu.First, bu.Ops) })))
	if sha1Digest == BatchDigest(bu.First, bu.Ops) {
		t.Fatal("BatchDigest is still SHA-1")
	}
	bu.Stamp = SignBatchStamp(master, bu.Last(), sim.Epoch, sha1Digest)
	_, err := restartOverWAL(t, append([]byte{1}, entryBytes(bu)...))
	if !errors.Is(err, ErrBadStamp) || !strings.Contains(err.Error(), "ops do not hash to the stamp's batch digest") {
		t.Fatalf("NewMaster over a SHA-1-digest WAL: err = %v, want the batch digest error", err)
	}
}

// TestSlaveUpdateBatchApplies announces batches of one op up to one past a
// full 256-op wave: the announce is acknowledged at the replica's version,
// and each batch is fetched in one m.sync, applies whole, is acknowledged
// at its last version by the next keep-alive and leaves the content
// sequential application would.
func TestSlaveUpdateBatchApplies(t *testing.T) {
	for _, n := range []int{1, 2, 3, 255, 256, 257} {
		r := newSlaveRig(t, Honest{})
		want := store.New()
		want.Apply(store.Put{Key: "k", Value: []byte("v")})
		for _, op := range waveOps(n) {
			want.Apply(op)
		}
		var announced, acked []byte
		var err error
		r.s.Go(func() {
			if announced, err = r.announce(signedBatch(r.master, 2, waveOps(n), r.s.Now())); err != nil {
				return
			}
			r.s.Sleep(10 * time.Millisecond) // the fetch lands
			acked = r.keepAlive(uint64(1 + n))
		})
		r.s.Run()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if v, ok := parseAck(announced); !ok || v != 1 {
			t.Fatalf("n=%d: announce acked %d, %v; want the replica's 1", n, v, ok)
		}
		if v, ok := parseAck(acked); !ok || v != uint64(1+n) {
			t.Fatalf("n=%d: keep-alive acked %d, %v", n, v, ok)
		}
		if r.slave.Version() != uint64(1+n) || !r.slave.StateDigest().Equal(want.StateDigest()) {
			t.Fatalf("n=%d: replica at version %d differs from sequential application", n, r.slave.Version())
		}
		if st := r.slave.Stats(); st.UpdatesSynced != uint64(n) || r.log.syncCount() != 1 {
			t.Fatalf("n=%d: %d m.sync calls, stats %+v", n, r.log.syncCount(), st)
		}
		if r.slave.adoptedStamp().Version != uint64(1+n) {
			t.Fatalf("n=%d: batch stamp not adopted", n)
		}
	}
}

// TestSlaveUpdateBatchConcurrent announces batch N, batch N+1 and N once
// more from goroutines of their own, as rpc.TCPServer runs handlers: the
// handlers and the fetches they start share the replica, the adopted
// stamp, the sync guard, the verified-stamp cache and the pooled writers
// the digest is hashed through. Whatever the order, the replica ends at
// N+1's last version with the content sequential application leaves.
func TestSlaveUpdateBatchConcurrent(t *testing.T) {
	master := cryptoutil.DeriveKeyPair("master", 0)
	log := new(batchLog)
	sl := NewSlave(SlaveConfig{
		Addr: "slave", Keys: cryptoutil.DeriveKeyPair("slave", 0), Params: DefaultParams(),
		MasterAddr: "master", MasterPubs: []cryptoutil.PublicKey{master.Public},
	}, sim.RealClock{}, log, store.New())
	now := time.Now()
	batchN := signedBatch(master, 1, waveOps(256), now)
	batchN1 := signedBatch(master, 257, waveOps(255), now.Add(time.Millisecond))
	log.add(batchN)
	log.add(batchN1)

	var wg sync.WaitGroup
	for _, bu := range []BatchUpdate{batchN, batchN1, batchN} {
		wg.Add(1)
		go func(stamp VersionStamp) {
			defer wg.Done()
			if _, err := announce(sl, stamp); err != nil {
				t.Errorf("honest announce refused: %v", err)
			}
		}(bu.Stamp)
	}
	wg.Wait()
	if err := awaitVersion(sl, 511); err != nil {
		t.Fatal(err)
	}
	want := store.New()
	for _, op := range append(waveOps(256), waveOps(255)...) {
		want.Apply(op)
	}
	if sl.Version() != 511 || !sl.StateDigest().Equal(want.StateDigest()) {
		t.Fatalf("replica at version %d differs from sequential application", sl.Version())
	}
	if got := sl.adoptedStamp(); got.Version != 511 {
		t.Fatalf("adopted stamp at version %d, want 511", got.Version)
	}
}

// TestSlaveSourceMoveConcurrent: keep-alives bound to two masters arrive
// from goroutines of their own, as rpc.TCPServer runs handlers, each ahead
// of the replica, so the fetch source moves while the fetches they start
// read it. The replica still ends at the log's last version, fetching
// from one of the two bound addresses.
func TestSlaveSourceMoveConcurrent(t *testing.T) {
	keys := []*cryptoutil.KeyPair{cryptoutil.DeriveKeyPair("master", 0), cryptoutil.DeriveKeyPair("master", 1)}
	addrs := []string{"master", "master-1"}
	log := new(batchLog)
	sl := NewSlave(SlaveConfig{
		Addr: "slave", Keys: cryptoutil.DeriveKeyPair("slave", 0), Params: DefaultParams(),
		MasterAddr: "master", MasterPubs: []cryptoutil.PublicKey{keys[0].Public, keys[1].Public},
	}, sim.RealClock{}, log, store.New())
	now := time.Now()
	log.add(signedBatch(keys[0], 1, waveOps(256), now))

	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stamp := signKeepAlive(keys[i%2], addrs[i%2], uint64(i+1), now.Add(time.Duration(i)*time.Millisecond))
			if _, err := sl.Handle(addrs[i%2], MethodKeepAlive, keepAliveFrameFrom(stamp, addrs[i%2])); err != nil {
				t.Errorf("bound keep-alive refused: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := awaitVersion(sl, 256); err != nil {
		t.Fatal(err)
	}
	if source := sl.sourceAddr(); source != addrs[0] && source != addrs[1] {
		t.Fatalf("fetches from %q", source)
	}
}

// TestBatchUpdateDecodeVerifyAllocs pins what a slave allocates to decode
// and verify an m.sync reply of one batch of n ops whose stamp its
// announce already verified: 6 for any reply — the transfer, its batch
// list, the op list, the stamp's key and signature and the decoded-op
// slice — and 3 per op, store.DecodeOp's (the op value and its key and
// value bytes): the op bytes are read by view, not copied. The
// batch digest is hashed through a pooled writer and the stamp check hits
// the memo: neither allocates.
func TestBatchUpdateDecodeVerifyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts only meaningful without -race")
	}
	master := cryptoutil.DeriveKeyPair("master", 0)
	trusted := []cryptoutil.PublicKey{master.Public}
	for _, n := range []int{1, 256} {
		bu := signedBatch(master, 2, waveOps(n), time.Unix(1, 0))
		w := wire.NewWriter(1024)
		encodeStateTransfer(w, nil, []BatchUpdate{bu}, 0)
		reply := w.Bytes()
		stamps := newSigCache(stampMemoSize)
		if err := stamps.verifyStamp(&bu.Stamp, trusted, nil); err != nil { // the announce's verify
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(50, func() {
			if _, err := decodeStateTransfer(reply, trusted, stamps, nil); err != nil {
				t.Fatal(err)
			}
		})
		if want := float64(6 + 3*n); avg > want {
			t.Fatalf("decoding a one-batch m.sync reply of %d ops allocates %.1f times per run, want <= %.0f", n, avg, want)
		}
	}
}

// BenchmarkSlaveFetchBatch256 measures one 256-op batch into a slave the
// one way a batch arrives: the keep-alive that announces it (decode, one
// stamp signature verified) and the m.sync reply the fetch brings back
// (decode, the stamp check — a memo hit —, the batch digest, op decode and
// apply). Every iteration announces the next 256 versions, so nothing is a
// duplicate. The fetch runs as a task of the simulator's runtime, against
// replies encoded before the timer starts, with no network in between.
func BenchmarkSlaveFetchBatch256(b *testing.B) {
	const n = 256
	master := cryptoutil.DeriveKeyPair("master", 0)
	s := sim.New(1)
	replies := make(replyByFrom, b.N)
	stamps := make([]VersionStamp, b.N)
	for i := range stamps {
		bu := signedBatch(master, 1+uint64(i)*n, waveOps(n), sim.Epoch)
		w := wire.NewWriter(8 << 10)
		encodeStateTransfer(w, nil, []BatchUpdate{bu}, 0)
		replies[bu.First], stamps[i] = w.Bytes(), bu.Stamp
	}
	sl := NewSlave(SlaveConfig{
		Addr: "slave", Keys: cryptoutil.DeriveKeyPair("slave", 0), Params: DefaultParams(),
		MasterAddr: "master", MasterPubs: []cryptoutil.PublicKey{master.Public},
	}, s, replies, store.New())
	b.ReportAllocs()
	b.ResetTimer()
	s.Go(func() {
		for _, stamp := range stamps {
			if _, err := announce(sl, stamp); err != nil {
				b.Error(err)
				return
			}
			s.Sleep(time.Millisecond) // the fetch runs
		}
	})
	s.Run()
	b.StopTimer()
	if got := sl.Version(); got != uint64(b.N)*n {
		b.Fatalf("slave at version %d after %d batches", got, b.N)
	}
}

// replyByFrom answers each m.sync with the reply kept for the version it
// asks from.
type replyByFrom map[uint64][]byte

func (d replyByFrom) CallTimeout(_, _ string, body []byte, _ time.Duration) ([]byte, error) {
	return d[wire.NewReader(body).Uvarint()], nil
}

// TestCloneOpsDetaches pins that cloneOps, which the master's catch-up
// runs before its log keeps a fetched batch, hands back the same ops in
// a buffer that aliases nothing the reply holds.
func TestCloneOpsDetaches(t *testing.T) {
	reply := []byte("abcdef")
	ops := [][]byte{reply[0:2], reply[2:2], reply[2:6]}
	got := cloneOps(ops)
	reply[0], reply[3] = 'X', 'Y'
	if want := [][]byte{[]byte("ab"), {}, []byte("cdef")}; !slices.EqualFunc(got, want, bytes.Equal) {
		t.Fatalf("cloneOps = %q, want %q", got, want)
	}
	if cap(got[0]) != len(got[0]) {
		t.Fatalf("an op has room to grow into its neighbour: cap %d, len %d", cap(got[0]), len(got[0]))
	}
}
