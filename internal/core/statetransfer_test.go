package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/pki"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

// transferParts is a state-transfer reply before encoding, so that a case
// can swap one part for a tampered one.
type transferParts struct {
	snap    *ckptSnapshot
	recs    []OpRecord
	closing VersionStamp
	anchor  uint64
}

func (p transferParts) encode() []byte {
	w := wire.NewWriter(1024)
	encodeStateTransfer(w, p.snap, p.recs, p.closing, p.anchor)
	return w.Bytes()
}

// transferOps is the history the scripted source has committed over the
// rigs' initial content (k=v at version 1): two writes that committed
// alone, at versions 2 and 3, then one batch of four, versions 4 to 7.
var transferOps = []store.Op{
	store.Put{Key: "a", Value: []byte("1")},
	store.Append{Key: "k", Data: []byte("+w")},
	store.Put{Key: "b", Value: []byte("2")},
	store.Delete{Key: "a"},
	store.Put{Key: "c", Value: []byte("3")},
	store.Append{Key: "b", Data: []byte("+4")},
}

// transferState is the content at version: the initial content and the
// first version-1 ops of transferOps.
func transferState(version uint64) *store.Store {
	st := store.New()
	st.Apply(store.Put{Key: "k", Value: []byte("v")})
	for st.Version() < version {
		st.Apply(transferOps[st.Version()-1])
	}
	return st
}

// honestTransfer is what an honest master at version 7 answers a request
// from below its base when the snapshot it retains is at snapAt: the
// snapshot, the records after it, the closing stamp. snapAt 3 lies
// between two commits; 5 lies inside the batch of four, as after a
// checkpoint that truncated the log in the middle of it.
func honestTransfer(master *cryptoutil.KeyPair, now time.Time, snapAt uint64) transferParts {
	recs := batchRecords(master, 2, transferOps[0:1], now)
	recs = append(recs, batchRecords(master, 3, transferOps[1:2], now)...)
	recs = append(recs, batchRecords(master, 4, transferOps[2:6], now)...)
	snap := transferState(snapAt).EncodeSnapshot()
	return transferParts{
		snap:    &ckptSnapshot{version: snapAt, bytes: snap, stamp: SignStampWithOp(master, snapAt, now, snap)},
		recs:    recs[snapAt-1:], // recs[i] commits version i+2
		closing: SignStamp(master, 7, now),
		anchor:  42,
	}
}

// transferTamper is one reply a scripted source gives; accept marks the
// honest ones, which must bring every consumer to version 7.
type transferTamper struct {
	name   string
	accept bool
	reply  func(master, evil *cryptoutil.KeyPair, now time.Time) []byte
}

// tampered builds a case from an edit of the honest reply with its
// snapshot at version 3.
func tampered(name string, edit func(p *transferParts, m, evil *cryptoutil.KeyPair, now time.Time)) transferTamper {
	return transferTamper{name: name, reply: func(m, evil *cryptoutil.KeyPair, now time.Time) []byte {
		p := honestTransfer(m, now, 3)
		edit(&p, m, evil, now)
		return p.encode()
	}}
}

var transferTamperCases = []transferTamper{
	{"honest, snapshot between two commits", true, func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		return honestTransfer(m, now, 3).encode()
	}},
	{"honest, mid-batch suffix after a truncation", true, func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		return honestTransfer(m, now, 5).encode() // records 6 and 7 verify by proof alone
	}},
	tampered("snapshot bytes altered", func(p *transferParts, _, _ *cryptoutil.KeyPair, _ time.Time) {
		p.snap.bytes = bytes.Clone(p.snap.bytes)
		p.snap.bytes[len(p.snap.bytes)-1] ^= 1
	}),
	tampered("snapshot stamp from an uncertified key", func(p *transferParts, _, evil *cryptoutil.KeyPair, now time.Time) {
		p.snap.stamp = SignStampWithOp(evil, 3, now, p.snap.bytes)
	}),
	tampered("snapshot at another version than its stamp", func(p *transferParts, m, _ *cryptoutil.KeyPair, now time.Time) {
		p.snap.stamp = SignStampWithOp(m, 4, now, p.snap.bytes)
	}),
	tampered("snapshot hash under a batch stamp", func(p *transferParts, m, _ *cryptoutil.KeyPair, now time.Time) {
		p.snap.stamp = SignBatchStamp(m, 3, now, cryptoutil.HashBytes(p.snap.bytes))
	}),
	tampered("record with the proof of another index", func(p *transferParts, _, _ *cryptoutil.KeyPair, _ time.Time) {
		p.recs[1].Proof = p.recs[2].Proof
	}),
	tampered("record with another index's proof relabelled", func(p *transferParts, _, _ *cryptoutil.KeyPair, _ time.Time) {
		p.recs[1].Proof = p.recs[2].Proof
		p.recs[1].Proof.Index = 1
	}),
	tampered("record op substituted", func(p *transferParts, _, _ *cryptoutil.KeyPair, _ time.Time) {
		p.recs[1].OpBytes = store.EncodeOp(store.Put{Key: "a", Value: []byte("666")})
	}),
	tampered("record stamp closing another batch", func(p *transferParts, m, _ *cryptoutil.KeyPair, now time.Time) {
		other := signedBatch(m, 8, waveOps(4), now).Stamp
		for i := range p.recs {
			p.recs[i].Stamp = other
		}
	}),
	tampered("record batch geometry shifted under its stamp", func(p *transferParts, _, _ *cryptoutil.KeyPair, _ time.Time) {
		for i := range p.recs {
			p.recs[i].First, p.recs[i].Count = 5, 3 // still closes at version 7
		}
	}),
	tampered("record under a per-op stamp", func(p *transferParts, m, _ *cryptoutil.KeyPair, now time.Time) {
		p.recs = p.recs[:1]
		p.recs[0].Stamp = SignStampWithOp(m, 4, now, p.recs[0].OpBytes)
		p.recs[0].First, p.recs[0].Count = 4, 1
	}),
	tampered("forged closing stamp", func(p *transferParts, _, evil *cryptoutil.KeyPair, now time.Time) {
		p.closing = SignStamp(evil, 7, now)
	}),
	tampered("closing stamp signature altered", func(p *transferParts, _, _ *cryptoutil.KeyPair, _ time.Time) {
		p.closing.Sig = bytes.Clone(p.closing.Sig)
		p.closing.Sig[0] ^= 1
	}),
	{"unknown mode byte", false, func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		b := honestTransfer(m, now, 3).encode()
		b[0] = 2
		return b
	}},
	{"trailing bytes", false, func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		return append(honestTransfer(m, now, 3).encode(), 0)
	}},
	{"truncated inside the closing stamp", false, func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		b := honestTransfer(m, now, 3).encode()
		return b[:len(b)-10]
	}},
	{"record count larger than the body", false, func(_, _ *cryptoutil.KeyPair, _ time.Time) []byte {
		return hugeCount
	}},
	{"record count one above the records sent", false, func(m, _ *cryptoutil.KeyPair, now time.Time) []byte {
		p := honestTransfer(m, now, 7) // no records follow a snapshot at the source's version
		return wire.EncodeFrame(func(w *wire.Writer) {
			w.Byte(syncModeSnapshot)
			w.Bytes_(p.snap.bytes)
			p.snap.stamp.Encode(w)
			w.Uvarint(1)
			p.closing.Encode(w)
			w.Uvarint(p.anchor)
		})
	}},
}

// transferConsumer is one of the three readers of a state transfer, at
// version 1 over the initial content, about to pull from "src".
type transferConsumer struct {
	pull      func() error
	version   func() uint64
	digest    func() cryptoutil.Digest
	untouched func(t *testing.T) // beyond version and digest
	brought   func(t *testing.T) // beyond version and digest, after an accepted transfer
	s         *sim.Sim
}

func newSlaveConsumer(t *testing.T, reply func(now time.Time) []byte, pull func(*Slave) error) *transferConsumer {
	r := newSlaveRig(t, Honest{})
	r.net.Register("src", func(from, method string, body []byte) ([]byte, error) {
		if method != MethodSync {
			return nil, errors.New("unexpected method")
		}
		return reply(r.s.Now()), nil
	})
	var before VersionStamp
	return &transferConsumer{
		s: r.s,
		pull: func() error {
			r.keepAlive(1)
			before = r.slave.adoptedStamp()
			r.s.Sleep(time.Millisecond) // a fresher stamp would be adopted if accepted
			return pull(r.slave)
		},
		version: r.slave.Version,
		digest:  r.slave.StateDigest,
		untouched: func(t *testing.T) {
			if got := r.slave.adoptedStamp(); got.Version != before.Version || !got.Timestamp.Equal(before.Timestamp) {
				t.Fatalf("refused transfer changed the adopted stamp: %+v", got)
			}
			if st := r.slave.Stats(); st.UpdatesSynced != 0 || st.SnapshotSyncs != 0 {
				t.Fatalf("refused transfer counted as applied: %+v", st)
			}
		},
		brought: func(t *testing.T) {
			if got := r.slave.adoptedStamp(); got.Version != 7 {
				t.Fatalf("closing stamp not adopted: %+v", got)
			}
		},
	}
}

func newMasterConsumer(t *testing.T, reply func(now time.Time) []byte) *transferConsumer {
	dir := t.TempDir()
	var cfg MasterConfig
	r := newMasterRig(t, func(c *MasterConfig) { c.DataDir = dir; cfg = *c })
	t.Cleanup(r.master.Stop)
	cert := pki.Certificate{Role: pki.RoleMaster, Addr: "src", Subject: r.master.PublicKey(), IssuedAt: r.s.Now()}
	cert.Sign(r.owner)
	r.dir.Publish(r.owner.Public, cert)
	r.net.Register("src", func(from, method string, body []byte) ([]byte, error) {
		if method != MethodSync {
			return nil, errors.New("unexpected method")
		}
		return reply(r.s.Now()), nil
	})
	return &transferConsumer{
		s:       r.s,
		pull:    func() error { return r.master.catchUpFrom("src") },
		version: r.master.Version,
		digest:  r.master.StateDigest,
		untouched: func(t *testing.T) {
			if st := r.master.Stats(); st.RecoverySyncs != 0 || r.master.RetainedOps() != 0 || r.master.BaseVersion() != 1 {
				t.Fatalf("refused transfer changed the master: %+v, %d ops retained over base %d",
					st, r.master.RetainedOps(), r.master.BaseVersion())
			}
			if _, err := os.Stat(filepath.Join(dir, "snapshot")); !os.IsNotExist(err) {
				t.Fatalf("refused transfer was persisted: %v", err)
			}
		},
		brought: func(t *testing.T) {
			if st := r.master.Stats(); st.RecoverySyncs != 1 {
				t.Fatalf("stats %+v", st)
			}
			// What it persisted reloads through the same snapshot check.
			r.master.Stop()
			again, err := NewMaster(cfg, r.s, r.net.Dialer("master"), transferState(1))
			if err != nil {
				t.Fatalf("restart over the persisted transfer: %v", err)
			}
			defer again.Stop()
			if again.Version() != 7 || !again.StateDigest().Equal(transferState(7).StateDigest()) {
				t.Fatalf("restart over the persisted transfer is at version %d", again.Version())
			}
		},
	}
}

// TestStateTransferTamperTable runs every reply of the table against the
// three readers of a state transfer — a slave's sync, a slave's Bootstrap,
// a restarted master's catch-up. A tampered reply is refused by each and
// leaves the replica exactly as it was; an honest one brings each to the
// source's state.
func TestStateTransferTamperTable(t *testing.T) {
	master, evil := cryptoutil.DeriveKeyPair("master", 0), cryptoutil.DeriveKeyPair("evil", 0)
	consumers := []struct {
		name string
		make func(t *testing.T, reply func(now time.Time) []byte) *transferConsumer
	}{
		{"slave sync", func(t *testing.T, reply func(time.Time) []byte) *transferConsumer {
			return newSlaveConsumer(t, reply, func(s *Slave) error { return s.syncFrom("src") })
		}},
		{"slave bootstrap", func(t *testing.T, reply func(time.Time) []byte) *transferConsumer {
			return newSlaveConsumer(t, reply, func(s *Slave) error { s.SetMaster("src"); return s.Bootstrap() })
		}},
		{"master catch-up", newMasterConsumer},
	}
	for _, tc := range transferTamperCases {
		for _, cons := range consumers {
			t.Run(tc.name+"/"+cons.name, func(t *testing.T) {
				c := cons.make(t, func(now time.Time) []byte { return tc.reply(master, evil, now) })
				before := c.digest()
				var err error
				c.s.Go(func() { err = c.pull() })
				c.s.Run()
				if tc.accept {
					if err != nil {
						t.Fatalf("honest transfer refused: %v", err)
					}
					if c.version() != 7 || !c.digest().Equal(transferState(7).StateDigest()) {
						t.Fatalf("replica at version %d differs from the source's state", c.version())
					}
					c.brought(t)
					return
				}
				if err == nil {
					t.Fatal("tampered transfer accepted")
				}
				if c.version() != 1 || !c.digest().Equal(before) {
					t.Fatalf("refused transfer changed the replica: version %d", c.version())
				}
				c.untouched(t)
			})
		}
	}
}

// TestBootstrapReplacesAheadReplica: a replica that claims a version ahead
// of the master's snapshot keeps its state through a sync — a snapshot
// only ever moves a replica forward — and loses it to Bootstrap, which is
// for a slave whose state, version included, is not to be believed.
func TestBootstrapReplacesAheadReplica(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	r.net.Register("src", func(from, method string, body []byte) ([]byte, error) {
		return honestTransfer(r.master, r.s.Now(), 3).encode(), nil
	})
	r.slave.mu.Lock()
	for i := 0; i < 8; i++ { // to version 9, past the source's 7
		r.slave.store.Apply(store.Put{Key: "k", Value: []byte{byte(i)}})
	}
	r.slave.mu.Unlock()
	ahead := r.slave.StateDigest()
	var syncErr, bootErr error
	var afterSync uint64
	r.s.Go(func() {
		syncErr = r.slave.syncFrom("src")
		afterSync = r.slave.Version()
		if !r.slave.StateDigest().Equal(ahead) {
			t.Error("sync replaced a replica ahead of the snapshot")
		}
		r.slave.SetMaster("src")
		bootErr = r.slave.Bootstrap()
	})
	r.s.Run()
	if syncErr != nil || bootErr != nil {
		t.Fatalf("sync: %v, bootstrap: %v", syncErr, bootErr)
	}
	if afterSync != 9 {
		t.Fatalf("sync left the replica at version %d, want 9", afterSync)
	}
	if r.slave.Version() != 7 || !r.slave.StateDigest().Equal(transferState(7).StateDigest()) {
		t.Fatalf("bootstrap left the replica at version %d, want the source's 7", r.slave.Version())
	}
	if got := r.slave.adoptedStamp(); got.Version != 7 {
		t.Fatalf("bootstrap kept stamp %+v", got)
	}
}

// replyDialer answers every call with one reply.
type replyDialer struct{ reply []byte }

func (d replyDialer) Call(addr, method string, body []byte) ([]byte, error) { return d.reply, nil }
func (d replyDialer) CallTimeout(addr, method string, body []byte, _ time.Duration) ([]byte, error) {
	return d.reply, nil
}

// TestSlaveStateTransferConcurrent races the three ways a slave's replica
// changes — Bootstrap, syncFrom and pushed batches — on one slave, from
// goroutines of their own as rpc.TCPServer runs handlers: they share the
// replica, the adopted stamp and the sync guard behind one lock. Whatever
// the order, delivering the last batch once more afterwards must leave
// the source's state.
func TestSlaveStateTransferConcurrent(t *testing.T) {
	master := cryptoutil.DeriveKeyPair("master", 0)
	now := time.Now()
	sl := NewSlave(SlaveConfig{
		Addr: "slave", Keys: cryptoutil.DeriveKeyPair("slave", 0), Params: DefaultParams(),
		MasterAddr: "src", MasterPubs: []cryptoutil.PublicKey{master.Public},
	}, sim.RealClock{}, replyDialer{honestTransfer(master, now, 3).encode()}, transferState(1))
	early := EncodeBatchUpdate(signedBatch(master, 2, transferOps[0:1], now))                // inside the transfer
	late := EncodeBatchUpdate(signedBatch(master, 8, waveOps(4), now.Add(time.Millisecond))) // after it
	push := func(frame []byte) func() error {
		return func() error { _, err := sl.Handle("src", MethodUpdateBatch, frame); return err }
	}
	var wg sync.WaitGroup
	for _, step := range []func() error{
		sl.Bootstrap, push(early), func() error { return sl.syncFrom("src") }, push(late), sl.Bootstrap, push(late),
	} {
		wg.Add(1)
		go func(step func() error) {
			defer wg.Done()
			// A push that Bootstrap overtakes mid-apply may find a gap;
			// nothing may be refused as tampered.
			if err := step(); errors.Is(err, ErrBadStamp) {
				t.Errorf("honest transfer or batch refused as tampered: %v", err)
			}
		}(step)
	}
	wg.Wait()
	if err := push(late)(); err != nil {
		t.Fatalf("last batch after the race: %v", err)
	}
	want := transferState(7)
	for _, op := range waveOps(4) {
		want.Apply(op)
	}
	if sl.Version() != 11 || !sl.StateDigest().Equal(want.StateDigest()) {
		t.Fatalf("replica at version %d differs from the source's state", sl.Version())
	}
}

// TestBootstrapRefusesRecordsOnlyReply: "everything" is answered with a
// snapshot; verified records alone cannot stand in for the state under them.
func TestBootstrapRefusesRecordsOnlyReply(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	r.net.Register("src", func(from, method string, body []byte) ([]byte, error) {
		p := honestTransfer(r.master, r.s.Now(), 1)
		p.snap = nil
		return p.encode(), nil
	})
	var err error
	r.s.Go(func() { r.slave.SetMaster("src"); err = r.slave.Bootstrap() })
	r.s.Run()
	if err == nil || r.slave.Version() != 1 {
		t.Fatalf("bootstrap from records alone: err = %v, version %d", err, r.slave.Version())
	}
}
