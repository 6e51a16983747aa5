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
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

// transferParts is a state-transfer reply before encoding, so that a case
// can swap one part for a tampered one. A record of the reply is one
// committed batch.
type transferParts struct {
	snap    *ckptSnapshot
	batches []BatchUpdate
	anchor  uint64
}

func (p transferParts) encode() []byte {
	w := wire.NewWriter(1024)
	encodeStateTransfer(w, p.snap, p.batches, p.anchor)
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

// honestTransfer is a snapshot-first reply from a master at version 7 with
// its snapshot at snapAt: the snapshot, then the logged batches from the
// one holding snapAt+1 on — whole, as the master logged them. An honest
// master snapshots its current state (snapAt 7, no batches); the verifier
// still accepts and checks the batches that follow an older one.
func honestTransfer(master *cryptoutil.KeyPair, now time.Time, snapAt uint64) transferParts {
	var batches []BatchUpdate
	for _, bu := range []BatchUpdate{
		signedBatch(master, 2, transferOps[0:1], now),
		signedBatch(master, 3, transferOps[1:2], now),
		signedBatch(master, 4, transferOps[2:6], now),
	} {
		if bu.Last() > snapAt {
			batches = append(batches, bu)
		}
	}
	snap := transferState(snapAt).EncodeSnapshot()
	return transferParts{
		snap:    &ckptSnapshot{version: snapAt, bytes: snap, stamp: SignStampWithOp(master, snapAt, now, snap)},
		batches: batches,
		anchor:  42,
	}
}

// transferTamper is one reply a scripted source gives to a request from
// version from; accept marks the honest ones, which must bring every
// consumer to version 7. The consumers start at version at (0: 1).
type transferTamper struct {
	name   string
	accept bool
	at     uint64
	reply  func(master, evil *cryptoutil.KeyPair, now time.Time, from uint64) []byte
}

// tampered builds a refused case from an edit of the honest reply with its
// snapshot at version 2, which is followed by two records: the write at 3
// and the batch 4..7.
func tampered(name string, edit func(p *transferParts, m, evil *cryptoutil.KeyPair, now time.Time)) transferTamper {
	return transferTamper{name: name, reply: func(m, evil *cryptoutil.KeyPair, now time.Time, _ uint64) []byte {
		p := honestTransfer(m, now, 2)
		edit(&p, m, evil, now)
		return p.encode()
	}}
}

// reordered builds a refused case from the honest reply with its snapshot
// at version 1, which is followed by all three records, reordered by edit.
func reordered(name string, edit func([]BatchUpdate) []BatchUpdate) transferTamper {
	return transferTamper{name: name, reply: func(m, _ *cryptoutil.KeyPair, now time.Time, _ uint64) []byte {
		p := honestTransfer(m, now, 1)
		p.batches = edit(p.batches)
		return p.encode()
	}}
}

var transferTamperCases = []transferTamper{
	{"honest, snapshot between two commits", true, 0, func(m, _ *cryptoutil.KeyPair, now time.Time, _ uint64) []byte {
		return honestTransfer(m, now, 3).encode()
	}},
	// The consumers are at 5, inside the batch 4..7: the master sends the
	// whole batch, and the replica applies 6 and 7. Bootstrap asks for
	// everything and gets the snapshot first.
	{"honest, records only from inside a batch", true, 5, func(m, _ *cryptoutil.KeyPair, now time.Time, from uint64) []byte {
		p := honestTransfer(m, now, 3)
		if from != 0 {
			p.snap = nil
		}
		return p.encode()
	}},
	tampered("snapshot bytes altered", func(p *transferParts, _, _ *cryptoutil.KeyPair, _ time.Time) {
		p.snap.bytes = bytes.Clone(p.snap.bytes)
		p.snap.bytes[len(p.snap.bytes)-1] ^= 1
	}),
	tampered("snapshot stamp from an uncertified key", func(p *transferParts, _, evil *cryptoutil.KeyPair, now time.Time) {
		p.snap.stamp = SignStampWithOp(evil, p.snap.version, now, p.snap.bytes)
	}),
	tampered("snapshot at another version than its stamp", func(p *transferParts, m, _ *cryptoutil.KeyPair, now time.Time) {
		p.snap.stamp = SignStampWithOp(m, p.snap.version+1, now, p.snap.bytes)
	}),
	tampered("snapshot hash under a batch stamp", func(p *transferParts, m, _ *cryptoutil.KeyPair, now time.Time) {
		p.snap.stamp = SignBatchStamp(m, p.snap.version, now, cryptoutil.HashBytes(p.snap.bytes))
	}),
	tampered("record op substituted", func(p *transferParts, _, _ *cryptoutil.KeyPair, _ time.Time) {
		p.batches[1].Ops[1] = store.EncodeOp(store.Put{Key: "a", Value: []byte("666")})
	}),
	tampered("record stamp closing another batch", func(p *transferParts, m, _ *cryptoutil.KeyPair, now time.Time) {
		p.batches[1].Stamp = signedBatch(m, 4, waveOps(4), now).Stamp // also closes 7
	}),
	tampered("record batch geometry shifted under its stamp", func(p *transferParts, _, _ *cryptoutil.KeyPair, _ time.Time) {
		p.batches[1].First, p.batches[1].Ops = 5, p.batches[1].Ops[1:] // still closes at version 7
	}),
	tampered("record under a per-op stamp", func(p *transferParts, m, _ *cryptoutil.KeyPair, _ time.Time) {
		p.batches[1].Stamp.Kind = stampKindOp // the batch's own digest, signed in the snapshot domain
		p.batches[1].Stamp.sign(m)
	}),
	tampered("record a strict prefix of its signed batch", func(p *transferParts, _, _ *cryptoutil.KeyPair, _ time.Time) {
		p.batches[1].Ops = p.batches[1].Ops[:2]
	}),
	// The cut the per-op proofs existed for: the ops above a truncation
	// inside a batch, without the ops below it. It closes at the stamp's
	// version; only the digest gives it away.
	tampered("record a strict suffix of its signed batch", func(p *transferParts, _, _ *cryptoutil.KeyPair, _ time.Time) {
		p.batches[1].First, p.batches[1].Ops = 6, p.batches[1].Ops[2:]
	}),
	// The last record's stamp names the version the reply brings a
	// replica to, and a slave adopts it: forged or altered, it is refused.
	tampered("last record stamp from an uncertified key", func(p *transferParts, _, evil *cryptoutil.KeyPair, now time.Time) {
		last := &p.batches[len(p.batches)-1]
		last.Stamp = SignBatchStamp(evil, last.Last(), now, last.Stamp.OpDigest)
	}),
	tampered("last record stamp signature altered", func(p *transferParts, _, _ *cryptoutil.KeyPair, _ time.Time) {
		last := &p.batches[len(p.batches)-1]
		last.Stamp.Sig = bytes.Clone(last.Stamp.Sig)
		last.Stamp.Sig[0] ^= 1
	}),
	tampered("records starting above the snapshot", func(p *transferParts, _, _ *cryptoutil.KeyPair, _ time.Time) {
		p.batches = p.batches[1:] // the write at 3 is missing
	}),
	reordered("records with a gap", func(b []BatchUpdate) []BatchUpdate {
		return []BatchUpdate{b[0], b[2]}
	}),
	reordered("records out of order", func(b []BatchUpdate) []BatchUpdate {
		return []BatchUpdate{b[0], b[2], b[1]}
	}),
	{"unknown mode byte", false, 0, func(m, _ *cryptoutil.KeyPair, now time.Time, _ uint64) []byte {
		b := honestTransfer(m, now, 3).encode()
		b[0] = 2
		return b
	}},
	{"trailing bytes", false, 0, func(m, _ *cryptoutil.KeyPair, now time.Time, _ uint64) []byte {
		return append(honestTransfer(m, now, 3).encode(), 0)
	}},
	// The last batch's stamp closes the reply: it names the version the
	// reply brings a replica to, and only the anchor follows it.
	{"truncated inside the closing stamp", false, 0, func(m, _ *cryptoutil.KeyPair, now time.Time, _ uint64) []byte {
		b := honestTransfer(m, now, 3).encode()
		return b[:len(b)-10]
	}},
	{"record count larger than the body", false, 0, func(_, _ *cryptoutil.KeyPair, _ time.Time, _ uint64) []byte {
		return hugeCount
	}},
	{"record count one above the records sent", false, 0, func(m, _ *cryptoutil.KeyPair, now time.Time, _ uint64) []byte {
		p := honestTransfer(m, now, 7) // no records follow a snapshot at the source's version
		return wire.EncodeFrame(func(w *wire.Writer) {
			w.Byte(syncModeSnapshot)
			w.Bytes_(p.snap.bytes)
			p.snap.stamp.Encode(w)
			w.Uvarint(1)
			w.Uvarint(p.anchor)
		})
	}},
}

// transferConsumer is one of the three readers of a state transfer, at
// version at over the initial content and transferOps, about to pull from
// "src".
type transferConsumer struct {
	pull      func() error
	version   func() uint64
	digest    func() cryptoutil.Digest
	untouched func(t *testing.T) // beyond version and digest
	brought   func(t *testing.T) // beyond version and digest, after an accepted transfer
	s         *sim.Sim
}

// syncAnswer is what the scripted source answers to an m.sync from
// version from.
type syncAnswer func(now time.Time, from uint64) []byte

// serveSync registers the scripted source at "src".
func serveSync(s *sim.Sim, net *rpc.SimNet, answer syncAnswer) {
	net.Register("src", func(from, method string, body []byte) ([]byte, error) {
		r := wire.NewReader(body)
		if v := r.Uvarint(); method == MethodSync && r.Done() == nil {
			return answer(s.Now(), v), nil
		}
		return nil, errors.New("unexpected request")
	})
}

func newSlaveConsumer(t *testing.T, at uint64, answer syncAnswer, pull func(*Slave) error) *transferConsumer {
	r := newSlaveRig(t, Honest{})
	r.slave.mu.Lock()
	r.slave.store = transferState(at)
	r.slave.mu.Unlock()
	serveSync(r.s, r.net, answer)
	var before VersionStamp
	return &transferConsumer{
		s: r.s,
		pull: func() error {
			r.keepAlive(at)
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
				t.Fatalf("the transfer's newest stamp not adopted: %+v", got)
			}
		},
	}
}

func newMasterConsumer(t *testing.T, at uint64, answer syncAnswer) *transferConsumer {
	dir := t.TempDir()
	var cfg MasterConfig
	r := newMasterRig(t, func(c *MasterConfig) { c.DataDir = dir; cfg = *c })
	t.Cleanup(r.master.Stop)
	r.master.mu.Lock()
	r.master.store, r.master.baseVersion = transferState(at), at
	r.master.mu.Unlock()
	cert := pki.Certificate{Role: pki.RoleMaster, Addr: "src", Subject: r.master.PublicKey(), IssuedAt: r.s.Now()}
	cert.Sign(r.owner)
	r.dir.Publish(r.owner.Public, cert)
	serveSync(r.s, r.net, answer)
	return &transferConsumer{
		s:       r.s,
		pull:    func() error { return r.master.catchUpFrom("src") },
		version: r.master.Version,
		digest:  r.master.StateDigest,
		untouched: func(t *testing.T) {
			if st := r.master.Stats(); st.RecoverySyncs != 0 || r.master.RetainedOps() != 0 || r.master.BaseVersion() != at {
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
		make func(t *testing.T, at uint64, answer syncAnswer) *transferConsumer
	}{
		{"slave sync", func(t *testing.T, at uint64, answer syncAnswer) *transferConsumer {
			return newSlaveConsumer(t, at, answer, func(s *Slave) error { return s.syncFrom("src") })
		}},
		{"slave bootstrap", func(t *testing.T, at uint64, answer syncAnswer) *transferConsumer {
			return newSlaveConsumer(t, at, answer, func(s *Slave) error { s.SetMaster("src"); return s.Bootstrap() })
		}},
		{"master catch-up", newMasterConsumer},
	}
	for _, tc := range transferTamperCases {
		for _, cons := range consumers {
			t.Run(tc.name+"/"+cons.name, func(t *testing.T) {
				at := max(tc.at, 1)
				c := cons.make(t, at, func(now time.Time, from uint64) []byte { return tc.reply(master, evil, now, from) })
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
				if c.version() != at || !c.digest().Equal(before) {
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

func (d replyDialer) CallTimeout(addr, method string, body []byte, _ time.Duration) ([]byte, error) {
	return d.reply, nil
}

// bootstrapDialer answers an m.sync from version 0 with snapshot and any
// other from log.
type bootstrapDialer struct {
	snapshot []byte
	log      *batchLog
}

func (d bootstrapDialer) CallTimeout(addr, method string, body []byte, timeout time.Duration) ([]byte, error) {
	if method == MethodSync && wire.NewReader(body).Uvarint() == 0 {
		return d.snapshot, nil
	}
	return d.log.CallTimeout(addr, method, body, timeout)
}

// TestSlaveStateTransferConcurrent races the ways a slave's replica
// changes — Bootstrap, syncFrom and announced batches, which the slave
// fetches — on one slave, from goroutines of their own as rpc.TCPServer
// runs handlers: they share the replica, the adopted stamp and the sync
// guard behind one lock. Whatever the order, announcing the last batch
// once more afterwards must leave the source's state.
func TestSlaveStateTransferConcurrent(t *testing.T) {
	master := cryptoutil.DeriveKeyPair("master", 0)
	now := time.Now()
	log := new(batchLog)
	for _, bu := range honestTransfer(master, now, 1).batches {
		log.add(bu)
	}
	late := signedBatch(master, 8, waveOps(4), now.Add(time.Millisecond)) // after the transfer
	log.add(late)
	sl := NewSlave(SlaveConfig{
		Addr: "slave", Keys: cryptoutil.DeriveKeyPair("slave", 0), Params: DefaultParams(),
		MasterAddr: "src", MasterPubs: []cryptoutil.PublicKey{master.Public},
	}, sim.RealClock{}, bootstrapDialer{honestTransfer(master, now, 3).encode(), log}, transferState(1))
	early := log.batches[0].Stamp // inside the transfer
	announceStep := func(stamp VersionStamp) func() error {
		return func() error { _, err := announce(sl, stamp); return err }
	}
	var wg sync.WaitGroup
	for _, step := range []func() error{
		sl.Bootstrap, announceStep(early), func() error { return sl.syncFrom("src") }, announceStep(late.Stamp), sl.Bootstrap, announceStep(late.Stamp),
	} {
		wg.Add(1)
		go func(step func() error) {
			defer wg.Done()
			// Nothing may be refused as tampered.
			if err := step(); errors.Is(err, ErrBadStamp) {
				t.Errorf("honest transfer or announce refused as tampered: %v", err)
			}
		}(step)
	}
	wg.Wait()
	if err := announceStep(late.Stamp)(); err != nil {
		t.Fatalf("last batch after the race: %v", err)
	}
	if err := awaitVersion(sl, 11); err != nil {
		t.Fatal(err)
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
