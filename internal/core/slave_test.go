package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

// slaveRig wires a bare slave with a scripted "master" for unit tests.
type slaveRig struct {
	s      *sim.Sim
	net    *rpc.SimNet
	slave  *Slave
	master *cryptoutil.KeyPair
	params Params
}

func newSlaveRig(t *testing.T, behavior Behavior) *slaveRig {
	t.Helper()
	s := sim.New(1)
	net := rpc.NewSimNet(s, sim.Const(time.Millisecond))
	master := cryptoutil.DeriveKeyPair("master", 0)
	initial := store.New()
	initial.Apply(store.Put{Key: "k", Value: []byte("v")})
	sl := NewSlave(SlaveConfig{
		Addr:       "slave",
		Keys:       cryptoutil.DeriveKeyPair("slave", 0),
		Params:     DefaultParams(),
		MasterAddr: "master",
		MasterPubs: []cryptoutil.PublicKey{master.Public},
		Behavior:   behavior,
		Seed:       1,
	}, s, net.Dialer("slave"), initial)
	net.Register("slave", sl.Handle)
	return &slaveRig{s: s, net: net, slave: sl, master: master, params: DefaultParams()}
}

func (r *slaveRig) keepAlive(version uint64) {
	stamp := SignStamp(r.master, version, r.s.Now())
	w := wire.NewWriter(128)
	stamp.Encode(w)
	w.String_("master")
	if _, err := r.slave.Handle("master", MethodKeepAlive, w.Bytes()); err != nil {
		panic(err)
	}
}

// read asks the slave q and returns its reply with the pledge completed
// the way a client completes it.
func (r *slaveRig) read(t *testing.T, q query.Query) (ReadReply, error) {
	t.Helper()
	qb := query.Encode(q)
	body, err := r.slave.Handle("client", MethodRead, encodeReadRequest(qb, nil))
	if err != nil {
		return ReadReply{}, err
	}
	rr, err := DecodeReadReply(body)
	rr.completePledge(qb, r.slave.cfg.Keys.Public)
	return rr, err
}

func TestSlaveRefusesWithoutKeepAlive(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	var err error
	r.s.Go(func() {
		_, err = r.read(t, query.Get{Key: "k"})
	})
	r.s.Run()
	if err == nil || !strings.Contains(err.Error(), ErrStale.Error()) {
		t.Fatalf("read before any keep-alive: err = %v, want stale", err)
	}
	if r.slave.Stats().ReadsRefused != 1 {
		t.Fatalf("stats: %+v", r.slave.Stats())
	}
}

func TestSlaveServesFreshAndRefusesStale(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	var fresh, stale error
	r.s.Go(func() {
		r.keepAlive(1)
		_, fresh = r.read(t, query.Get{Key: "k"})
		// Let the stamp age past max_latency.
		r.s.Sleep(r.params.MaxLatency + time.Second)
		_, stale = r.read(t, query.Get{Key: "k"})
	})
	r.s.Run()
	if fresh != nil {
		t.Fatalf("fresh read failed: %v", fresh)
	}
	if stale == nil {
		t.Fatal("stale read served")
	}
}

func TestSlavePledgeVerifiable(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	var reply ReadReply
	r.s.Go(func() {
		r.keepAlive(1)
		var err error
		reply, err = r.read(t, query.Get{Key: "k"})
		if err != nil {
			t.Errorf("read: %v", err)
		}
	})
	r.s.Run()
	if err := reply.Pledge.VerifySig(); err != nil {
		t.Fatalf("pledge sig: %v", err)
	}
	if !cryptoutil.HashBytes(reply.Payload).Equal(reply.Pledge.ResultHash) {
		t.Fatal("pledge hash mismatch")
	}
	if err := reply.Pledge.Stamp.Verify([]cryptoutil.PublicKey{r.master.Public}); err != nil {
		t.Fatalf("stamp: %v", err)
	}
	if reply.XLie {
		t.Fatal("honest slave flagged a lie")
	}
}

func TestSlaveLieIsInternallyConsistent(t *testing.T) {
	// A lying slave's reply still passes every local client check: the
	// pledge hashes the corrupted payload. Only trusted re-execution can
	// tell (that is the paper's point).
	r := newSlaveRig(t, AlwaysLie{})
	var reply ReadReply
	r.s.Go(func() {
		r.keepAlive(1)
		reply, _ = r.read(t, query.Get{Key: "k"})
	})
	r.s.Run()
	if !reply.XLie {
		t.Fatal("lie not flagged in instrumentation")
	}
	if !cryptoutil.HashBytes(reply.Payload).Equal(reply.Pledge.ResultHash) {
		t.Fatal("lying slave produced an inconsistent pledge (client would catch it trivially)")
	}
	if err := reply.Pledge.VerifySig(); err != nil {
		t.Fatalf("pledge sig: %v", err)
	}
}

// oneOp is the s.updatebatch frame of a commit that is a single write: a
// batch of one at version.
func oneOp(master *cryptoutil.KeyPair, version uint64, op store.Op, now time.Time) BatchUpdate {
	return signedBatch(master, version, []store.Op{op}, now)
}

func TestSlaveRejectsUpdateWithWrongOpDigest(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	var err error
	r.s.Go(func() {
		r.keepAlive(1)
		bu := oneOp(r.master, 2, store.Put{Key: "x", Value: []byte("1")}, r.s.Now())
		// Substituted op under a stamp for a different op.
		bu.Ops[0] = store.EncodeOp(store.Put{Key: "x", Value: []byte("666")})
		_, err = r.slave.Handle("master", MethodUpdateBatch, EncodeBatchUpdate(bu))
	})
	r.s.Run()
	if !errors.Is(err, ErrBadStamp) {
		t.Fatalf("update with mismatched op: err = %v, want ErrBadStamp", err)
	}
	if r.slave.Version() != 1 {
		t.Fatalf("version = %d, want 1", r.slave.Version())
	}
}

func TestSlaveRejectsUpdateWithUnknownMasterKey(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	evil := cryptoutil.DeriveKeyPair("evil", 0)
	var err error
	r.s.Go(func() {
		bu := oneOp(evil, 2, store.Put{Key: "x", Value: []byte("1")}, r.s.Now())
		_, err = r.slave.Handle("evil", MethodUpdateBatch, EncodeBatchUpdate(bu))
	})
	r.s.Run()
	if !errors.Is(err, ErrBadStamp) {
		t.Fatalf("update signed by unknown key: err = %v, want ErrBadStamp", err)
	}
	if r.slave.Version() != 1 {
		t.Fatalf("version = %d, want 1", r.slave.Version())
	}
}

func TestSlaveAppliesContiguousUpdate(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	r.s.Go(func() {
		bu := oneOp(r.master, 2, store.Put{Key: "new", Value: []byte("n")}, r.s.Now())
		if _, err := r.slave.Handle("master", MethodUpdateBatch, EncodeBatchUpdate(bu)); err != nil {
			t.Errorf("update: %v", err)
		}
	})
	r.s.Run()
	if r.slave.Version() != 2 {
		t.Fatalf("version = %d, want 2", r.slave.Version())
	}
	if r.slave.Stats().UpdatesOK != 1 {
		t.Fatalf("stats: %+v", r.slave.Stats())
	}
}

func TestSlaveDuplicateUpdateIgnored(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	r.s.Go(func() {
		frame := EncodeBatchUpdate(oneOp(r.master, 2, store.Put{Key: "new", Value: []byte("n")}, r.s.Now()))
		for i := 0; i < 2; i++ { // the second is a duplicate
			if _, err := r.slave.Handle("master", MethodUpdateBatch, frame); err != nil {
				t.Errorf("delivery %d: %v", i, err)
			}
		}
	})
	r.s.Run()
	if r.slave.Version() != 2 || r.slave.Stats().UpdatesOK != 1 {
		t.Fatalf("version = %d after duplicate, want 2; stats %+v", r.slave.Version(), r.slave.Stats())
	}
}

// TestSlaveDropperDiscardsUpdate: a slave whose behaviour drops updates
// leaves a one-op commit unapplied, takes its stamp and acknowledges what
// the forger makes of it.
func TestSlaveDropperDiscardsUpdate(t *testing.T) {
	r := newSlaveRig(t, LieAcks{})
	var ack []byte
	r.s.Go(func() {
		var err error
		ack, err = r.slave.Handle("master", MethodUpdateBatch,
			EncodeBatchUpdate(oneOp(r.master, 2, store.Put{Key: "new", Value: []byte("n")}, r.s.Now())))
		if err != nil {
			t.Errorf("update: %v", err)
		}
	})
	r.s.Run()
	if r.slave.Version() != 1 || r.slave.Stats().UpdatesOK != 0 {
		t.Fatalf("dropper applied the update: version %d, stats %+v", r.slave.Version(), r.slave.Stats())
	}
	if v, ok := parseAck(ack); !ok || v != 2 {
		t.Fatalf("ack = %d, %v; want the forged 2", v, ok)
	}
}

// TestSlaveServesAfterPushOlderThanKeepAlive: a master signs a batch's
// stamp before it syncs the batch to its WAL, and keeps stamping
// keep-alives with the version below the batch meanwhile, so a keep-alive
// can reach the slave signed later than the push that follows it. The
// push's stamp names the newer version and must be adopted: a read right
// after the push is served at the push's version, not refused as stale
// until the next keep-alive.
func TestSlaveServesAfterPushOlderThanKeepAlive(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	var rr ReadReply
	var err error
	r.s.Go(func() {
		signed := r.s.Now()
		r.s.Sleep(time.Millisecond)
		r.keepAlive(1) // signed 1 ms after the batch below
		frame := EncodeBatchUpdate(oneOp(r.master, 2, store.Put{Key: "new", Value: []byte("n")}, signed))
		if _, err = r.slave.Handle("master", MethodUpdateBatch, frame); err == nil {
			rr, err = r.read(t, query.Get{Key: "new"})
		}
	})
	r.s.Run()
	if err != nil {
		t.Fatalf("read after the push: %v", err)
	}
	if rr.Pledge.Stamp.Version != 2 || string(rr.Payload) == "" {
		t.Fatalf("read served under a stamp for %d with payload %q; want the push's version 2", rr.Pledge.Stamp.Version, rr.Payload)
	}
}

func TestSlaveGapTriggersSync(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	// Scripted master serving MethodSync with versions 2 and 3, each a
	// commit of its own.
	ops := []store.Op{
		store.Put{Key: "a", Value: []byte("1")},
		store.Put{Key: "b", Value: []byte("2")},
	}
	r.net.Register("master", func(from, method string, body []byte) ([]byte, error) {
		if method != MethodSync {
			return nil, errors.New("unexpected method")
		}
		var batches []BatchUpdate
		for i, op := range ops {
			batches = append(batches, signedBatch(r.master, uint64(2+i), []store.Op{op}, r.s.Now()))
		}
		w := wire.NewWriter(512)
		encodeStateTransfer(w, nil, batches, 0)
		return w.Bytes(), nil
	})
	r.s.Go(func() {
		// Deliver version 4 out of order — version 3's op arrives via sync.
		bu := oneOp(r.master, 4, store.Put{Key: "c", Value: []byte("3")}, r.s.Now())
		r.slave.Handle("master", MethodUpdateBatch, EncodeBatchUpdate(bu))
	})
	r.s.Run()
	if v := r.slave.Version(); v != 3 {
		t.Fatalf("version = %d, want 3 (synced through the gap)", v)
	}
	if r.slave.Stats().UpdatesSynced != 2 {
		t.Fatalf("stats: %+v", r.slave.Stats())
	}
	if got, ok := r.slave.storeGet("b"); !ok || string(got) != "2" {
		t.Fatalf("synced key b = %q, %v", got, ok)
	}
}

// TestSlavePushGapAnsweredAtOnce: a push that starts past the replica is
// acknowledged at once with the replica's version — the master's push
// does not wait on an m.sync round trip — and the sync it starts in the
// background brings the replica through the gap, in one m.sync.
func TestSlavePushGapAnsweredAtOnce(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	syncs := 0
	r.net.Register("master", func(from, method string, body []byte) ([]byte, error) {
		if method != MethodSync {
			return nil, errors.New("unexpected method")
		}
		syncs++
		r.s.Sleep(2 * time.Second) // a slow master
		w := wire.NewWriter(512)
		encodeStateTransfer(w, nil, []BatchUpdate{
			signedBatch(r.master, 2, []store.Op{store.Put{Key: "a", Value: []byte("1")}}, r.s.Now()),
			signedBatch(r.master, 3, []store.Op{store.Put{Key: "b", Value: []byte("2")}}, r.s.Now()),
		}, 0)
		return w.Bytes(), nil
	})
	var ack []byte
	var err error
	var took time.Duration
	r.s.Go(func() {
		start := r.s.Now()
		bu := oneOp(r.master, 4, store.Put{Key: "c", Value: []byte("3")}, start)
		ack, err = r.slave.Handle("master", MethodUpdateBatch, EncodeBatchUpdate(bu))
		took = r.s.Now().Sub(start)
	})
	r.s.Run()
	if err != nil || took != 0 {
		t.Fatalf("push past the replica: err %v after %v; want nil at once", err, took)
	}
	if v, ok := parseAck(ack); !ok || v != 1 {
		t.Fatalf("ack = %d, %v; want the replica's 1", v, ok)
	}
	if v, st := r.slave.Version(), r.slave.Stats(); v != 3 || syncs != 1 || st.UpdatesSynced != 2 {
		t.Fatalf("after the background sync: version %d, %d m.sync calls, %+v; want 3 after one m.sync synced 2", v, syncs, st)
	}
}

// storeGet is a test accessor.
func (s *Slave) storeGet(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.Get(key)
}

func TestSlaveVersionMismatchRefusal(t *testing.T) {
	// Keep-alive announces version 5 while the replica is at 1: an honest
	// slave must refuse reads (its pledge would be disprovable).
	r := newSlaveRig(t, Honest{})
	r.net.Register("master", func(from, method string, body []byte) ([]byte, error) {
		return nil, errors.New("sync unavailable")
	})
	var err error
	r.s.Go(func() {
		r.keepAlive(5)
		_, err = r.read(t, query.Get{Key: "k"})
	})
	r.s.Run()
	if err == nil {
		t.Fatal("read served while replica behind announced version")
	}
}

func TestReadReplyCodec(t *testing.T) {
	master := cryptoutil.DeriveKeyPair("master", 0)
	slave := cryptoutil.DeriveKeyPair("slave", 0)
	stamp := SignStamp(master, 3, time.Unix(9, 0).UTC())
	p := SignPledge(slave, []byte("q"), cryptoutil.HashBytes([]byte("r")), stamp)
	rr := ReadReply{Payload: []byte("r"), Pledge: p, XLie: true}
	got, err := DecodeReadReply(EncodeReadReply(rr))
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "r" || !got.XLie || !bytes.Equal(got.Pledge.Sig, p.Sig) ||
		!bytes.Equal(got.Pledge.Stamp.signedBytes(), stamp.signedBytes()) || !bytes.Equal(got.Pledge.Stamp.Sig, stamp.Sig) {
		t.Fatalf("round trip: %+v", got)
	}
	if err := got.completePledge([]byte("q"), slave.Public).VerifySig(); err != nil {
		t.Fatalf("pledge: %v", err)
	}
	// Truncated reply fails.
	enc := EncodeReadReply(rr)
	if _, err := DecodeReadReply(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated reply decoded")
	}
}

// TestSlaveReadOmitsHeldStamp drives a real slave's s.read with stamp
// references. A request that names the stamp the slave holds gets a reply
// without it, at least 120 B shorter, that the asker completes from its
// copy; after a keep-alive or a push the reference names an older stamp
// and the new one arrives whole. A reference of any length but 0 or
// stampRefLen is refused, not treated as empty.
func TestSlaveReadOmitsHeldStamp(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	qb := query.Encode(query.Get{Key: "k"})
	// ask sends qb naming ref and returns the raw reply and its decoding.
	ask := func(ref []byte) ([]byte, ReadReply, error) {
		w := wire.NewWriter(64)
		w.Bytes_(qb)
		w.Bytes_(ref)
		body, err := r.slave.Handle("client", MethodRead, w.Bytes())
		if err != nil {
			return nil, ReadReply{}, err
		}
		rr, err := DecodeReadReply(body)
		return body, rr, err
	}
	// whole asks naming held and requires the slave's current stamp whole.
	whole := func(step string, held *VersionStamp) VersionStamp {
		var ref []byte
		if held != nil {
			ref = held.Sig[:stampRefLen]
		}
		_, rr, err := ask(ref)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if want := r.slave.adoptedStamp(); !bytes.Equal(rr.Pledge.Stamp.Sig, want.Sig) {
			t.Fatalf("%s: the reply does not carry the slave's stamp whole", step)
		}
		if err := rr.completePledge(qb, r.slave.PublicKey()).VerifySig(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		stamp := rr.Pledge.Stamp
		stamp.Sig = bytes.Clone(stamp.Sig)
		return stamp
	}
	r.s.Go(func() {
		r.keepAlive(1)
		held := whole("no reference", nil)
		full, _, _ := ask(nil)
		short, rr, err := ask(held.Sig[:stampRefLen])
		if err != nil {
			t.Errorf("naming the held stamp: %v", err)
			return
		}
		if rr.Pledge.Stamp.Sig != nil || len(full)-len(short) < 120 {
			t.Errorf("naming the held stamp: reply of %d B with a stamp: %v, %d B whole", len(short), rr.Pledge.Stamp.Sig != nil, len(full))
		}
		rr.Pledge.Stamp = held
		if err := rr.completePledge(qb, r.slave.PublicKey()).VerifySig(); err != nil {
			t.Errorf("a reply completed from the held stamp: %v", err)
		}

		r.s.Sleep(r.params.KeepAliveEvery)
		r.keepAlive(1)
		held = whole("after a keep-alive", &held)
		frame := EncodeBatchUpdate(signedBatch(r.master, 2, waveOps(1), r.s.Now()))
		if _, err := r.slave.Handle("master", MethodUpdateBatch, frame); err != nil {
			t.Errorf("push: %v", err)
			return
		}
		if held = whole("after a push", &held); held.Version != 2 {
			t.Errorf("after a push: stamp at version %d", held.Version)
		}

		for _, n := range []int{1, stampRefLen - 1, stampRefLen + 1, len(held.Sig)} {
			if _, _, err := ask(held.Sig[:n]); err == nil {
				t.Errorf("a reference of %d bytes was served", n)
			}
		}
	})
	r.s.Run()
	if st := r.slave.Stats(); st.ReadsServed != 5 {
		t.Fatalf("stats: %+v", st)
	}
}
