package core

import (
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

func (r *slaveRig) read(t *testing.T, q query.Query) (ReadReply, error) {
	t.Helper()
	w := wire.NewWriter(64)
	w.Bytes_(query.Encode(q))
	body, err := r.slave.Handle("client", MethodRead, w.Bytes())
	if err != nil {
		return ReadReply{}, err
	}
	return DecodeReadReply(body)
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
		var recs []OpRecord
		for i, op := range ops {
			recs = append(recs, batchRecords(r.master, uint64(2+i), []store.Op{op}, r.s.Now())...)
		}
		w := wire.NewWriter(512)
		encodeStateTransfer(w, nil, recs, SignStamp(r.master, 3, r.s.Now()), 0)
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
	if string(got.Payload) != "r" || !got.XLie {
		t.Fatalf("round trip: %+v", got)
	}
	if err := got.Pledge.VerifySig(); err != nil {
		t.Fatalf("pledge: %v", err)
	}
	// Truncated reply fails.
	enc := EncodeReadReply(rr)
	if _, err := DecodeReadReply(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated reply decoded")
	}
}
