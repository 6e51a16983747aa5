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

// slaveRig wires a bare slave with a scripted "master" for unit tests: the
// master's committed history is log, which answers m.sync unless a test
// registers another "master".
type slaveRig struct {
	s      *sim.Sim
	net    *rpc.SimNet
	slave  *Slave
	master *cryptoutil.KeyPair
	params Params
	log    *batchLog
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
	log := new(batchLog)
	net.Register("master", log.handle)
	return &slaveRig{s: s, net: net, slave: sl, master: master, params: DefaultParams(), log: log}
}

// keepAlive sends the slave a keep-alive stamped now for version and
// returns its ack.
func (r *slaveRig) keepAlive(version uint64) []byte {
	ack, err := announce(r.slave, SignStamp(r.master, version, r.s.Now()))
	if err != nil {
		panic(err)
	}
	return ack
}

// announce commits bu to the scripted master's log and announces it to
// the slave by its stamp, as a master does once the batch is durable; the
// slave's fetch runs as a task of its own.
func (r *slaveRig) announce(bu BatchUpdate) ([]byte, error) {
	r.log.add(bu)
	return announce(r.slave, bu.Stamp)
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

// oneOp is the batch of a commit that is a single write: a batch of one at
// version.
func oneOp(master *cryptoutil.KeyPair, version uint64, op store.Op, now time.Time) BatchUpdate {
	return signedBatch(master, version, []store.Op{op}, now)
}

// TestSlaveRejectsUpdateWithWrongOpDigest: an honest announce whose fetch
// brings a substituted op under the batch's stamp is refused whole. The
// replica stays at version 1, the announced stamp is not adopted, and the
// slave goes on serving at 1 under the stamp it held.
func TestSlaveRejectsUpdateWithWrongOpDigest(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	var syncErr, readErr error
	var rr ReadReply
	r.s.Go(func() {
		r.keepAlive(1)
		bu := oneOp(r.master, 2, store.Put{Key: "x", Value: []byte("1")}, r.s.Now())
		// Substituted op under a stamp for a different op.
		tampered := bu
		tampered.Ops = [][]byte{store.EncodeOp(store.Put{Key: "x", Value: []byte("666")})}
		r.log.add(tampered)
		if _, err := announce(r.slave, bu.Stamp); err != nil {
			t.Errorf("announce: %v", err)
			return
		}
		r.s.Sleep(10 * time.Millisecond) // the fetch lands
		rr, readErr = r.read(t, query.Get{Key: "k"})
		syncErr = r.slave.syncFrom("master")
	})
	r.s.Run()
	if !errors.Is(syncErr, ErrBadStamp) {
		t.Fatalf("fetch of a mismatched op: err = %v, want ErrBadStamp", syncErr)
	}
	if r.slave.Version() != 1 || r.slave.adoptedStamp().Version != 1 {
		t.Fatalf("version = %d under a stamp for %d, want 1 and 1", r.slave.Version(), r.slave.adoptedStamp().Version)
	}
	if readErr != nil || rr.Pledge.Stamp.Version != 1 {
		t.Fatalf("read after the refused fetch: %v at version %d; want served at 1", readErr, rr.Pledge.Stamp.Version)
	}
}

// TestSlaveRejectsUpdateWithUnknownMasterKey: an announce under a key the
// slave does not trust is refused before it starts a fetch.
func TestSlaveRejectsUpdateWithUnknownMasterKey(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	evil := cryptoutil.DeriveKeyPair("evil", 0)
	var err error
	r.s.Go(func() {
		_, err = r.announce(oneOp(evil, 2, store.Put{Key: "x", Value: []byte("1")}, r.s.Now()))
	})
	r.s.Run()
	if !errors.Is(err, ErrBadStamp) {
		t.Fatalf("announce signed by unknown key: err = %v, want ErrBadStamp", err)
	}
	if r.slave.Version() != 1 || r.log.syncCount() != 0 {
		t.Fatalf("version = %d after %d m.sync calls, want 1 after none", r.slave.Version(), r.log.syncCount())
	}
}

// TestSlaveAppliesContiguousUpdate: an announced batch that continues the
// replica is fetched in one m.sync and applied with its stamp.
func TestSlaveAppliesContiguousUpdate(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	r.s.Go(func() {
		if _, err := r.announce(oneOp(r.master, 2, store.Put{Key: "new", Value: []byte("n")}, r.s.Now())); err != nil {
			t.Errorf("announce: %v", err)
		}
	})
	r.s.Run()
	if r.slave.Version() != 2 || r.slave.adoptedStamp().Version != 2 {
		t.Fatalf("version = %d under a stamp for %d, want 2 and 2", r.slave.Version(), r.slave.adoptedStamp().Version)
	}
	if st := r.slave.Stats(); st.UpdatesSynced != 1 || r.log.syncCount() != 1 {
		t.Fatalf("%d m.sync calls, stats: %+v", r.log.syncCount(), st)
	}
}

// TestSlaveDuplicateUpdateIgnored: a batch announced twice before its
// fetch lands is fetched once (the single-flight guard skips the second
// sync, and the first reached what it named), and announced again after
// it landed it starts no fetch at all.
func TestSlaveDuplicateUpdateIgnored(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	r.s.Go(func() {
		bu := oneOp(r.master, 2, store.Put{Key: "new", Value: []byte("n")}, r.s.Now())
		r.log.add(bu)
		for i := 0; i < 2; i++ { // the second is a duplicate
			if _, err := announce(r.slave, bu.Stamp); err != nil {
				t.Errorf("announce %d: %v", i, err)
			}
		}
		r.s.Sleep(10 * time.Millisecond)
		if _, err := announce(r.slave, bu.Stamp); err != nil {
			t.Errorf("announce after the fetch: %v", err)
		}
	})
	r.s.Run()
	if st := r.slave.Stats(); r.slave.Version() != 2 || st.UpdatesSynced != 1 || r.log.syncCount() != 1 {
		t.Fatalf("version = %d after %d m.sync calls, want 2 after 1; stats %+v", r.slave.Version(), r.log.syncCount(), st)
	}
}

// TestSlaveDropperDiscardsUpdate: a slave whose behaviour drops updates
// takes an announced batch's stamp, fetches and applies nothing, and
// acknowledges what the forger makes of it.
func TestSlaveDropperDiscardsUpdate(t *testing.T) {
	r := newSlaveRig(t, LieAcks{})
	var ack []byte
	r.s.Go(func() {
		var err error
		ack, err = r.announce(oneOp(r.master, 2, store.Put{Key: "new", Value: []byte("n")}, r.s.Now()))
		if err != nil {
			t.Errorf("announce: %v", err)
		}
	})
	r.s.Run()
	if r.slave.Version() != 1 || r.slave.Stats().UpdatesSynced != 0 || r.log.syncCount() != 0 {
		t.Fatalf("dropper applied the update: version %d after %d m.sync calls, stats %+v", r.slave.Version(), r.log.syncCount(), r.slave.Stats())
	}
	if v, ok := parseAck(ack); !ok || v != 2 {
		t.Fatalf("ack = %d, %v; want the forged 2", v, ok)
	}
}

// TestSlaveServesAfterFetchOlderThanKeepAlive: a master signs a batch's
// stamp before it syncs the batch to its WAL, and keeps stamping
// keep-alives with the version below the batch meanwhile, so a keep-alive
// can reach the slave signed later than the batch it then fetches. The
// batch's stamp names the newer version and must be adopted: a read right
// after the fetch is served at the batch's version, not refused as stale
// until the next keep-alive.
func TestSlaveServesAfterFetchOlderThanKeepAlive(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	var rr ReadReply
	var err error
	r.s.Go(func() {
		signed := r.s.Now()
		r.s.Sleep(time.Millisecond)
		r.keepAlive(1) // signed 1 ms after the batch below
		if _, err = r.announce(oneOp(r.master, 2, store.Put{Key: "new", Value: []byte("n")}, signed)); err != nil {
			return
		}
		r.s.Sleep(10 * time.Millisecond) // the fetch lands
		rr, err = r.read(t, query.Get{Key: "new"})
	})
	r.s.Run()
	if err != nil {
		t.Fatalf("read after the fetch: %v", err)
	}
	if rr.Pledge.Stamp.Version != 2 || string(rr.Payload) == "" {
		t.Fatalf("read served under a stamp for %d with payload %q; want the batch's version 2", rr.Pledge.Stamp.Version, rr.Payload)
	}
}

// TestSlaveGapTriggersSync: an announce several batches past the replica
// — the announces of the two before it were lost — brings the replica
// through the gap in one m.sync.
func TestSlaveGapTriggersSync(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	r.s.Go(func() {
		r.log.add(oneOp(r.master, 2, store.Put{Key: "a", Value: []byte("1")}, r.s.Now()))
		r.log.add(oneOp(r.master, 3, store.Put{Key: "b", Value: []byte("2")}, r.s.Now()))
		r.announce(oneOp(r.master, 4, store.Put{Key: "c", Value: []byte("3")}, r.s.Now()))
	})
	r.s.Run()
	if v := r.slave.Version(); v != 4 {
		t.Fatalf("version = %d, want 4 (synced through the gap)", v)
	}
	if r.slave.Stats().UpdatesSynced != 3 || r.log.syncCount() != 1 {
		t.Fatalf("%d m.sync calls, stats: %+v", r.log.syncCount(), r.slave.Stats())
	}
	if got, ok := r.slave.storeGet("b"); !ok || string(got) != "2" {
		t.Fatalf("synced key b = %q, %v", got, ok)
	}
}

// slowMaster answers m.sync from log as it stood when the request arrived,
// after delay: a master whose reply is still on its way while later
// batches commit.
func slowMaster(r *slaveRig, delay time.Duration) rpc.Handler {
	return func(from, method string, body []byte) ([]byte, error) {
		reply, err := r.log.handle(from, method, body)
		r.s.Sleep(delay)
		return reply, err
	}
}

// TestSlaveAnnounceAnsweredAtOnce: an announce past the replica is
// acknowledged at once with the replica's version — the master's
// keep-alive does not wait on an m.sync round trip — and the fetch it
// starts in the background brings the replica through the gap, in one
// m.sync.
func TestSlaveAnnounceAnsweredAtOnce(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	r.net.Register("master", slowMaster(r, 2*time.Second))
	var ack []byte
	var err error
	var took time.Duration
	r.s.Go(func() {
		start := r.s.Now()
		r.log.add(oneOp(r.master, 2, store.Put{Key: "a", Value: []byte("1")}, start))
		r.log.add(oneOp(r.master, 3, store.Put{Key: "b", Value: []byte("2")}, start))
		ack, err = r.announce(oneOp(r.master, 4, store.Put{Key: "c", Value: []byte("3")}, start))
		took = r.s.Now().Sub(start)
	})
	r.s.Run()
	if err != nil || took != 0 {
		t.Fatalf("announce past the replica: err %v after %v; want nil at once", err, took)
	}
	if v, ok := parseAck(ack); !ok || v != 1 {
		t.Fatalf("ack = %d, %v; want the replica's 1", v, ok)
	}
	if v, st := r.slave.Version(), r.slave.Stats(); v != 4 || r.log.syncCount() != 1 || st.UpdatesSynced != 3 {
		t.Fatalf("after the background sync: version %d, %d m.sync calls, %+v; want 4 after one m.sync synced 3", v, r.log.syncCount(), st)
	}
}

// TestSlaveRefetchesAnnounceSkippedBySync: a batch announced while the
// fetch of the one before it is out finds the single-flight guard taken.
// The fetch that lands applied something and reached below the skipped
// announce, so it runs once more and brings that batch too, without
// waiting for the next keep-alive. A fetch that applies nothing does not
// run again.
func TestSlaveRefetchesAnnounceSkippedBySync(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	r.net.Register("master", slowMaster(r, 100*time.Millisecond))
	var atLanding uint64
	r.s.Go(func() {
		r.announce(oneOp(r.master, 2, store.Put{Key: "a", Value: []byte("1")}, r.s.Now()))
		r.s.Sleep(50 * time.Millisecond)
		r.announce(oneOp(r.master, 3, store.Put{Key: "b", Value: []byte("2")}, r.s.Now()))
		r.s.Sleep(60 * time.Millisecond) // the first fetch has landed
		atLanding = r.slave.Version()
	})
	r.s.Run()
	if v, st := r.slave.Version(), r.slave.Stats(); atLanding != 2 || v != 3 || r.log.syncCount() != 2 || st.SyncsSkipped != 1 {
		t.Fatalf("version %d after the first fetch, %d at the end, %d m.sync calls, %+v; want 2, 3, 2 and one skipped",
			atLanding, v, r.log.syncCount(), st)
	}

	// A master that has nothing past the replica: the announce ahead of it
	// costs one fetch, which applies nothing and stops.
	r = newSlaveRig(t, Honest{})
	r.s.Go(func() { announce(r.slave, SignStamp(r.master, 9, r.s.Now())) })
	r.s.Run()
	if r.slave.Version() != 1 || r.log.syncCount() != 1 {
		t.Fatalf("announce the master cannot serve: version %d after %d m.sync calls; want 1 after 1", r.slave.Version(), r.log.syncCount())
	}
}

// TestSlaveServesHeldStampWhileFetching: while the fetch of an announced
// batch is out, the slave does not adopt the announced stamp — it names
// state the replica does not hold — and serves every read at its own
// version under the stamp it held. The first read after the fetch lands
// is served at the batch's version, under the batch's stamp.
func TestSlaveServesHeldStampWhileFetching(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	r.net.Register("master", slowMaster(r, time.Second))
	var held VersionStamp
	var bu BatchUpdate
	var during []ReadReply
	var after ReadReply
	var err error
	r.s.Go(func() {
		r.keepAlive(1)
		held = r.slave.adoptedStamp()
		bu = oneOp(r.master, 2, store.Put{Key: "k", Value: []byte("w")}, r.s.Now())
		if _, err = r.announce(bu); err != nil {
			return
		}
		for start := r.s.Now(); r.s.Now().Sub(start) < 900*time.Millisecond; r.s.Sleep(100 * time.Millisecond) {
			var rr ReadReply
			if rr, err = r.read(t, query.Get{Key: "k"}); err != nil {
				return
			}
			during = append(during, rr)
		}
		r.s.Sleep(200 * time.Millisecond) // the fetch lands
		after, err = r.read(t, query.Get{Key: "k"})
	})
	r.s.Run()
	if err != nil {
		t.Fatalf("read while fetching: %v", err)
	}
	if len(during) != 9 {
		t.Fatalf("%d reads while fetching, want 9", len(during))
	}
	value := func(rr ReadReply) string {
		v, _, _ := query.GetResult(rr.Payload)
		return string(v)
	}
	for i, rr := range during {
		if rr.Pledge.Stamp.Version != 1 || !bytes.Equal(rr.Pledge.Stamp.Sig, held.Sig) || value(rr) != "v" {
			t.Fatalf("read %d while fetching: %q under a stamp for %d; want v under the held stamp for 1", i, value(rr), rr.Pledge.Stamp.Version)
		}
	}
	if after.Pledge.Stamp.Version != 2 || !bytes.Equal(after.Pledge.Stamp.Sig, bu.Stamp.Sig) || value(after) != "w" {
		t.Fatalf("read after the fetch: %q under a stamp for %d; want w under the batch's stamp", value(after), after.Pledge.Stamp.Version)
	}
	if st := r.slave.Stats(); st.ReadsRefused != 0 || st.ReadsServed != 10 {
		t.Fatalf("stats: %+v; want 10 reads served, none refused", st)
	}
}

// TestSlaveAdoptsKeptStampWithFetch: a keep-alive that names the
// announced version while its fetch is out is kept aside, not adopted,
// and once the fetch lands the slave serves under it — it was signed
// after the batch's stamp, so it ages later.
func TestSlaveAdoptsKeptStampWithFetch(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	r.net.Register("master", slowMaster(r, 100*time.Millisecond))
	var bu BatchUpdate
	var kept VersionStamp
	var during, after VersionStamp
	r.s.Go(func() {
		r.keepAlive(1)
		bu = oneOp(r.master, 2, store.Put{Key: "k", Value: []byte("w")}, r.s.Now())
		r.announce(bu)
		r.s.Sleep(50 * time.Millisecond)
		kept = SignStamp(r.master, 2, r.s.Now())
		if _, err := announce(r.slave, kept); err != nil {
			t.Errorf("keep-alive: %v", err)
		}
		during = r.slave.adoptedStamp()
		r.s.Sleep(100 * time.Millisecond) // the fetch lands
		after = r.slave.adoptedStamp()
	})
	r.s.Run()
	if during.Version != 1 {
		t.Fatalf("while fetching the slave holds a stamp for %d, want its own 1", during.Version)
	}
	if after.Version != 2 || !bytes.Equal(after.Sig, kept.Sig) {
		t.Fatalf("after the fetch the slave holds a stamp for %d signed at %v; want the keep-alive's, signed at %v (the batch's at %v)",
			after.Version, after.Timestamp, kept.Timestamp, bu.Stamp.Timestamp)
	}
}

// storeGet is a test accessor.
func (s *Slave) storeGet(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.Get(key)
}

func TestSlaveVersionMismatchRefusal(t *testing.T) {
	// The first keep-alive names version 5 while the replica is at 1: the
	// slave holds no stamp for a state it has, so it refuses reads — a
	// stamp is adopted only with the state it names.
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
// copy; after a keep-alive or a fetched batch the reference names an older stamp
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
		if _, err := r.announce(signedBatch(r.master, 2, waveOps(1), r.s.Now())); err != nil {
			t.Errorf("announce: %v", err)
			return
		}
		r.s.Sleep(10 * time.Millisecond) // the fetch lands
		if held = whole("after a batch", &held); held.Version != 2 {
			t.Errorf("after a batch: stamp at version %d", held.Version)
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
