package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/pki"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

// masterRig wires a single master (broadcast peer set of one) for unit
// tests of its RPC surface.
type masterRig struct {
	s      *sim.Sim
	net    *rpc.SimNet
	master *Master
	owner  *cryptoutil.KeyPair
	dir    *pki.Directory
	acl    *ACL
	client *cryptoutil.KeyPair
}

func newMasterRig(t *testing.T, mut func(*MasterConfig)) *masterRig {
	t.Helper()
	s := sim.New(1)
	net := rpc.NewSimNet(s, sim.Const(time.Millisecond))
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	dir := pki.NewDirectory()
	client := cryptoutil.DeriveKeyPair("client", 0)
	acl := NewACL(client.Public)
	initial := store.New()
	initial.Apply(store.Put{Key: "k", Value: []byte("v")})
	params := DefaultParams()
	params.MaxLatency = 200 * time.Millisecond // fast tests
	cfg := MasterConfig{
		Addr:        "master",
		Keys:        cryptoutil.DeriveKeyPair("master", 0),
		Params:      params,
		ContentKey:  owner.Public,
		Peers:       []string{"master"},
		AuditorAddr: "auditor",
		AuditorPub:  cryptoutil.DeriveKeyPair("auditor", 0).Public,
		ACL:         acl,
		Directory:   BoundDirectory{Dir: dir, ContentKey: owner.Public},
		Seed:        1,
	}
	if mut != nil {
		mut(&cfg)
	}
	m, err := NewMaster(cfg, s, net.Dialer("master"), initial)
	if err != nil {
		t.Fatal(err)
	}
	net.Register("master", m.Handle)
	// Certified, as every deployed master is: what it signs for its peers
	// (a bcExclude) is checked against the directory.
	cert := pki.Certificate{Role: pki.RoleMaster, Addr: cfg.Addr, Subject: m.PublicKey(), IssuedAt: s.Now()}
	cert.Sign(owner)
	dir.Publish(owner.Public, cert)
	return &masterRig{s: s, net: net, master: m, owner: owner, dir: dir, acl: acl, client: client}
}

// write submits op the way Client.Write does: a wave of one.
func (r *masterRig) write(keys *cryptoutil.KeyPair, op store.Op) ([]byte, error) {
	return r.master.Handle("client", MethodWriteMulti, encodeWave(SignWave(keys, []store.Op{op})))
}

// sync asks the master for a state transfer from version from and runs
// the reply through the one verifier.
func (r *masterRig) sync(t *testing.T, from uint64) *stateTransfer {
	t.Helper()
	body, err := r.master.Handle("slave", MethodSync, wire.EncodeFrame(func(w *wire.Writer) { w.Uvarint(from) }))
	if err != nil {
		t.Errorf("sync from %d: %v", from, err)
		return nil
	}
	st, err := decodeStateTransfer(body, []cryptoutil.PublicKey{r.master.PublicKey()}, newSigCache(stampMemoSize))
	if err != nil {
		t.Errorf("sync from %d: reply does not verify: %v", from, err)
		return nil
	}
	return st
}

func TestMasterWriteACLDenied(t *testing.T) {
	r := newMasterRig(t, nil)
	outsider := cryptoutil.DeriveKeyPair("outsider", 0)
	var err error
	r.s.Go(func() {
		_, err = r.write(outsider, store.Put{Key: "x", Value: []byte("1")})
	})
	r.s.Run()
	if err == nil || !strings.Contains(err.Error(), ErrDenied.Error()) {
		t.Fatalf("err = %v, want denied", err)
	}
	if r.master.Version() != 1 {
		t.Fatal("denied write applied")
	}
}

func TestMasterWriteBadSignatureDenied(t *testing.T) {
	r := newMasterRig(t, nil)
	var err error
	r.s.Go(func() {
		ww := SignWave(r.client, []store.Op{store.Put{Key: "x", Value: []byte("1")}})
		ww.Ops[0] = store.EncodeOp(store.Put{Key: "x", Value: []byte("evil")})
		_, err = r.master.Handle("client", MethodWriteMulti, encodeWave(ww))
	})
	r.s.Run()
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("tampered write: err = %v, want ErrDenied", err)
	}
	assertNothingEnqueued(t, r.master)
}

func TestMasterWriteCommitsAndLogs(t *testing.T) {
	r := newMasterRig(t, nil)
	var body []byte
	var err error
	r.s.Go(func() {
		body, err = r.write(r.client, store.Put{Key: "x", Value: []byte("1")})
	})
	r.s.Run()
	if err != nil {
		t.Fatal(err)
	}
	rr := wire.NewReader(body)
	if v := rr.Uvarint(); v != 2 || rr.Done() != nil {
		t.Fatalf("reply = version %d (%v), want 2", v, rr.Done())
	}
	if r.master.Version() != 2 {
		t.Fatalf("master version = %d", r.master.Version())
	}
}

// TestMasterSyncServesStampedOps: two writes that committed alone come
// back as two records, each a batch of one under its own batch stamp, the
// newer naming the master's version, and nothing after them but the
// anchor.
func TestMasterSyncServesStampedOps(t *testing.T) {
	r := newMasterRig(t, nil)
	var st *stateTransfer
	r.s.Go(func() {
		r.write(r.client, store.Put{Key: "a", Value: []byte("1")})
		// Respect write pacing before the second write.
		r.s.Sleep(300 * time.Millisecond)
		r.write(r.client, store.Put{Key: "b", Value: []byte("2")})
		st = r.sync(t, 2) // from version 2 (base is 1)
	})
	r.s.Run()
	if st == nil {
		t.FailNow()
	}
	if st.snap != nil || len(st.batches) != 2 {
		t.Fatalf("sync returned snapshot=%v and %d batches, want batches only, 2", st.snap != nil, len(st.batches))
	}
	for i, bu := range st.batches {
		if v := uint64(2 + i); bu.First != v || len(bu.Ops) != 1 || bu.Stamp.Kind != stampKindBatch || bu.Stamp.Version != v {
			t.Fatalf("record %d is not a batch of one at version %d: %+v", i, v, bu)
		}
	}
	if string(st.batches[0].Stamp.Sig) == string(st.batches[1].Stamp.Sig) {
		t.Fatal("two commits share one stamp")
	}
	if got := st.stamp(); got.Version != 3 || string(got.Sig) != string(st.batches[1].Stamp.Sig) || st.anchor == 0 {
		t.Fatalf("newest stamp for version %d, anchor %d; want the second commit's stamp, for 3, and its slot", got.Version, st.anchor)
	}
}

// TestMasterSyncPreBaseServedSnapshotFirst: history at or below the
// retained base cannot be replayed, so such a request — 0, "everything",
// included — gets the state itself: a snapshot at the master's version
// under a stamp over its bytes, and no records.
func TestMasterSyncPreBaseServedSnapshotFirst(t *testing.T) {
	for _, from := range []uint64{0, 1} { // 1 is the base version itself
		r := newMasterRig(t, nil)
		var st *stateTransfer
		r.s.Go(func() {
			r.write(r.client, store.Put{Key: "a", Value: []byte("1")})
			st = r.sync(t, from)
		})
		r.s.Run()
		if st == nil {
			t.FailNow()
		}
		if st.snap == nil || st.snap.Version() != 2 || !st.snap.StateDigest().Equal(r.master.StateDigest()) {
			t.Fatalf("from %d: reply does not carry the master's state at version 2", from)
		}
		if len(st.batches) != 0 || st.stamp().Version != 2 {
			t.Fatalf("from %d: %d batches, newest stamp for %d; want 0 and 2", from, len(st.batches), st.stamp().Version)
		}
		if got := r.master.Stats(); got.SyncsServed != 1 || got.SnapshotSyncs != 1 {
			t.Fatalf("from %d: stats %+v", from, got)
		}
	}
}

func TestMasterCheckReturnsVersionAndHash(t *testing.T) {
	r := newMasterRig(t, nil)
	var body []byte
	r.s.Go(func() {
		w := wire.NewWriter(64)
		w.Bytes_(r.client.Public)
		w.Bool(false)
		w.Bytes_(query.Encode(query.Get{Key: "k"}))
		var err error
		body, err = r.master.Handle("client", MethodCheck, w.Bytes())
		if err != nil {
			t.Errorf("check: %v", err)
		}
	})
	r.s.Run()
	rr := wire.NewReader(body)
	version := rr.Uvarint()
	hash := rr.Bytes()
	hasPayload := rr.Bool()
	if version != 1 || len(hash) != cryptoutil.DigestSize || hasPayload {
		t.Fatalf("version=%d hashlen=%d payload=%v", version, len(hash), hasPayload)
	}
	res, _ := (query.Get{Key: "k"}).Execute(storeWith(t, "k", "v"))
	if !res.Digest().Equal(digestOf(hash)) {
		t.Fatal("check hash does not match trusted execution")
	}
}

func storeWith(t testing.TB, k, v string) *store.Store {
	t.Helper()
	s := store.New()
	s.Apply(store.Put{Key: k, Value: []byte(v)})
	return s
}

func digestOf(b []byte) cryptoutil.Digest {
	var d cryptoutil.Digest
	copy(d[:], b)
	return d
}

func TestMasterReportUnprovenRejected(t *testing.T) {
	// An honest slave's pledge reported by a spiteful client must not
	// lead to exclusion (§3.3: clients cannot frame slaves).
	r := newMasterRig(t, nil)
	slaveKeys := cryptoutil.DeriveKeyPair("slave", 0)
	r.master.AddSlave("slave-0", slaveKeys.Public)
	var err error
	r.s.Go(func() {
		// Build an honest pledge at the master's version.
		res, _ := (query.Get{Key: "k"}).Execute(storeWith(t, "k", "v"))
		stamp := SignStamp(cryptoutil.DeriveKeyPair("master", 0), 1, r.s.Now())
		p := SignPledge(slaveKeys, query.Encode(query.Get{Key: "k"}), res.Digest(), stamp)
		w := wire.NewWriter(512)
		w.Bytes_(EncodePledge(p))
		w.Bytes_(nil)
		_, err = r.master.Handle("client", MethodReport, w.Bytes())
	})
	r.s.Run()
	if err == nil || !strings.Contains(err.Error(), ErrNotProven.Error()) {
		t.Fatalf("err = %v, want not-proven", err)
	}
	if r.master.Stats().Exclusions != 0 {
		t.Fatal("honest slave excluded")
	}
}

func TestMasterReportProvenExcludes(t *testing.T) {
	r := newMasterRig(t, nil)
	slaveKeys := cryptoutil.DeriveKeyPair("slave", 0)
	r.master.AddSlave("slave-0", slaveKeys.Public)
	r.s.Go(func() {
		stamp := SignStamp(cryptoutil.DeriveKeyPair("master", 0), 1, r.s.Now())
		p := SignPledge(slaveKeys, query.Encode(query.Get{Key: "k"}),
			cryptoutil.HashBytes([]byte("wrong")), stamp)
		w := wire.NewWriter(512)
		w.Bytes_(EncodePledge(p))
		w.Bytes_(nil)
		if _, err := r.master.Handle("client", MethodReport, w.Bytes()); err != nil {
			t.Errorf("report: %v", err)
		}
	})
	r.s.Run()
	if r.master.Stats().Exclusions != 1 {
		t.Fatalf("stats: %+v", r.master.Stats())
	}
	if r.master.SlaveCount() != 0 {
		t.Fatal("excluded slave still in set")
	}
	if !r.dir.IsExcluded(r.owner.Public, slaveKeys.Public) {
		t.Fatal("exclusion not recorded in directory")
	}
}

func TestMasterReportSignedByAuditorTrusted(t *testing.T) {
	// A version-mismatched report is only accepted with a valid auditor
	// signature — and not even then when the slave never signed the pledge:
	// the master checks the evidence again, whoever vouches for it.
	auditorKeys := cryptoutil.DeriveKeyPair("auditor", 0)
	r := newMasterRig(t, nil)
	slaveKeys := cryptoutil.DeriveKeyPair("slave", 0)
	r.master.AddSlave("slave-0", slaveKeys.Public)
	mk := cryptoutil.DeriveKeyPair("master", 0)
	build := func(sig []byte, pledgeBytes []byte) []byte {
		w := wire.NewWriter(512)
		w.Bytes_(pledgeBytes)
		w.Bytes_(sig)
		return w.Bytes()
	}
	var errNoSig, errForged, errSig error
	r.s.Go(func() {
		stamp := SignStamp(mk, 99, r.s.Now()) // version the master is NOT at
		p := SignPledge(slaveKeys, query.Encode(query.Get{Key: "k"}),
			cryptoutil.HashBytes([]byte("wrong")), stamp)
		pb := EncodePledge(p)
		_, errNoSig = r.master.Handle("anyone", MethodReport, build(nil, pb))
		fb := EncodePledge(forged(p))
		_, errForged = r.master.Handle("anyone", MethodReport, build(auditorKeys.Sign(fb), fb))
		_, errSig = r.master.Handle("anyone", MethodReport, build(auditorKeys.Sign(pb), pb))
	})
	r.s.Run()
	if errNoSig == nil {
		t.Fatal("unsigned version-mismatched report accepted")
	}
	if !errors.Is(errForged, ErrBadPledge) {
		t.Fatalf("forged pledge under a valid auditor signature: err = %v, want %v", errForged, ErrBadPledge)
	}
	if errSig != nil {
		t.Fatalf("auditor-signed report rejected: %v", errSig)
	}
	if r.master.Stats().Exclusions != 1 {
		t.Fatalf("stats: %+v", r.master.Stats())
	}
}

func TestMasterGetSlaveAssignsAndExcludes(t *testing.T) {
	r := newMasterRig(t, nil)
	for i := 0; i < 3; i++ {
		keys := cryptoutil.DeriveKeyPair("slave", i)
		r.master.AddSlave(addrOf(i), keys.Public)
	}
	ask := func(exclude []string) string {
		w := wire.NewWriter(128)
		w.String_("client-addr")
		w.Bytes_(r.client.Public)
		w.Uvarint(1)
		w.StringSlice(exclude)
		body, err := r.master.Handle("client", MethodGetSlave, w.Bytes())
		if err != nil {
			t.Fatalf("getslave: %v", err)
		}
		rr := wire.NewReader(body)
		n := rr.Uvarint()
		if n != 1 {
			t.Fatalf("assigned %d slaves", n)
		}
		cert, err := pki.DecodeCertificate(rr)
		if err != nil {
			t.Fatal(err)
		}
		if err := cert.Verify(r.master.PublicKey()); err != nil {
			t.Fatalf("slave cert: %v", err)
		}
		return cert.Addr
	}
	r.s.Go(func() {
		first := ask(nil)
		second := ask([]string{first})
		if second == first {
			t.Errorf("exclusion ignored: both = %s", first)
		}
	})
	r.s.Run()
}

func addrOf(i int) string { return string(rune('a'+i)) + "-slave" }

func TestMasterGetSlaveNoSlaves(t *testing.T) {
	r := newMasterRig(t, nil)
	var err error
	r.s.Go(func() {
		w := wire.NewWriter(64)
		w.String_("c")
		w.Bytes_(r.client.Public)
		w.Uvarint(1)
		w.StringSlice(nil)
		_, err = r.master.Handle("client", MethodGetSlave, w.Bytes())
	})
	r.s.Run()
	if err == nil || !strings.Contains(err.Error(), ErrNoSlaves.Error()) {
		t.Fatalf("err = %v, want no-slaves", err)
	}
}

func TestMasterUnknownMethod(t *testing.T) {
	r := newMasterRig(t, nil)
	if _, err := r.master.Handle("x", "m.nope", nil); err == nil {
		t.Fatal("unknown method accepted")
	}
}

// TestRemovedRoutesAnswerUnknownMethod: a single write, a single update
// and a bootstrap snapshot have no route of their own any more. A frame
// that the removed handler would have accepted gets the unknown-method
// error and changes nothing.
func TestRemovedRoutesAnswerUnknownMethod(t *testing.T) {
	r := newMasterRig(t, nil)
	wr := SignWrite(r.client, store.Put{Key: "x", Value: []byte("1")})
	for method, body := range map[string][]byte{
		MethodWrite:    wire.EncodeFrame(wr.Encode),
		MethodSnapshot: nil,
	} {
		// Unrouted, so nothing parks: no simulator task needed.
		if _, err := r.master.Handle("client", method, body); err == nil || !strings.Contains(err.Error(), "unknown method") {
			t.Fatalf("master %s: err = %v, want unknown method", method, err)
		}
	}
	assertNothingEnqueued(t, r.master)

	sr := newSlaveRig(t, Honest{})
	op := store.EncodeOp(store.Put{Key: "x", Value: []byte("1")})
	stamp := SignStampWithOp(sr.master, 2, sr.s.Now(), op)
	frame := wire.EncodeFrame(func(w *wire.Writer) {
		w.Uvarint(2)
		w.Bytes_(op)
		stamp.Encode(w)
		w.String_("master")
	})
	if _, err := sr.slave.Handle("master", MethodUpdate, frame); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("slave %s: err = %v, want unknown method", MethodUpdate, err)
	}
	if sr.slave.Version() != 1 {
		t.Fatalf("slave version = %d, want 1", sr.slave.Version())
	}
}

// TestMasterBatchedSyncSharesOneStamp commits a multi-op batch (one
// batch-stamp signature) and syncs it back from inside it: the reply
// carries the whole batch under its one stamp, which the reader checks
// once.
func TestMasterBatchedSyncSharesOneStamp(t *testing.T) {
	r := newMasterRig(t, func(cfg *MasterConfig) {
		cfg.BatchSize = 4
		cfg.BatchTimeout = 5 * time.Millisecond
	})
	var st *stateTransfer
	r.s.Go(func() {
		// Four concurrent writes fill the accumulator exactly.
		for _, op := range []store.Op{
			store.Put{Key: "a", Value: []byte("1")},
			store.Put{Key: "b", Value: []byte("2")},
			store.Delete{Key: "a"},
			store.Append{Key: "b", Data: []byte("+3")},
		} {
			op := op
			r.s.Spawn(func() { r.write(r.client, op) })
		}
		r.s.Sleep(time.Second) // let the batch commit
		st = r.sync(t, 4)      // inside the batch 2..5
	})
	r.s.Run()
	if got := r.master.Version(); got != 5 {
		t.Fatalf("master version = %d, want 5 (4 writes over base 1)", got)
	}
	if st := r.master.Stats(); st.BatchesApplied != 1 || st.WritesApplied != 4 {
		t.Fatalf("expected one batch of four, got %+v", st)
	}
	if st == nil {
		t.FailNow()
	}
	if len(st.batches) != 1 || st.sigMisses != 1 || st.sigHits != 0 {
		t.Fatalf("%d batches, %d signatures checked and %d memoised; want 1, 1 (the batch's stamp), 0",
			len(st.batches), st.sigMisses, st.sigHits)
	}
	if bu := st.batches[0]; bu.First != 2 || len(bu.Ops) != 4 || bu.Stamp.Version != 5 {
		t.Fatalf("batch geometry: first %d, %d ops, stamp for %d; want 2, 4, 5", bu.First, len(bu.Ops), bu.Stamp.Version)
	}
}

// TestMasterSyncReplyCarriesNoProofs bounds an m.sync reply for k batches
// by its ops and k stamps, one per batch. A membership proof per op, a
// copy of the stamp per op, or a stamp closing the reply would add more
// than a hundred bytes.
func TestMasterSyncReplyCarriesNoProofs(t *testing.T) {
	const k, n = 3, 64
	r, _ := waveRig(t, func(cfg *MasterConfig) { cfg.BatchSize = n })
	var body []byte
	r.s.Go(func() {
		for i := 0; i < k; i++ {
			if _, err := r.master.Handle("client", MethodWriteMulti, encodeWave(SignWave(r.client, waveOps(n)))); err != nil {
				t.Errorf("wave %d: %v", i, err)
				return
			}
		}
		var err error
		body, err = r.master.Handle("slave", MethodSync, wire.EncodeFrame(func(w *wire.Writer) { w.Uvarint(2) }))
		if err != nil {
			t.Errorf("sync: %v", err)
		}
	})
	r.s.Run()
	st, err := decodeStateTransfer(body, []cryptoutil.PublicKey{r.master.PublicKey()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.batches) != k {
		t.Fatalf("%d batches, want %d", len(st.batches), k)
	}
	stampLen := len(wire.EncodeFrame(st.batches[0].Stamp.Encode))
	opBytes := 0
	for _, bu := range st.batches {
		for _, op := range bu.Ops {
			opBytes += 2 + len(op) // a length prefix below 2^14, then the op
		}
	}
	// Per batch: first and op count, at most three bytes each.
	if limit := opBytes + k*stampLen + k*6 + 16; len(body) > limit {
		t.Fatalf("reply for %d batches of %d ops is %d bytes, above the %d its ops and %d stamps take",
			k, n, len(body), limit, k)
	}
}

// --- Write waves (m.writemulti) ---------------------------------------------

// waveRig is a master rig whose ACL permits the rig's client and a second
// key, with batches of 256 — the shape of the real-clock write waves.
func waveRig(t *testing.T, mut func(*MasterConfig)) (*masterRig, *cryptoutil.KeyPair) {
	other := cryptoutil.DeriveKeyPair("client", 1)
	r := newMasterRig(t, func(cfg *MasterConfig) {
		cfg.ACL.Allow(other.Public)
		cfg.BatchSize = 256
		cfg.BatchTimeout = 5 * time.Millisecond
		if mut != nil {
			mut(cfg)
		}
	})
	return r, other
}

// assertNothingEnqueued checks that a refused request left no trace in
// the write path: nothing admitted, nothing queued, nothing committed.
func assertNothingEnqueued(t *testing.T, m *Master) {
	t.Helper()
	m.mu.Lock()
	queued := len(m.batchQueue)
	m.mu.Unlock()
	if st := m.Stats(); st.WritesAdmitted != 0 || queued != 0 || m.Version() != 1 {
		t.Fatalf("refused request left state behind: admitted=%d queued=%d version=%d",
			st.WritesAdmitted, queued, m.Version())
	}
}

// TestMasterWaveTamperRefusedWhole runs every tampered wave of the shared
// table against a live master: each must fail closed — an error, and
// nothing enqueued.
func TestMasterWaveTamperRefusedWhole(t *testing.T) {
	outsider := cryptoutil.DeriveKeyPair("outsider", 0)
	for _, tc := range waveTamperCases {
		t.Run(tc.name, func(t *testing.T) {
			r, other := waveRig(t, nil)
			var err error
			r.s.Go(func() {
				_, err = r.master.Handle("client", MethodWriteMulti, tc.body(r.client, other, outsider))
			})
			r.s.Run()
			if err == nil {
				t.Fatal("tampered wave accepted")
			}
			if tc.denied && !errors.Is(err, ErrDenied) {
				t.Fatalf("err = %v, want ErrDenied", err)
			}
			assertNothingEnqueued(t, r.master)
		})
	}
}

// TestMasterWaveOutOfShardOpRefusesWhole: one op outside the master's
// range, honestly signed in the middle of a wave, refuses every op.
func TestMasterWaveOutOfShardOpRefusesWhole(t *testing.T) {
	r, _ := waveRig(t, func(cfg *MasterConfig) {
		cfg.Shard = wire.ShardRef{ID: 1, Lo: "catalog/", Hi: "catalog0"}
	})
	ops := waveOps(8)
	ops[4] = store.Put{Key: "docs/readme", Value: []byte("x")}
	var err error
	r.s.Go(func() {
		_, err = r.master.Handle("client", MethodWriteMulti, encodeWave(SignWave(r.client, ops)))
	})
	r.s.Run()
	if !IsWrongShard(err) {
		t.Fatalf("err = %v, want wrong-shard", err)
	}
	if got := r.master.Stats().WrongShardRejects; got != 1 {
		t.Fatalf("wrong-shard rejects = %d, want 1", got)
	}
	assertNothingEnqueued(t, r.master)
}

// TestMasterHonestWavesCommit: waves of 1, 64, 256 and 257 ops (the last
// one more than BatchSize) commit under one client signature each, in
// one batch each, at consecutive versions from the one the reply names.
func TestMasterHonestWavesCommit(t *testing.T) {
	for _, n := range []int{1, 64, 256, 257} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			r, _ := waveRig(t, nil)
			var body []byte
			var err error
			r.s.Go(func() {
				body, err = r.master.Handle("client", MethodWriteMulti, encodeWave(SignWave(r.client, waveOps(n))))
			})
			r.s.Run()
			if err != nil {
				t.Fatal(err)
			}
			rr := wire.NewReader(body)
			if first := rr.Uvarint(); first != 2 {
				t.Fatalf("wave's first op committed at version %d, want 2", first)
			}
			if err := rr.Done(); err != nil {
				t.Fatal(err)
			}
			st := r.master.Stats()
			if st.WritesAdmitted != uint64(n) || st.WritesApplied != uint64(n) || st.BatchesApplied != 1 {
				t.Fatalf("admitted=%d applied=%d batches=%d, want %d/%d/1",
					st.WritesAdmitted, st.WritesApplied, st.BatchesApplied, n, n)
			}
			if r.master.Version() != uint64(1+n) {
				t.Fatalf("master version = %d, want %d", r.master.Version(), 1+n)
			}
		})
	}
}

// BenchmarkAdmitWave256 is the master's whole admission of a 256-op wave:
// decode the frame, verify the one signature, check the ACL, validate
// and shard-check every op.
func BenchmarkAdmitWave256(b *testing.B) {
	client := cryptoutil.DeriveKeyPair("client", 0)
	m := &Master{cfg: MasterConfig{
		ACL:   NewACL(client.Public),
		Shard: wire.ShardRef{ID: 1, Lo: "catalog/", Hi: "catalog0"},
	}}
	body := encodeWave(SignWave(client, waveOps(256)))
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ops, err := m.admitWave(body); err != nil || len(ops) != 256 {
			b.Fatal(len(ops), err)
		}
	}
}

// TestAdmitShardedWaveAllocs: admitting a 256-op wave into a shard checks
// every op's key range against a view of the key, so the wave costs the
// allocations of its decode and not one per op.
func TestAdmitShardedWaveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	client := cryptoutil.DeriveKeyPair("client", 0)
	m := &Master{cfg: MasterConfig{
		ACL:   NewACL(client.Public),
		Shard: wire.ShardRef{ID: 1, Lo: "catalog/", Hi: "catalog0"},
	}}
	body := encodeWave(SignWave(client, waveOps(256)))
	var err error
	if got := testing.AllocsPerRun(50, func() { _, err = m.admitWave(body) }); got > 2 {
		t.Errorf("admitWave of 256 sharded ops: %.1f allocs, want <= 2", got)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestMasterReportConvictsOnPledgeBody: a report stands or falls with what
// the slave signed — query, result hash, version — on both paths into
// handleReport. Which stamp travels with the pledge makes no difference; an
// edit to anything under the signature does.
func TestMasterReportConvictsOnPledgeBody(t *testing.T) {
	mk := cryptoutil.DeriveKeyPair("master", 0)
	slaveKeys := cryptoutil.DeriveKeyPair("slave", 0)
	qb := query.Encode(query.Get{Key: "k"})
	honestRes, _ := (query.Get{Key: "k"}).Execute(storeWith(t, "k", "v"))
	wrong := cryptoutil.HashBytes([]byte("wrong"))
	at := time.Unix(1000, 0)
	lieAt := func(version uint64) Pledge { return SignPledge(slaveKeys, qb, wrong, SignStamp(mk, version, at)) }

	// auditorReport has a real auditor convict p and returns the report it
	// sends: the provenPledge path, pledge and auditor signature as shipped.
	auditorReport := func(t *testing.T, p Pledge) []byte {
		ar := newAuditorRig(t, nil)
		if st := ar.audit(t, p); st.ReportsSent != 1 || len(ar.reports) != 1 {
			t.Fatalf("auditor sent %d reports for a lie: %+v", len(ar.reports), st)
		}
		return ar.reports[0]
	}
	clientReport := func(t *testing.T, p Pledge) []byte {
		w := wire.NewWriter(512)
		w.Bytes_(EncodePledge(p))
		w.Bytes_(nil)
		return w.Bytes()
	}
	// resign swaps the pledge inside an auditor report and re-signs the
	// report: the auditor's word on a pledge the slave never signed.
	resign := func(t *testing.T, report []byte, edit func(*Pledge)) []byte {
		r := wire.NewReader(report)
		p, err := decodePledgeFrame(r.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		edit(&p)
		pb := EncodePledge(p)
		w := wire.NewWriter(512)
		w.Bytes_(pb)
		w.Bytes_(cryptoutil.DeriveKeyPair("auditor", 0).Sign(pb))
		return w.Bytes()
	}

	cases := []struct {
		name    string
		report  func(t *testing.T) []byte
		wantErr error // nil: the slave is excluded
	}{
		{"client: lie at the master's version", func(t *testing.T) []byte {
			return clientReport(t, lieAt(1))
		}, nil},
		{"client: the same lie beside a later keep-alive stamp", func(t *testing.T) []byte {
			p := lieAt(1)
			p.Stamp = SignStamp(mk, 1, at.Add(time.Hour))
			return clientReport(t, p)
		}, nil},
		{"client: the same lie beside a batch stamp of that version", func(t *testing.T) []byte {
			p := lieAt(1)
			p.Stamp = SignBatchStamp(mk, 1, at, cryptoutil.Digest{7})
			return clientReport(t, p)
		}, nil},
		{"client: honest pledge, result hash edited", func(t *testing.T) []byte {
			p := SignPledge(slaveKeys, qb, honestRes.Digest(), SignStamp(mk, 1, at))
			p.ResultHash = wrong
			return clientReport(t, p)
		}, ErrBadPledge},
		{"client: answer for version 9 presented as one for version 1", func(t *testing.T) []byte {
			p := SignPledge(slaveKeys, qb, wrong, SignStamp(mk, 9, at))
			p.Stamp = SignStamp(mk, 1, at) // a real stamp, but not the version the slave signed
			return clientReport(t, p)
		}, ErrBadPledge},
		{"client: honest pledge, version edited in place", func(t *testing.T) []byte {
			p := SignPledge(slaveKeys, qb, honestRes.Digest(), SignStamp(mk, 1, at))
			p.Stamp.Version = 9
			return clientReport(t, p)
		}, ErrBadPledge},
		{"client: honest pledge as signed", func(t *testing.T) []byte {
			return clientReport(t, SignPledge(slaveKeys, qb, honestRes.Digest(), SignStamp(mk, 1, at)))
		}, ErrNotProven},
		{"auditor: convicted lie at a version the master has left", func(t *testing.T) []byte {
			ar := newAuditorRig(t, nil)
			return auditorReport(t, ar.pledgeFor(query.Get{Key: "k"}, true))
		}, nil},
		{"auditor: the same report beside another stamp of that version", func(t *testing.T) []byte {
			ar := newAuditorRig(t, nil)
			p := ar.pledgeFor(query.Get{Key: "k"}, true)
			return resign(t, auditorReport(t, p), func(p *Pledge) { p.Stamp = SignStamp(mk, p.Stamp.Version, at.Add(time.Hour)) })
		}, nil},
		{"auditor: report re-signed over an edited result hash", func(t *testing.T) []byte {
			ar := newAuditorRig(t, nil)
			p := ar.pledgeFor(query.Get{Key: "k"}, true)
			return resign(t, auditorReport(t, p), func(p *Pledge) { p.ResultHash[0] ^= 1 })
		}, ErrBadPledge},
		{"auditor: report re-signed over an edited version", func(t *testing.T) []byte {
			ar := newAuditorRig(t, nil)
			p := ar.pledgeFor(query.Get{Key: "k"}, true)
			return resign(t, auditorReport(t, p), func(p *Pledge) { p.Stamp.Version++ })
		}, ErrBadPledge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			report := tc.report(t)
			r := newMasterRig(t, nil)
			r.master.AddSlave("slave-0", slaveKeys.Public)
			var err error
			r.s.Go(func() {
				if strings.HasPrefix(tc.name, "auditor") {
					// Move the master off the pledge's version: only the
					// auditor's signature can vouch for the re-execution now.
					if _, werr := r.write(r.client, store.Put{Key: "x", Value: []byte("1")}); werr != nil {
						t.Errorf("write: %v", werr)
					}
				}
				_, err = r.master.Handle("anyone", MethodReport, report)
			})
			r.s.Run()
			excluded := r.master.Stats().Exclusions == 1 && r.dir.IsExcluded(r.owner.Public, slaveKeys.Public)
			if tc.wantErr == nil {
				if err != nil || !excluded {
					t.Fatalf("liar not excluded: err=%v stats=%+v", err, r.master.Stats())
				}
				return
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if r.master.Stats().Exclusions != 0 || r.master.SlaveCount() != 1 {
				t.Fatalf("slave excluded on a refused report: %+v", r.master.Stats())
			}
		})
	}
}

// readmitFrame is the bcReadmit a master broadcasts to take the slave at
// addr back into owner's set.
func readmitFrame(owner string, cert pki.Certificate) []byte {
	return wire.EncodeFrame(func(w *wire.Writer) {
		w.Byte(bcReadmit)
		w.String_(owner)
		cert.Encode(w)
	})
}

// adoptFrame is the bcAdopt that divides dead's slaves, giving each to
// owner.
func adoptFrame(dead, owner string, certs ...pki.Certificate) []byte {
	return wire.EncodeFrame(func(w *wire.Writer) {
		w.Byte(bcAdopt)
		w.String_(dead)
		w.Uvarint(uint64(len(certs)))
		for _, c := range certs {
			w.String_(owner)
			c.Encode(w)
		}
	})
}

// TestMasterAdoptAfterReadmitHoldsSlaveOnce: a slave readmitted to a
// master while it is still on a dead master's last slave list reaches
// that master twice, by the readmission and by the adoption that divides
// the dead master's set. The set holds it once: held twice, it would be
// announced every batch twice, sent two keep-alives per interval and picked
// twice by the round-robin.
func TestMasterAdoptAfterReadmitHoldsSlaveOnce(t *testing.T) {
	r := newMasterRig(t, nil)
	m := r.master
	s0 := cryptoutil.DeriveKeyPair("slave", 0)
	dead := cryptoutil.DeriveKeyPair("master", 9)
	readmitted := m.slaveCert("s0", s0.Public)
	orphan := pki.Certificate{Role: pki.RoleSlave, Addr: "s0", Subject: s0.Public, IssuedAt: r.s.Now()}
	orphan.Sign(dead)
	r.s.Go(func() {
		m.deliver(1, readmitFrame(m.Addr(), readmitted), nil)
		m.deliver(2, adoptFrame("m9", m.Addr(), orphan), nil)
	})
	r.s.Run()
	if n := m.SlaveCount(); n != 1 {
		t.Fatalf("slave count %d, want 1", n)
	}
	if st := m.Stats(); st.SlavesAdopted != 0 || st.KeepAlivesSent != 1 {
		t.Fatalf("adopted %d, keep-alives %d: want 0 and the readmission's 1", st.SlavesAdopted, st.KeepAlivesSent)
	}
}

// TestMasterSlaveTableConcurrent races everything that reads or writes a
// real-clock master's slave table, from goroutines of their own: acks
// recorded by the batch announce's fan-out and by more ack senders (each
// writes through its entry's index while the lock is held, into a slice
// an exclusion shrinks), AddSlave, m.getslave, and a delivery goroutine
// that, like the broadcast drainer, delivers batches, exclusions,
// readmissions and adoptions one at a time. Whatever the order, each
// address is held once and no ack exceeds the store version. make race
// reruns it.
func TestMasterSlaveTableConcurrent(t *testing.T) {
	const pool, rounds = 6, 150
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	keys := cryptoutil.DeriveKeyPair("master", 0)
	dir := pki.NewDirectory()
	mcert := pki.Certificate{Role: pki.RoleMaster, Addr: "master", Subject: keys.Public, IssuedAt: time.Now()}
	mcert.Sign(owner)
	dir.Publish(owner.Public, mcert)
	initial := store.New()
	initial.Apply(store.Put{Key: "k", Value: []byte("v")})
	// Every slave acks far past anything committed.
	ack := wire.EncodeFrame(func(w *wire.Writer) { w.Uvarint(1 << 40) })
	m, err := NewMaster(MasterConfig{
		Addr: "master", Keys: keys, Params: DefaultParams(), ContentKey: owner.Public,
		Peers: []string{"master"}, AuditorAddr: "auditor",
		Directory: BoundDirectory{Dir: dir, ContentKey: owner.Public}, Seed: 1,
	}, sim.RealClock{}, replyDialer{reply: ack}, initial)
	if err != nil {
		t.Fatal(err)
	}
	slaveKeys := make([]*cryptoutil.KeyPair, pool)
	for i := range slaveKeys {
		slaveKeys[i] = cryptoutil.DeriveKeyPair("slave", i)
	}
	addr := func(i int) string { return fmt.Sprintf("s%d", i) }
	stamp := SignStamp(keys, 1, time.Now())
	exclude := func(i int) []byte {
		evidence := EncodePledge(SignPledge(slaveKeys[i], []byte("q"), cryptoutil.HashBytes(nil), stamp))
		sig := keys.Sign(excludeSignedBytes(evidence))
		return wire.EncodeFrame(func(w *wire.Writer) {
			w.Byte(bcExclude)
			w.Bytes_(evidence)
			w.Bytes_(keys.Public)
			w.Bytes_(sig)
		})
	}
	getSlave := wire.EncodeFrame(func(w *wire.Writer) {
		w.String_("client")
		w.Bytes_(cryptoutil.DeriveKeyPair("client", 0).Public)
		w.Uvarint(2)
		w.StringSlice(nil)
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f(i)
			}
		}()
	}
	for g := 0; g < 2; g++ {
		loop(func(i int) { m.recordAck(addr((i+g)%(pool+1)), uint64(i)) }) // addr(pool) is never a member
	}
	loop(func(i int) { m.AddSlave(addr(i%pool), slaveKeys[i%pool].Public) })
	loop(func(int) { m.handleGetSlave(getSlave) })

	seq := uint64(0)
	deliver := func(msg []byte) { seq++; m.deliver(seq, msg, nil) }
	for round := 0; round < rounds; round++ {
		i := round % pool
		op := store.EncodeOp(store.Put{Key: "k", Value: []byte{byte(round)}})
		deliver(encodeBatchMessage([]queuedWave{{ops: [][]byte{op}}}))
		deliver(exclude(i))
		deliver(readmitFrame(m.Addr(), m.slaveCert(addr(i), slaveKeys[i].Public)))
		deliver(adoptFrame(fmt.Sprintf("dead%d", round), m.Addr(), m.slaveCert(addr((i+1)%pool), slaveKeys[(i+1)%pool].Public)))
	}
	close(stop)
	wg.Wait()

	m.mu.Lock()
	defer m.mu.Unlock()
	seen := map[string]bool{}
	for _, e := range m.slaves {
		if seen[e.cert.Addr] {
			t.Errorf("%s held twice", e.cert.Addr)
		}
		seen[e.cert.Addr] = true
		if e.ack.version > m.store.Version() {
			t.Errorf("%s acked %d past the store's %d", e.cert.Addr, e.ack.version, m.store.Version())
		}
	}
	if seen[addr(pool)] || m.store.Version() != 1+rounds || m.stats.Exclusions == 0 {
		t.Errorf("ghost held %v, version %d, %d exclusions", seen[addr(pool)], m.store.Version(), m.stats.Exclusions)
	}
}

// TestMasterStampsSlavesOnStartAndJoin: a slave answers only under a
// fresh keep-alive stamp (§3.1), so a master stamps its set when it
// starts and stamps a slave that joins it running at once, by every way
// in: AddSlave, a readmission and an adoption. Each row's slave must hold
// a stamp within the row's bound, well before the next periodic round
// (one KeepAliveEvery apart, from Start). The start row also reads through
// a client set up at Start: the slave serves its first read, which is
// accepted without a stale refusal.
func TestMasterStampsSlavesOnStartAndJoin(t *testing.T) {
	const oneWay = 5 * time.Millisecond
	const rtt = 2 * oneWay
	for _, row := range []struct {
		name string
		// join brings the slave at addr into master-0's running set; nil
		// means it was in the set at Start.
		join   func(c *testCluster, addr string, pub cryptoutil.PublicKey)
		within time.Duration
	}{
		{"start", nil, 2 * rtt},
		{"AddSlave", func(c *testCluster, addr string, pub cryptoutil.PublicKey) {
			c.masters[0].AddSlave(addr, pub)
		}, 2 * rtt},
		{"readmission", func(c *testCluster, addr string, pub cryptoutil.PublicKey) {
			if err := c.masters[0].ReadmitSlave(addr, pub); err != nil {
				t.Errorf("readmit: %v", err)
			}
		}, 20 * rtt},
		{"adoption", func(c *testCluster, addr string, pub cryptoutil.PublicKey) {
			orphan := pki.Certificate{Role: pki.RoleSlave, Addr: addr, Subject: pub, IssuedAt: c.s.Now()}
			orphan.Sign(cryptoutil.DeriveKeyPair("master", 9))
			if err := c.masters[0].bcast.Broadcast(adoptFrame("master-9", "master-0", orphan), nil); err != nil {
				t.Errorf("adopt: %v", err)
			}
		}, 20 * rtt},
	} {
		t.Run(row.name, func(t *testing.T) {
			s := sim.New(1)
			o := defaultOpts()
			o.params.Costs = cryptoutil.ModernCosts()
			o.latency = sim.Const(oneWay)
			c := newTestCluster(t, s, o)
			ka := c.params.KeepAliveEvery
			sl, at := c.slaves[0], sim.Epoch
			if row.join != nil {
				// A slave outside every set, joined between two rounds.
				keys := cryptoutil.DeriveKeyPair("slave", 99)
				masterPubs := []cryptoutil.PublicKey{c.masters[0].PublicKey(), c.masters[1].PublicKey()}
				sl = NewSlave(SlaveConfig{
					Addr: "slave-new", Keys: keys, Params: c.params, MasterAddr: "master-0",
					MasterPubs: masterPubs, CPU: s.NewResource("slave-new/cpu", 1), Seed: 99,
				}, s, c.net.Dialer("slave-new"), c.initial)
				c.net.Register("slave-new", sl.Handle)
				at = sim.Epoch.Add(ka + ka/10)
				s.Go(func() {
					s.Sleep(at.Sub(sim.Epoch))
					row.join(c, "slave-new", keys.Public)
				})
			}
			var read time.Time
			var readErr error
			if row.join == nil {
				cl := c.addClient(t, 0, nil)
				s.Go(func() {
					if readErr = cl.Setup(); readErr == nil {
						_, readErr = cl.Read(mustQuery(t, "catalog/001"))
					}
					read = s.Now()
				})
			}
			deadline := at.Add(row.within)
			if next := sim.Epoch.Add(ka * (at.Sub(sim.Epoch)/ka + 1)); !deadline.Before(next) {
				t.Fatalf("bound %v reaches the next periodic round at %v", row.within, next.Sub(sim.Epoch))
			}
			var stamps uint64
			s.Go(func() {
				s.Sleep(deadline.Sub(sim.Epoch))
				stamps = sl.Stats().KeepAlives
			})
			s.RunUntil(sim.Epoch.Add(2 * ka))
			if stamps < 1 {
				t.Fatalf("slave holds no stamp %v after it joined (next round at %v)", row.within, ka)
			}
			if row.join != nil {
				return
			}
			st := c.clients[0].Stats()
			if readErr != nil || read.IsZero() || st.ReadsAccepted != 1 || st.SlaveStale != 0 {
				t.Fatalf("first read: err %v, stats %+v", readErr, st)
			}
			if took := read.Sub(sim.Epoch); took > 4*rtt {
				t.Fatalf("first read accepted %v after Start, want within 4 RTTs (%v): set-up, read, pledge", took, 4*rtt)
			}
		})
	}
}
