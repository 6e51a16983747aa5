package baseline

import (
	"fmt"
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

func content() *store.Store {
	s := store.New()
	for i := 0; i < 20; i++ {
		s.Apply(store.Put{Key: fmt.Sprintf("item/%03d", i), Value: []byte(fmt.Sprintf("%d", i*10))})
	}
	return s
}

func lie(p []byte) []byte { return append(append([]byte(nil), p...), 0xbd) }

// --- SMR -------------------------------------------------------------------

type smrRig struct {
	s        *sim.Sim
	net      *rpc.SimNet
	replicas []*SMRReplica
	client   *SMRClient
}

func newSMR(t *testing.T, s *sim.Sim, f int, liars int) *smrRig {
	t.Helper()
	rig := &smrRig{s: s, net: rpc.NewSimNet(s, sim.Const(2*time.Millisecond))}
	n := 3*f + 1 // full PBFT-sized set; reads use 2f+1
	var addrs []string
	var pubs []cryptoutil.PublicKey
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("rep-%d", i)
		keys := cryptoutil.DeriveKeyPair("smr", i)
		cfg := SMRReplicaConfig{
			Addr: addr, Keys: keys, Costs: cryptoutil.DefaultCosts(),
			CPU: s.NewResource(addr+"/cpu", 1),
		}
		if i < liars {
			cfg.Lie = lie
		}
		rep := NewSMRReplica(cfg, content())
		rig.replicas = append(rig.replicas, rep)
		rig.net.Register(addr, rep.Handle)
		addrs = append(addrs, addr)
		pubs = append(pubs, keys.Public)
	}
	rig.client = NewSMRClient(SMRClientConfig{
		Replicas: addrs, ReplicaPubs: pubs, F: f, Seed: 9,
	}, rig.net.Dialer("client"))
	return rig
}

func TestSMRHonestQuorumRead(t *testing.T) {
	s := sim.New(1)
	rig := newSMR(t, s, 1, 0)
	var payload []byte
	s.Go(func() {
		var err error
		payload, err = rig.client.Read(query.Get{Key: "item/003"})
		if err != nil {
			t.Errorf("read: %v", err)
		}
	})
	s.Run()
	v, ok, err := query.GetResult(payload)
	if err != nil || !ok || string(v) != "30" {
		t.Fatalf("payload = %q ok=%v err=%v", v, ok, err)
	}
	st := rig.client.Stats()
	if st.ServerExecs != 3 { // 2f+1 with f=1
		t.Fatalf("server execs = %d, want 3", st.ServerExecs)
	}
}

func TestSMRToleratesFLiars(t *testing.T) {
	s := sim.New(2)
	rig := newSMR(t, s, 1, 1) // one liar within the quorum
	var payload []byte
	s.Go(func() {
		var err error
		payload, err = rig.client.Read(query.Get{Key: "item/001"})
		if err != nil {
			t.Errorf("read: %v", err)
		}
	})
	s.Run()
	v, _, _ := query.GetResult(payload)
	if string(v) != "10" {
		t.Fatalf("quorum returned wrong value %q", v)
	}
	if rig.client.Stats().WrongAccepted != 0 {
		t.Fatal("wrong answer accepted")
	}
}

func TestSMRColludingMajorityWins(t *testing.T) {
	// f+1 = 2 colluding liars inside a 2f+1 = 3 quorum pass a wrong
	// answer — the known limit of quorum systems.
	s := sim.New(3)
	rig := newSMR(t, s, 1, 2)
	var payload []byte
	s.Go(func() {
		payload, _ = rig.client.Read(query.Get{Key: "item/001"})
	})
	s.Run()
	honest, err := (query.Get{Key: "item/001"}).Execute(content())
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) == string(honest.Payload) {
		t.Fatal("expected the colluding majority to win in this configuration")
	}
}

func TestSMRWriteReachesAll(t *testing.T) {
	s := sim.New(4)
	rig := newSMR(t, s, 1, 0)
	s.Go(func() {
		if err := rig.client.Write(store.Put{Key: "new", Value: []byte("1")}); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		payload, err := rig.client.Read(query.Get{Key: "new"})
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		v, ok, _ := query.GetResult(payload)
		if !ok || string(v) != "1" {
			t.Errorf("read after write = %q", v)
		}
	})
	s.Run()
}

func TestSMRQuorumShortfall(t *testing.T) {
	// With 2f+1 = 3 and every reply distinct (all liars lie differently —
	// here: one honest, vs down replicas), no f+1 match can form.
	s := sim.New(5)
	rig := newSMR(t, s, 1, 0)
	rig.net.SetDown("rep-0", true)
	rig.net.SetDown("rep-1", true)
	var err error
	s.Go(func() {
		_, err = rig.client.Read(query.Get{Key: "item/001"})
	})
	s.Run()
	if err == nil {
		t.Fatal("read succeeded without a quorum")
	}
	if rig.client.Stats().QuorumShortfall != 1 {
		t.Fatalf("stats: %+v", rig.client.Stats())
	}
}

// --- State signing -----------------------------------------------------------

type ssRig struct {
	s       *sim.Sim
	net     *rpc.SimNet
	storage *SSStorage
	trusted *SSTrusted
	client  *SSClient
}

func newSS(t *testing.T, s *sim.Sim) *ssRig {
	t.Helper()
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	snap := content()
	tree := BuildTree(snap)
	root := SignRoot(owner, snap.Version(), tree.Root())
	rig := &ssRig{s: s, net: rpc.NewSimNet(s, sim.Const(2*time.Millisecond))}
	rig.storage = NewSSStorage(SSStorageConfig{
		Addr: "storage", Costs: cryptoutil.DefaultCosts(),
	}, snap, root)
	rig.trusted = NewSSTrusted(SSStorageConfig{
		Addr: "trusted", Costs: cryptoutil.DefaultCosts(),
	}, snap)
	rig.net.Register("storage", rig.storage.Handle)
	rig.net.Register("trusted", rig.trusted.Handle)
	rig.client = &SSClient{
		StorageAddr: "storage", TrustedAddr: "trusted",
		OwnerPub: owner.Public, Costs: cryptoutil.DefaultCosts(),
		Dialer: rig.net.Dialer("client"),
	}
	return rig
}

func TestSSVerifiedGet(t *testing.T) {
	s := sim.New(1)
	rig := newSS(t, s)
	var payload []byte
	var trusted bool
	s.Go(func() {
		var err error
		payload, trusted, err = rig.client.Read(query.Get{Key: "item/005"})
		if err != nil {
			t.Errorf("read: %v", err)
		}
	})
	s.Run()
	v, ok, err := query.GetResult(payload)
	if err != nil || !ok || string(v) != "50" {
		t.Fatalf("payload = %q ok=%v err=%v", v, ok, err)
	}
	if trusted {
		t.Fatal("static read hit the trusted host")
	}
	if rig.trusted.Execs() != 0 {
		t.Fatal("trusted host executed a static read")
	}
}

func TestSSDynamicForcedToTrusted(t *testing.T) {
	s := sim.New(2)
	rig := newSS(t, s)
	queries := []query.Query{
		query.Count{P: "item/"},
		query.Sum{P: "item/"},
		query.Range{From: "item/", To: "item0"},
		query.Grep{Pattern: "5", PathPrefix: "item/"},
	}
	s.Go(func() {
		for _, q := range queries {
			_, trusted, err := rig.client.Read(q)
			if err != nil {
				t.Errorf("%v: %v", q, err)
				continue
			}
			if !trusted {
				t.Errorf("%v: served without trusted host", q)
			}
		}
	})
	s.Run()
	if got := rig.trusted.Execs(); got != uint64(len(queries)) {
		t.Fatalf("trusted execs = %d, want %d", got, len(queries))
	}
	st := rig.client.Stats()
	if st.DynamicReads != uint64(len(queries)) || st.StaticReads != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestSSTamperedValueRejected(t *testing.T) {
	s := sim.New(3)
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	snap := content()
	tree := BuildTree(snap)
	root := SignRoot(owner, snap.Version(), tree.Root())

	// Malicious storage: serves a corrupted snapshot under the honest root.
	evil := snap.Clone()
	evil.Apply(store.Put{Key: "item/005", Value: []byte("9999")})
	net := rpc.NewSimNet(s, sim.Const(time.Millisecond))
	storage := NewSSStorage(SSStorageConfig{Addr: "storage", Costs: cryptoutil.DefaultCosts()}, evil, root)
	net.Register("storage", storage.Handle)
	client := &SSClient{
		StorageAddr: "storage", TrustedAddr: "trusted",
		OwnerPub: owner.Public, Costs: cryptoutil.DefaultCosts(),
		Dialer: net.Dialer("client"),
	}
	var err error
	s.Go(func() {
		_, _, err = client.Read(query.Get{Key: "item/005"})
	})
	s.Run()
	if err == nil {
		t.Fatal("tampered value accepted")
	}
	if client.Stats().ProofFailures != 1 {
		t.Fatalf("stats: %+v", client.Stats())
	}
}

func TestSSAbsentKey(t *testing.T) {
	s := sim.New(4)
	rig := newSS(t, s)
	var payload []byte
	s.Go(func() {
		var err error
		payload, _, err = rig.client.Read(query.Get{Key: "nope"})
		if err != nil {
			t.Errorf("read: %v", err)
		}
	})
	s.Run()
	_, ok, err := query.GetResult(payload)
	if err != nil || ok {
		t.Fatalf("absent key: ok=%v err=%v", ok, err)
	}
}

func TestSSRootSignatureChecked(t *testing.T) {
	s := sim.New(5)
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	forger := cryptoutil.DeriveKeyPair("forger", 0)
	snap := content()
	evil := snap.Clone()
	evil.Apply(store.Put{Key: "item/005", Value: []byte("9999")})
	evilTree := BuildTree(evil)
	// Storage signs its own (consistent!) root with the wrong key.
	forgedRoot := SignRoot(forger, evil.Version(), evilTree.Root())
	net := rpc.NewSimNet(s, sim.Const(time.Millisecond))
	storage := NewSSStorage(SSStorageConfig{Addr: "storage", Costs: cryptoutil.DefaultCosts()}, evil, forgedRoot)
	net.Register("storage", storage.Handle)
	client := &SSClient{
		StorageAddr: "storage", TrustedAddr: "trusted",
		OwnerPub: owner.Public, Costs: cryptoutil.DefaultCosts(),
		Dialer: net.Dialer("client"),
	}
	var err error
	s.Go(func() {
		_, _, err = client.Read(query.Get{Key: "item/005"})
	})
	s.Run()
	if err == nil {
		t.Fatal("forged root accepted")
	}
}

func TestSSUpdateRequiresOwner(t *testing.T) {
	s := sim.New(6)
	rig := newSS(t, s)
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	snap := content()
	snap.Apply(store.Put{Key: "item/new", Value: []byte("77")})
	tree := BuildTree(snap)
	rig.storage.Update(snap, SignRoot(owner, snap.Version(), tree.Root()))
	var payload []byte
	s.Go(func() {
		var err error
		payload, _, err = rig.client.Read(query.Get{Key: "item/new"})
		if err != nil {
			t.Errorf("read: %v", err)
		}
	})
	s.Run()
	v, ok, _ := query.GetResult(payload)
	if !ok || string(v) != "77" {
		t.Fatalf("after update: %q", v)
	}
}

// TestSSProofStepCountBounded has the untrusted storage host answer a Get
// with a proof that claims 1<<16 steps and carries none. The client refuses
// it at the merkle codec's step-count check, before reading a single step.
func TestSSProofStepCountBounded(t *testing.T) {
	s := sim.New(6)
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	net := rpc.NewSimNet(s, sim.Const(time.Millisecond))
	net.Register("storage", func(from, method string, body []byte) ([]byte, error) {
		w := wire.NewWriter(64)
		w.Bool(true)
		w.String_("item/005")
		w.Bytes_([]byte("50"))
		w.Uvarint(5)       // leaf index
		w.Byte(0)          // leaf tag
		w.Uvarint(1 << 16) // step count
		return w.Bytes(), nil
	})
	client := &SSClient{
		StorageAddr: "storage", TrustedAddr: "trusted",
		OwnerPub: owner.Public, Costs: cryptoutil.DefaultCosts(),
		Dialer: net.Dialer("client"),
	}
	var err error
	s.Go(func() { _, _, err = client.Read(query.Get{Key: "item/005"}) })
	s.Run()
	if err == nil || !strings.Contains(err.Error(), "65536 steps is implausible") {
		t.Fatalf("forged step count: err = %v, want the step-count refusal", err)
	}
	if client.Stats().ProofFailures != 1 {
		t.Fatalf("stats: %+v", client.Stats())
	}
}

// --- Concurrency under the simulator ------------------------------------------

// runConcurrent hands the same request to handle from two sim tasks at
// once, on a simulator whose Run must end within a wall-clock watchdog: a
// handler that parks on its CPU while holding its mutex blocks the second
// task on the lock without yielding, and the simulator never returns.
func runConcurrent(t *testing.T, s *sim.Sim, handle rpc.Handler, method string, body []byte) {
	t.Helper()
	for i := 0; i < 2; i++ {
		s.Go(func() {
			if _, err := handle("client", method, body); err != nil {
				t.Errorf("%s: %v", method, err)
			}
		})
	}
	done := make(chan struct{})
	go func() { s.Run(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("two concurrent %s requests hung the simulator", method)
	}
}

func TestSMRReplicaConcurrentWrites(t *testing.T) {
	s := sim.New(6)
	rep := NewSMRReplica(SMRReplicaConfig{
		Addr: "rep", Keys: cryptoutil.DeriveKeyPair("smr", 0),
		Costs: cryptoutil.DefaultCosts(), CPU: s.NewResource("rep/cpu", 1),
	}, content())
	body := wire.EncodeFrame(func(w *wire.Writer) {
		w.Bytes_(store.EncodeOp(store.Put{Key: "new", Value: []byte("1")}))
	})
	runConcurrent(t, s, rep.Handle, MethodSMRWrite, body)
}

func TestSSStorageConcurrentGets(t *testing.T) {
	s := sim.New(7)
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	snap := content()
	storage := NewSSStorage(SSStorageConfig{
		Addr: "storage", Costs: cryptoutil.DefaultCosts(), CPU: s.NewResource("storage/cpu", 1),
	}, snap, SignRoot(owner, snap.Version(), BuildTree(snap).Root()))
	body := wire.EncodeFrame(func(w *wire.Writer) { w.String_("item/005") })
	runConcurrent(t, s, storage.Handle, MethodSSGet, body)
}
