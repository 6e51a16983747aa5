package baseline

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/merkle"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

// State-signing method names.
const (
	MethodSSGet     = "ss.get"     // untrusted storage: value + Merkle proof
	MethodSSDynamic = "ss.dynamic" // trusted host: execute a dynamic query
)

// Errors.
var (
	ErrProofRejected = errors.New("baseline: merkle proof rejected")
	ErrRootStale     = errors.New("baseline: signed root version mismatch")
)

// SignedRoot is the content owner's signature over (version, Merkle root)
// — the only trusted statement in the state-signing design.
type SignedRoot struct {
	Version  uint64
	Root     cryptoutil.Digest
	OwnerPub cryptoutil.PublicKey
	Sig      []byte
}

func (s *SignedRoot) signedBytes() []byte {
	w := wire.NewWriter(64)
	w.String_("ssroot.v1")
	w.Uvarint(s.Version)
	w.Bytes_(s.Root[:])
	return w.Bytes()
}

// SignRoot builds the owner's statement for a tree at a version.
func SignRoot(owner *cryptoutil.KeyPair, version uint64, root cryptoutil.Digest) SignedRoot {
	s := SignedRoot{Version: version, Root: root, OwnerPub: owner.Public}
	s.Sig = owner.Sign(s.signedBytes())
	return s
}

// Verify checks the owner's signature.
func (s *SignedRoot) Verify(owner cryptoutil.PublicKey) error {
	if err := cryptoutil.Verify(owner, s.signedBytes(), s.Sig); err != nil {
		return fmt.Errorf("baseline: root signature: %w", err)
	}
	return nil
}

// SSStorage is the untrusted storage node: it holds the content and the
// Merkle tree and serves point reads with membership proofs. It cannot
// forge values (proofs would fail) but could serve stale or absent data;
// freshness is outside this baseline's scope, as in the cited systems.
type SSStorage struct {
	cfg   SSStorageConfig
	meter *cryptoutil.Meter

	mu     sync.Mutex
	tree   *merkle.Tree
	root   SignedRoot
	proofB uint64 // total proof bytes served
}

// SSStorageConfig configures the storage node.
type SSStorageConfig struct {
	Addr  string
	Costs cryptoutil.CostModel
	CPU   *sim.Resource
}

// NewSSStorage builds storage over a snapshot and its signed root.
func NewSSStorage(cfg SSStorageConfig, snapshot *store.Store, root SignedRoot) *SSStorage {
	return &SSStorage{cfg: cfg, meter: cryptoutil.NewMeter(cfg.CPU, cfg.Costs), tree: BuildTree(snapshot), root: root}
}

// BuildTree constructs the Merkle tree over a content snapshot in key
// order.
func BuildTree(s *store.Store) *merkle.Tree {
	var entries []merkle.Entry
	s.Ascend("", "", func(k string, v []byte) bool {
		entries = append(entries, merkle.Entry{Key: k, Value: v})
		return true
	})
	return merkle.Build(entries)
}

// Update replaces the tree and signed root after a content change. In the
// state-signing design every update requires the owner (a trusted party)
// to re-sign; this is the "semi-static content" restriction of §1/§5.
func (s *SSStorage) Update(snapshot *store.Store, root SignedRoot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tree = BuildTree(snapshot)
	s.root = root
}

// ProofBytes returns the total proof bytes served.
func (s *SSStorage) ProofBytes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.proofB
}

// Handle routes the storage node's RPC methods.
func (s *SSStorage) Handle(from, method string, body []byte) ([]byte, error) {
	if method != MethodSSGet {
		return nil, fmt.Errorf("baseline: ss storage: unknown method %q", method)
	}
	r := wire.NewReader(body)
	key := r.String()
	if err := r.Done(); err != nil {
		return nil, err
	}
	// Update replaces the tree and the root whole, so the lookup runs on
	// the pair taken under the lock, after the unlock: its charges park
	// this task.
	s.mu.Lock()
	tree, root := s.tree, s.root
	s.mu.Unlock()
	idx := tree.Find(key)
	w := wire.NewWriter(256)
	if idx < 0 {
		// Absence is not provable in this simple baseline (no range
		// proofs); report absent without proof, as [7]-era systems did
		// for the common path.
		w.Bool(false)
		return w.Bytes(), nil
	}
	entry, _ := tree.Entry(idx)
	proof, err := tree.Prove(idx)
	if err != nil {
		return nil, err
	}
	s.meter.Exec(0, false) // a point lookup, priced at a query's base
	s.meter.Hash(len(entry.Value))
	w.Bool(true)
	w.String_(entry.Key)
	w.Bytes_(entry.Value)
	proof.Encode(w)
	root.Encode(w)
	s.mu.Lock()
	s.proofB += uint64(len(proof.Steps) * (cryptoutil.DigestSize + 1))
	s.mu.Unlock()
	return w.Bytes(), nil
}

// Encode appends the signed root to w.
func (s *SignedRoot) Encode(w *wire.Writer) {
	w.Uvarint(s.Version)
	w.Bytes_(s.Root[:])
	w.Bytes_(s.OwnerPub)
	w.Bytes_(s.Sig)
}

// DecodeSignedRoot reads a signed root from r.
func DecodeSignedRoot(r *wire.Reader) (SignedRoot, error) {
	var s SignedRoot
	s.Version = r.Uvarint()
	b := r.Bytes()
	if len(b) == cryptoutil.DigestSize {
		copy(s.Root[:], b)
	}
	s.OwnerPub = cryptoutil.PublicKey(r.Bytes())
	s.Sig = r.Bytes()
	return s, r.Err()
}

// SSTrusted is the trusted host that must execute every dynamic query in
// the state-signing design (§5: "dynamic queries on the data need to be
// executed on trusted hosts").
type SSTrusted struct {
	cfg   SSStorageConfig
	meter *cryptoutil.Meter

	mu      sync.Mutex
	replica *store.Store
	execs   uint64
}

// NewSSTrusted creates the trusted query host over the content.
func NewSSTrusted(cfg SSStorageConfig, snapshot *store.Store) *SSTrusted {
	return &SSTrusted{cfg: cfg, meter: cryptoutil.NewMeter(cfg.CPU, cfg.Costs), replica: snapshot.Clone()}
}

// Execs returns the number of dynamic queries executed on trusted CPU.
func (t *SSTrusted) Execs() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.execs
}

// Handle routes the trusted host's RPC methods.
func (t *SSTrusted) Handle(from, method string, body []byte) ([]byte, error) {
	if method != MethodSSDynamic {
		return nil, fmt.Errorf("baseline: ss trusted: unknown method %q", method)
	}
	r := wire.NewReader(body)
	qb := r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	q, err := query.Decode(qb)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	res, err := q.Execute(t.replica)
	t.execs++
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	t.meter.Exec(res.Scanned, false)
	t.meter.Reply()
	return res.Payload, nil
}

// SSClientStats counts the state-signing client's activity.
type SSClientStats struct {
	StaticReads   uint64 // verified against Merkle proofs
	DynamicReads  uint64 // forced onto the trusted host
	ProofFailures uint64
	VerifyTime    time.Duration // client-side modelled verify cost
}

// SSClient reads through the state-signing design: point lookups go to
// untrusted storage and verify locally; everything else goes to the
// trusted host.
type SSClient struct {
	StorageAddr string
	TrustedAddr string
	OwnerPub    cryptoutil.PublicKey
	Costs       cryptoutil.CostModel
	Dialer      rpc.Dialer

	mu    sync.Mutex
	stats SSClientStats
}

// Stats returns a snapshot of the client's counters.
func (c *SSClient) Stats() SSClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Read executes q; only Get queries can be served from untrusted storage.
// It reports (payload, servedByTrusted, error).
func (c *SSClient) Read(q query.Query) ([]byte, bool, error) {
	if g, ok := q.(query.Get); ok {
		payload, err := c.verifiedGet(g.Key)
		if err == nil {
			c.mu.Lock()
			c.stats.StaticReads++
			c.mu.Unlock()
			return payload, false, nil
		}
		c.mu.Lock()
		c.stats.ProofFailures++
		c.mu.Unlock()
		return nil, false, err
	}
	// Dynamic query: trusted host only (§5).
	w := wire.NewWriter(64)
	w.Bytes_(query.Encode(q))
	payload, err := c.Dialer.CallTimeout(c.TrustedAddr, MethodSSDynamic, w.Bytes(), callBound)
	if err != nil {
		return nil, true, err
	}
	c.mu.Lock()
	c.stats.DynamicReads++
	c.mu.Unlock()
	return payload, true, nil
}

// verifiedGet fetches key with its proof and verifies against the signed
// root.
func (c *SSClient) verifiedGet(key string) ([]byte, error) {
	w := wire.NewWriter(32)
	w.String_(key)
	body, err := c.Dialer.CallTimeout(c.StorageAddr, MethodSSGet, w.Bytes(), callBound)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(body)
	found := r.Bool()
	if !found {
		if err := r.Done(); err != nil {
			return nil, err
		}
		// Absent key: encode like query.Get's miss payload for parity.
		out := wire.NewWriter(1)
		out.Bool(false)
		return out.Bytes(), nil
	}
	gotKey := r.String()
	value := r.Bytes()
	// The step count comes from the untrusted host: the codec bounds it.
	proof, err := merkle.DecodeProof(r)
	if err != nil {
		return nil, err
	}
	root, err := DecodeSignedRoot(r)
	if err != nil {
		return nil, err
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if gotKey != key {
		return nil, ErrProofRejected
	}
	if err := root.Verify(c.OwnerPub); err != nil {
		return nil, err
	}
	if err := merkle.Verify(root.Root, merkle.Entry{Key: gotKey, Value: value}, proof); err != nil {
		return nil, ErrProofRejected
	}
	c.mu.Lock()
	c.stats.VerifyTime += c.Costs.VerifySig + c.Costs.HashCost(len(value))
	c.mu.Unlock()
	// Success payload in query.Get encoding.
	out := wire.NewWriter(len(value) + 8)
	out.Bool(true)
	out.Bytes_(value)
	return out.Bytes(), nil
}
