// Signed protocol evidence: version stamps, batch stamps and membership
// proofs, op records, pledges, write requests, and the access-control
// policy. See doc.go for the package overview.
package core

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/merkle"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/wire"
)

// Errors shared across the protocol.
var (
	ErrBadStamp     = errors.New("core: version stamp signature invalid")
	ErrBadPledge    = errors.New("core: pledge signature invalid")
	ErrStale        = errors.New("core: content version stamp is stale")
	ErrHashMismatch = errors.New("core: result hash does not match pledge")
	ErrNotProven    = errors.New("core: reported pledge is not a valid misbehaviour proof")
	ErrDenied       = errors.New("core: write denied by access control policy")
	ErrThrottled    = errors.New("core: double-check throttled (greedy client suspected)")
	ErrNoSlaves     = errors.New("core: master has no slaves available")
)

// Stamp kinds. A keep-alive stamp's OpDigest is zero and a snapshot
// stamp's is the hash of the snapshot bytes it authorizes (both
// stampKindOp); a batch stamp's OpDigest is the merkle root of a commit.
// The two kinds are domain-separated in the signature: op bytes can be
// chosen by clients, so without separation a signed digest could be
// ground to collide with a merkle interior node (or vice versa) and
// replayed as evidence of the other kind.
const (
	stampKindOp    byte = 0
	stampKindBatch byte = 1
)

// VersionStamp is the signed, time-stamped content version that masters
// attach to slave updates and keep-alive packets (§3.1). Slaves embed the
// latest stamp in every pledge; clients use its timestamp to bound
// staleness by max_latency.
//
// For update stamps (Kind = stampKindBatch), OpDigest is the merkle root
// over the commit's encoded operations, so a replica applies only
// master-authorized ops even over an unauthenticated transport;
// keep-alive stamps carry a zero digest and snapshot stamps the hash of
// the snapshot.
type VersionStamp struct {
	Version   uint64
	Timestamp time.Time
	OpDigest  cryptoutil.Digest
	MasterPub cryptoutil.PublicKey
	Kind      byte
	Sig       []byte
}

// appendSignedBytes appends the stamp's signing body to w. Sign and
// Verify run it through a pooled writer so the (very hot) stamp paths
// do not allocate a fresh buffer per signature operation.
func (v *VersionStamp) appendSignedBytes(w *wire.Writer) {
	if v.Kind == stampKindBatch {
		w.String_("vbatch.v1")
	} else {
		w.String_("vstamp.v1")
	}
	w.Uvarint(v.Version)
	w.Time(v.Timestamp)
	w.Bytes_(v.OpDigest[:])
	w.Bytes_(v.MasterPub)
}

// signedBytes returns a fresh copy of the canonical signed body; the
// hot paths use appendSignedBytes with a pooled writer instead.
func (v *VersionStamp) signedBytes() []byte {
	w := wire.GetWriter()
	v.appendSignedBytes(w)
	b := w.Detach()
	wire.PutWriter(w)
	return b
}

func (v *VersionStamp) sign(master *cryptoutil.KeyPair) {
	w := wire.GetWriter()
	v.appendSignedBytes(w)
	v.Sig = master.Sign(w.Bytes())
	wire.PutWriter(w)
}

// SignStamp creates a keep-alive stamp for (version, ts) under the
// master's key.
func SignStamp(master *cryptoutil.KeyPair, version uint64, ts time.Time) VersionStamp {
	v := VersionStamp{Version: version, Timestamp: ts, MasterPub: master.Public}
	v.sign(master)
	return v
}

// SignStampWithOp creates a stamp that additionally authenticates opBytes
// by their hash: the encoded state snapshot at this version. Committed
// writes are stamped by SignBatchStamp.
func SignStampWithOp(master *cryptoutil.KeyPair, version uint64, ts time.Time, opBytes []byte) VersionStamp {
	v := VersionStamp{
		Version: version, Timestamp: ts,
		OpDigest:  cryptoutil.HashBytes(opBytes),
		MasterPub: master.Public,
	}
	v.sign(master)
	return v
}

// AuthenticatesOp reports whether the stamp's digest is the hash of
// opBytes (a snapshot under its SignStampWithOp stamp). A batch stamp's
// digest is a merkle root and authorizes ops only through membership
// proofs (VerifyBatchMember) or a rebuilt root (VerifyMembers).
func (v *VersionStamp) AuthenticatesOp(opBytes []byte) bool {
	return v.Kind == stampKindOp && v.OpDigest.Equal(cryptoutil.HashBytes(opBytes))
}

// --- Batched commits -------------------------------------------------------
//
// A master signing every write individually caps throughput at the cost
// of one signature per write (§3.4: signing dominates the master's CPU).
// Batched commits amortize it: the master accumulates concurrent writes,
// applies them as versions first..first+n-1, and signs ONE stamp whose
// OpDigest is the merkle root over the batch's op bytes. A write that
// commits alone is a batch of one: a one-leaf tree, the same stamp. A
// slave that is pushed the whole batch rebuilds the root and compares
// (BatchUpdate); a single op — or any suffix of a batch during sync — is
// authenticated by its membership proof against that root (OpRecord), so
// neither needs a per-op signature.

// BatchLeaf is the canonical merkle leaf binding opBytes to the content
// version it produced. Both signer and verifier must build it
// identically.
func BatchLeaf(version uint64, opBytes []byte) merkle.Entry {
	key := append(make([]byte, 0, 21), 'v') // on the stack: one allocation per leaf, the string
	return merkle.Entry{Key: string(strconv.AppendUint(key, version, 10)), Value: opBytes}
}

// AppendBatchLeaves appends the batch's canonical leaves to dst and
// returns it. BatchTree and the master's scratch-reusing commit path
// share it, so signer and verifier always build identical leaves.
func AppendBatchLeaves(dst []merkle.Entry, first uint64, ops [][]byte) []merkle.Entry {
	for i, op := range ops {
		dst = append(dst, BatchLeaf(first+uint64(i), op))
	}
	return dst
}

// BatchTree builds the batch's merkle tree: leaf i authenticates ops[i]
// at version first+i.
func BatchTree(first uint64, ops [][]byte) *merkle.Tree {
	return merkle.Build(AppendBatchLeaves(nil, first, ops))
}

// SignBatchStamp signs the single stamp covering a batched commit: its
// Version is the batch's last version and its OpDigest is the batch
// merkle root.
func SignBatchStamp(master *cryptoutil.KeyPair, lastVersion uint64, ts time.Time, root cryptoutil.Digest) VersionStamp {
	v := VersionStamp{
		Version: lastVersion, Timestamp: ts,
		OpDigest: root, MasterPub: master.Public,
		Kind: stampKindBatch,
	}
	v.sign(master)
	return v
}

// VerifyBatchMember checks that opBytes is the op the stamp's batch
// committed at the given version: the version lies inside the batch
// [first, first+count), the proof indexes that position, and the proof
// verifies against the stamp's root. The caller must have verified the
// stamp's signature already.
func VerifyBatchMember(stamp *VersionStamp, first, count, version uint64, opBytes []byte, proof merkle.Proof) error {
	if stamp.Kind != stampKindBatch {
		return fmt.Errorf("%w: stamp is not a batch stamp", ErrBadStamp)
	}
	if count == 0 || version < first || version >= first+count {
		return fmt.Errorf("%w: version %d outside batch [%d,%d)", ErrBadStamp, version, first, first+count)
	}
	if stamp.Version != first+count-1 {
		return fmt.Errorf("%w: stamp version %d does not close batch [%d,%d)", ErrBadStamp, stamp.Version, first, first+count)
	}
	if uint64(proof.Index) != version-first {
		return fmt.Errorf("%w: proof index %d for version %d", ErrBadStamp, proof.Index, version)
	}
	if err := merkle.Verify(stamp.OpDigest, BatchLeaf(version, opBytes), proof); err != nil {
		return fmt.Errorf("%w: %v", ErrBadStamp, err)
	}
	return nil
}

// OpRecord is one committed op plus the evidence a replica needs to
// apply it: its batch's stamp and its membership proof (no steps when the
// batch is that one op). Masters retain one per version; sync replies are sequences of them. The proof stays because
// a checkpoint may truncate the log in the middle of a batch, and the
// records above the cut then travel without the ops below it — the
// receiver cannot rebuild that batch's root.
type OpRecord struct {
	Version uint64
	OpBytes []byte
	Stamp   VersionStamp // the batch stamp
	First   uint64       // first version of the signing batch
	Count   uint64       // ops in the signing batch
	Proof   merkle.Proof // membership proof against the stamp's root
}

// VerifyBinding checks only that the op is bound to the record's stamp
// by its membership proof. The caller must have
// verified the stamp's signature: records of the same batch share one
// stamp, so a bulk consumer (sync) verifies each distinct signature
// once and the binding per record — keeping the sync path as amortized
// as the commit path.
func (rec *OpRecord) VerifyBinding() error {
	return VerifyBatchMember(&rec.Stamp, rec.First, rec.Count, rec.Version, rec.OpBytes, rec.Proof)
}

// Encode appends the record to w.
func (rec *OpRecord) Encode(w *wire.Writer) {
	w.Uvarint(rec.Version)
	w.Bytes_(rec.OpBytes)
	rec.Stamp.Encode(w)
	w.Uvarint(rec.First)
	w.Uvarint(rec.Count)
	rec.Proof.Encode(w)
}

// DecodeOpRecord reads a record from r.
func DecodeOpRecord(r *wire.Reader) (OpRecord, error) {
	var rec OpRecord
	rec.Version = r.Uvarint()
	rec.OpBytes = r.Bytes()
	var err error
	rec.Stamp, err = DecodeStamp(r)
	if err != nil {
		return rec, err
	}
	rec.First = r.Uvarint()
	rec.Count = r.Uvarint()
	rec.Proof, err = merkle.DecodeProof(r)
	if err != nil {
		return rec, err
	}
	return rec, r.Err()
}

// BatchUpdate is the master→slave frame carrying one whole batched
// commit: the ops for versions First..First+len(Ops)-1 and the single
// batch stamp — one signature and one delivery regardless of batch size.
// It carries no membership proofs: a receiver that holds every op of the
// batch recomputes the merkle root in 2n−1 hashes and compares it with
// the signed one; only an OpRecord, which a sync reply may ship without
// the rest of its batch (after a mid-batch truncation), travels with one.
type BatchUpdate struct {
	First uint64
	Ops   [][]byte
	// Proofs is never encoded, decoded or read by this package. It
	// survives only because bench/replbench/ledger.go, frozen for PR 17,
	// parks its own proofs in it; the benchmark PR that moves the writer
	// to m1 (ROADMAP, first item) deletes the field together with that use.
	Proofs     []merkle.Proof
	Stamp      VersionStamp
	MasterAddr string
}

// Last returns the batch's final version.
func (bu *BatchUpdate) Last() uint64 { return bu.First + uint64(len(bu.Ops)) - 1 }

// Verify checks the stamp signature and that the stamp's root is the
// root of exactly these ops at exactly these versions.
func (bu *BatchUpdate) Verify(trustedMasters []cryptoutil.PublicKey) error {
	if err := bu.Stamp.Verify(trustedMasters); err != nil {
		return err
	}
	return bu.VerifyMembers(new(batchScratch))
}

// batchScratch is a merkle tree and leaf slice kept between batches, so
// that rebuilding a batch's tree allocates only the leaf keys.
type batchScratch struct {
	tree   merkle.Tree
	leaves []merkle.Entry
}

// rebuild builds the tree of the batch that commits ops at first,
// first+1, …; the tree is valid until the next rebuild.
func (sc *batchScratch) rebuild(first uint64, ops [][]byte) *merkle.Tree {
	sc.leaves = AppendBatchLeaves(sc.leaves[:0], first, ops)
	return sc.tree.Rebuild(sc.leaves)
}

// VerifyMembers checks the batch against its stamp: a batch stamp whose
// version closes [First, First+len(Ops)) and whose root equals the root
// rebuilt (into sc) over the batch's leaves. A leaf hashes its version
// and its op, leaf and interior hashes are domain-separated, and the
// tree's shape is a function of the leaf count, so root equality binds
// every op, its position and the number of ops — what one membership
// proof per op bound. The caller must have verified the stamp's
// signature (directly or through a verified-stamp cache).
func (bu *BatchUpdate) VerifyMembers(sc *batchScratch) error {
	if len(bu.Ops) == 0 {
		return fmt.Errorf("%w: batch without ops", ErrBadStamp)
	}
	if bu.Stamp.Kind != stampKindBatch {
		return fmt.Errorf("%w: stamp is not a batch stamp", ErrBadStamp)
	}
	if bu.Stamp.Version != bu.Last() {
		return fmt.Errorf("%w: stamp version %d does not close batch [%d,%d]", ErrBadStamp, bu.Stamp.Version, bu.First, bu.Last())
	}
	if !sc.rebuild(bu.First, bu.Ops).Root().Equal(bu.Stamp.OpDigest) {
		return fmt.Errorf("%w: ops do not hash to the stamp's batch root", ErrBadStamp)
	}
	return nil
}

// EncodeBatchUpdate serializes the frame. The encode runs through a
// pooled writer; the returned slice is a detached, exactly-sized copy
// that the caller may retain (it is handed to dialers).
func EncodeBatchUpdate(bu BatchUpdate) []byte {
	return wire.EncodeFrame(func(w *wire.Writer) {
		w.Uvarint(bu.First)
		w.BytesSlice(bu.Ops)
		bu.Stamp.Encode(w)
		w.String_(bu.MasterAddr)
	})
}

// DecodeBatchUpdate parses the frame. The decoded Ops alias b (the store
// copies key and value bytes on apply, and the frame outlives the
// handler that decodes it); the stamp's key and signature are copies, so
// retaining the stamp is safe.
func DecodeBatchUpdate(b []byte) (BatchUpdate, error) {
	r := wire.NewReader(b)
	var bu BatchUpdate
	bu.First = r.Uvarint()
	bu.Ops = r.BytesSliceView() // refuses a count above wire.MaxBatchItems
	var err error
	bu.Stamp, err = DecodeStamp(r)
	if err != nil {
		return bu, err
	}
	bu.MasterAddr = r.String()
	return bu, r.Done()
}

// Verify checks the stamp against a set of trusted master keys.
func (v *VersionStamp) Verify(trustedMasters []cryptoutil.PublicKey) error {
	_, err := (*sigCache)(nil).verifyStamp(v, trustedMasters)
	return err
}

// Fresh reports whether the stamp is younger than maxLatency at time now
// (§3.2: "the client makes sure the time-stamp is not older than
// max_latency").
func (v *VersionStamp) Fresh(now time.Time, maxLatency time.Duration) bool {
	return now.Sub(v.Timestamp) <= maxLatency
}

// Encode appends the stamp to w. Kind travels on the wire but flipping
// it breaks the signature: the signing domain depends on it.
func (v *VersionStamp) Encode(w *wire.Writer) {
	w.Uvarint(v.Version)
	w.Time(v.Timestamp)
	w.Bytes_(v.OpDigest[:])
	w.Bytes_(v.MasterPub)
	w.Byte(v.Kind)
	w.Bytes_(v.Sig)
}

// DecodeStamp reads a stamp from r; its key and signature are copies.
func DecodeStamp(r *wire.Reader) (VersionStamp, error) { return decodeStamp(r, (*wire.Reader).Bytes) }

// decodeStamp reads a stamp whose key and signature come from field:
// Bytes to copy them, BytesView to alias r's buffer.
func decodeStamp(r *wire.Reader, field func(*wire.Reader) []byte) (VersionStamp, error) {
	var v VersionStamp
	v.Version = r.Uvarint()
	v.Timestamp = r.Time()
	d := r.BytesView()
	if len(d) == cryptoutil.DigestSize {
		copy(v.OpDigest[:], d)
	} else if r.Err() == nil {
		return v, fmt.Errorf("core: bad op digest length %d", len(d))
	}
	v.MasterPub = cryptoutil.PublicKey(field(r))
	v.Kind = r.Byte()
	v.Sig = field(r)
	return v, r.Err()
}

// Pledge is the signed packet a slave returns with every read (§3.2): a
// copy of the request, the secure hash of the result, and the latest
// time-stamped content version received from a master. If the slave lied
// about the result, the pledge is an irrefutable proof of dishonesty
// (§3.3); and because only the slave can produce its signature, a client
// cannot frame an innocent slave.
//
// Sig covers the query, the result hash, Stamp.Version and the slave's
// key; the rest of Stamp is the master's word, under the master's own
// signature, and whoever relies on it verifies that (sigcache.go).
type Pledge struct {
	QueryBytes []byte // encoded query (the "copy of the request")
	ResultHash cryptoutil.Digest
	Stamp      VersionStamp
	SlavePub   cryptoutil.PublicKey
	Sig        []byte
}

func (p *Pledge) appendSignedBytes(w *wire.Writer) {
	w.String_("pledge.v2")
	w.Bytes_(p.QueryBytes)
	w.Bytes_(p.ResultHash[:])
	w.Uvarint(p.Stamp.Version)
	w.Bytes_(p.SlavePub)
}

// SignPledge builds and signs a pledge over (query, result hash, version).
func SignPledge(slave *cryptoutil.KeyPair, queryBytes []byte, resultHash cryptoutil.Digest, stamp VersionStamp) Pledge {
	p := Pledge{QueryBytes: queryBytes, ResultHash: resultHash, Stamp: stamp, SlavePub: slave.Public}
	(*sigCache)(nil).signPledge(&p, slave)
	return p
}

// VerifySig checks the slave's signature on the pledge.
func (p *Pledge) VerifySig() error {
	_, err := (*sigCache)(nil).verifyPledge(p)
	return err
}

// Encode appends the pledge to w.
func (p *Pledge) Encode(w *wire.Writer) {
	w.Bytes_(p.QueryBytes)
	w.Bytes_(p.ResultHash[:])
	p.Stamp.Encode(w)
	w.Bytes_(p.SlavePub)
	w.Bytes_(p.Sig)
}

// EncodePledge serializes a pledge to a fresh, detached byte slice that
// the caller may retain.
func EncodePledge(p Pledge) []byte {
	return wire.EncodeFrame(p.Encode)
}

// DecodePledge reads a pledge from r. Every field is a copy, so the pledge
// outlives r's buffer; DecodeReadReply and decodePledgeFrame take views.
func DecodePledge(r *wire.Reader) (Pledge, error) { return decodePledge(r, (*wire.Reader).Bytes) }

// decodePledgeFrame decodes a frame that holds exactly one pledge, without
// the copies: the query, keys and signatures alias frame, which the caller
// must own for as long as it keeps the pledge.
func decodePledgeFrame(frame []byte) (Pledge, error) {
	r := wire.NewReader(frame)
	p, err := decodePledge(r, (*wire.Reader).BytesView)
	if err != nil {
		return p, err
	}
	return p, r.Done()
}

func decodePledge(r *wire.Reader, field func(*wire.Reader) []byte) (Pledge, error) {
	var p Pledge
	p.QueryBytes = field(r)
	h := r.BytesView()
	if len(h) == cryptoutil.DigestSize {
		copy(p.ResultHash[:], h)
	} else if r.Err() == nil {
		return p, fmt.Errorf("core: bad result hash length %d", len(h))
	}
	var err error
	p.Stamp, err = decodeStamp(r, field)
	if err != nil {
		return p, err
	}
	p.SlavePub = cryptoutil.PublicKey(field(r))
	p.Sig = field(r)
	return p, r.Err()
}

// CheckPledgeAgainst re-executes the pledged query on a replica that is
// at the pledge's content version and reports whether the pledge is a
// valid misbehaviour proof: signature valid but result hash wrong.
// It returns (proven, correctHash, error). An execution error on a
// malformed query also proves misbehaviour by an honest-executor
// standard: an honest slave would have returned the same error, not a
// signed result.
func CheckPledgeAgainst(replica *store.Store, p *Pledge) (bool, cryptoutil.Digest, error) {
	if err := p.VerifySig(); err != nil {
		return false, cryptoutil.Digest{}, err
	}
	if replica.Version() != p.Stamp.Version {
		return false, cryptoutil.Digest{}, fmt.Errorf(
			"core: replica at version %d cannot check pledge for version %d",
			replica.Version(), p.Stamp.Version)
	}
	q, err := query.Decode(p.QueryBytes)
	if err != nil {
		return true, cryptoutil.Digest{}, nil // signed garbage query: proof
	}
	res, err := q.Execute(replica)
	if err != nil {
		return true, cryptoutil.Digest{}, nil // signed unexecutable query
	}
	correct := res.Digest()
	return !correct.Equal(p.ResultHash), correct, nil
}

// WriteRequest is a client-signed request for a single write. No node
// sends or accepts one — Client.Write sends a WriteWave of one op — and the
// type, SignWrite and DecodeWriteRequest stay only because
// bench/replbench/ledger.go, which may not be edited here, times them; they
// go with it (ROADMAP item 1).
type WriteRequest struct {
	OpBytes   []byte
	ClientPub cryptoutil.PublicKey
	Sig       []byte
}

func (wr *WriteRequest) appendSignedBytes(w *wire.Writer) {
	w.String_("write.v1")
	w.Bytes_(wr.OpBytes)
	w.Bytes_(wr.ClientPub)
}

// SignWrite builds a write request for op under the client's key.
func SignWrite(client *cryptoutil.KeyPair, op store.Op) WriteRequest {
	wr := WriteRequest{OpBytes: store.EncodeOp(op), ClientPub: client.Public}
	w := wire.GetWriter()
	wr.appendSignedBytes(w)
	wr.Sig = client.Sign(w.Bytes())
	wire.PutWriter(w)
	return wr
}

// VerifySig checks the client's signature.
func (wr *WriteRequest) VerifySig() error {
	w := wire.GetWriter()
	wr.appendSignedBytes(w)
	err := cryptoutil.Verify(wr.ClientPub, w.Bytes(), wr.Sig)
	wire.PutWriter(w)
	return err
}

// Encode appends the write request to w.
func (wr *WriteRequest) Encode(w *wire.Writer) {
	w.Bytes_(wr.OpBytes)
	w.Bytes_(wr.ClientPub)
	w.Bytes_(wr.Sig)
}

// DecodeWriteRequest reads a write request from r. The request's fields
// alias r's buffer.
func DecodeWriteRequest(r *wire.Reader) (WriteRequest, error) {
	var wr WriteRequest
	wr.OpBytes = r.BytesView()
	wr.ClientPub = cryptoutil.PublicKey(r.BytesView())
	wr.Sig = r.BytesView()
	return wr, r.Err()
}

// WriteWave is a client-signed wave of writes (MethodWriteMulti): ONE
// signature covers the client key, the op count and every op in order —
// §3.4's one signature over many items, on the client half of the write
// path — the only write request a master admits (§3.1: the master "first
// checks whether the client is allowed to invoke such a request").
type WriteWave struct {
	ClientPub cryptoutil.PublicKey
	Ops       [][]byte
	Sig       []byte
}

func (ww *WriteWave) appendSignedBytes(w *wire.Writer) {
	w.String_("wave.v1")
	w.Bytes_(ww.ClientPub)
	w.BytesSlice(ww.Ops) // count, then every op length-prefixed
}

// SignWave builds the wave request for ops under the client's key.
func SignWave(client *cryptoutil.KeyPair, ops []store.Op) WriteWave {
	ww := WriteWave{ClientPub: client.Public, Ops: make([][]byte, len(ops))}
	for i, op := range ops {
		ww.Ops[i] = store.EncodeOp(op)
	}
	w := wire.GetWriter()
	ww.appendSignedBytes(w)
	ww.Sig = client.Sign(w.Bytes())
	wire.PutWriter(w)
	return ww
}

// VerifySig checks the client's signature over the whole wave.
func (ww *WriteWave) VerifySig() error {
	w := wire.GetWriter()
	ww.appendSignedBytes(w)
	err := cryptoutil.Verify(ww.ClientPub, w.Bytes(), ww.Sig)
	wire.PutWriter(w)
	return err
}

// Encode appends the wave to w.
func (ww *WriteWave) Encode(w *wire.Writer) {
	w.Bytes_(ww.ClientPub)
	w.BytesSlice(ww.Ops)
	w.Bytes_(ww.Sig)
}

// DecodeWriteWave parses a whole m.writemulti frame. The fields alias b
// (request frames are freshly allocated per message and immutable after
// receipt, so the views stay valid for as long as the wave is retained).
func DecodeWriteWave(b []byte) (WriteWave, error) {
	r := wire.NewReader(b)
	var ww WriteWave
	ww.ClientPub = cryptoutil.PublicKey(r.BytesView())
	ww.Ops = r.BytesSliceView()
	ww.Sig = r.BytesView()
	return ww, r.Done()
}

// ACL is the content owner's write access policy: the set of client keys
// allowed to modify the content (§2: the policy "is only concerned with
// operations that modify the content").
type ACL struct {
	allowed map[string]bool
}

// NewACL builds a policy allowing exactly the given client keys.
func NewACL(clients ...cryptoutil.PublicKey) *ACL {
	a := &ACL{allowed: make(map[string]bool, len(clients))}
	for _, c := range clients {
		a.allowed[string(c)] = true
	}
	return a
}

// Allow adds a client key to the policy.
func (a *ACL) Allow(pub cryptoutil.PublicKey) { a.allowed[string(pub)] = true }

// Permits reports whether pub may write.
func (a *ACL) Permits(pub cryptoutil.PublicKey) bool { return a.allowed[string(pub)] }
