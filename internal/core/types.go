// Signed protocol evidence: version stamps, batch stamps and the batches
// they sign, pledges, write waves, and the access-control policy. See
// doc.go for the package overview.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/wire"
)

// Errors shared across the protocol.
var (
	ErrBadStamp  = errors.New("core: version stamp signature invalid")
	ErrBadPledge = errors.New("core: pledge signature invalid")
	ErrStale     = errors.New("core: content version stamp is stale")
	ErrNotProven = errors.New("core: reported pledge is not a valid misbehaviour proof")
	ErrDenied    = errors.New("core: write denied by access control policy")
	ErrThrottled = errors.New("core: double-check throttled (greedy client suspected)")
	ErrNoSlaves  = errors.New("core: master has no slaves available")
)

// Stamp kinds: what a stamp's OpDigest covers. Each kind signs under a
// domain of its own (stampDomains), so a digest of one kind never passes
// as another's: every digest hashes bytes that anyone can shape — op bytes
// are chosen by clients — and without the domains a snapshot whose bytes
// parse as a batch prefix would pass as that batch's stamp. decodeStamp
// refuses any other kind.
const (
	stampKindOp        byte = 0 // a snapshot's hash (SignStampWithOp), or zero (SignStamp)
	stampKindBatch     byte = 1 // a committed batch's BatchDigest (SignBatchStamp)
	stampKindKeepAlive byte = 2 // the hash of the sending master's address (addrDigest)
)

var stampDomains = [...]string{stampKindOp: "vstamp.v1", stampKindBatch: "vbatch.v1", stampKindKeepAlive: "vkeep.v1"}

// VersionStamp is the signed, time-stamped content version that masters
// attach to slave updates and keep-alive packets (§3.1). Slaves embed the
// latest stamp in every pledge; clients use its timestamp to bound
// staleness by max_latency.
//
// OpDigest is what Kind says it covers (the stamp kinds above): for a
// batch stamp the commit's BatchDigest, so a replica applies only
// master-authorized ops even over an unauthenticated transport.
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
	w.String_(stampDomains[v.Kind])
	w.Uvarint(v.Version)
	w.Time(v.Timestamp)
	w.Bytes_(v.OpDigest[:])
	w.Bytes_(v.MasterPub)
}

// signedBytes returns a fresh copy of the canonical signed body; the
// hot paths borrow a pooled writer instead.
func (v *VersionStamp) signedBytes() []byte {
	return wire.EncodeFrame(v.appendSignedBytes)
}

// signStamp is the one stamp signer: a stamp of kind for (version, ts)
// whose OpDigest is digest, signed under the master's key.
func signStamp(master *cryptoutil.KeyPair, kind byte, version uint64, ts time.Time, digest cryptoutil.Digest) VersionStamp {
	v := VersionStamp{Version: version, Timestamp: ts, OpDigest: digest, MasterPub: master.Public, Kind: kind}
	wire.Borrow(v.appendSignedBytes, func(b []byte) { v.Sig = master.Sign(b) })
	return v
}

// SignStamp creates a stamp for (version, ts) under the master's key whose
// digest is zero: it authenticates no bytes and binds no address.
func SignStamp(master *cryptoutil.KeyPair, version uint64, ts time.Time) VersionStamp {
	return signStamp(master, stampKindOp, version, ts, cryptoutil.Digest{})
}

// SignStampWithOp creates a stamp that additionally authenticates opBytes
// by their hash: the encoded state snapshot at this version. Committed
// writes are stamped by SignBatchStamp.
func SignStampWithOp(master *cryptoutil.KeyPair, version uint64, ts time.Time, opBytes []byte) VersionStamp {
	return signStamp(master, stampKindOp, version, ts, cryptoutil.HashBytes(opBytes))
}

// addrDigest is what a keep-alive stamp signs for its master's address.
func addrDigest(addr string) cryptoutil.Digest { return cryptoutil.HashBytes([]byte(addr)) }

// bindsAddr reports whether the stamp is a keep-alive stamp signed for
// addr, pricing the address's hash on m when the kind leaves it to decide.
func (v *VersionStamp) bindsAddr(addr string, m *cryptoutil.Meter) bool {
	if v.Kind != stampKindKeepAlive {
		return false
	}
	m.Hash(len(addr))
	return v.OpDigest.Equal(addrDigest(addr))
}

// AuthenticatesOp reports whether the stamp's digest is the hash of
// opBytes (a snapshot under its SignStampWithOp stamp). A batch stamp
// authorizes ops only through VerifyMembers.
func (v *VersionStamp) AuthenticatesOp(opBytes []byte) bool {
	return v.Kind == stampKindOp && v.OpDigest.Equal(cryptoutil.HashBytes(opBytes))
}

// --- Batched commits -------------------------------------------------------
//
// A master signing every write individually caps throughput at the cost
// of one signature per write (§3.4: signing dominates the master's CPU).
// Batched commits amortize it: the master accumulates concurrent write
// waves, never splitting one, applies their ops as versions
// first..first+n-1, and signs ONE stamp whose OpDigest is the hash of the
// batch's own bytes (BatchDigest). A write that commits alone is a batch
// of one under the same stamp. The batch is also the unit of history: the
// master logs it whole, its WAL record is one batch and a sync replays
// whole batches, so every receiver holds every op of a batch, hashes the
// same bytes and compares (BatchUpdate.VerifyMembers) — no op needs a
// signature of its own.

// appendBatchPrefix appends what a batch stamp's digest covers: uvarint
// first ‖ uvarint n ‖ n × bytes op. Every op is length-prefixed behind the
// count, so the bytes decode back to exactly one (first, ops): two batches
// that differ in an op, its position or the number of ops never hash the
// same input.
func appendBatchPrefix(w *wire.Writer, first uint64, ops [][]byte) {
	w.Uvarint(first)
	w.BytesSlice(ops)
}

// batchPrefixLen is how many bytes BatchDigest hashes.
func batchPrefixLen(first uint64, ops [][]byte) int {
	uvarintLen := func(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }
	n := uvarintLen(first) + uvarintLen(uint64(len(ops)))
	for _, op := range ops {
		n += uvarintLen(uint64(len(op))) + len(op)
	}
	return n
}

// BatchDigest is the digest a batch stamp signs for ops committed at
// first, first+1, …: one hash of the bytes that stand in front of the
// stamp in every WAL record and m.sync entry.
func BatchDigest(first uint64, ops [][]byte) (d cryptoutil.Digest) {
	wire.Borrow(func(w *wire.Writer) { appendBatchPrefix(w, first, ops) },
		func(b []byte) { d = cryptoutil.HashBytes(b) })
	return d
}

// SignBatchStamp signs the single stamp covering a batched commit: its
// Version is the batch's last version and its OpDigest the batch's
// BatchDigest.
func SignBatchStamp(master *cryptoutil.KeyPair, lastVersion uint64, ts time.Time, digest cryptoutil.Digest) VersionStamp {
	return signStamp(master, stampKindBatch, lastVersion, ts, digest)
}

// BatchUpdate is one whole batched commit: the ops for versions
// First..First+len(Ops)-1 and the single batch stamp — one signature
// regardless of batch size. It is the master's log entry, its WAL record
// and one entry of an m.sync reply, the one way a slave takes a batch: the
// master announces it by its stamp on a keep-alive and the slave fetches
// it. Every receiver reads it through openBatch, which hashes the ops in
// one pass and compares them with the signed digest (VerifyMembers).
type BatchUpdate struct {
	First  uint64
	Ops    [][]byte
	Proofs frozenProofs // never set or read here; see frozen.go
	Stamp  VersionStamp
}

// Last returns the batch's final version.
func (bu *BatchUpdate) Last() uint64 { return bu.First + uint64(len(bu.Ops)) - 1 }

// VerifyMembers checks the batch against its stamp: a batch stamp whose
// version closes [First, First+len(Ops)) and whose digest is the
// BatchDigest of exactly these ops at exactly these versions. It proves
// nothing until the stamp's signature has verified, which openBatch checks
// first.
func (bu *BatchUpdate) VerifyMembers() error {
	if len(bu.Ops) == 0 {
		return fmt.Errorf("%w: batch without ops", ErrBadStamp)
	}
	if bu.Stamp.Kind != stampKindBatch {
		return fmt.Errorf("%w: stamp is not a batch stamp", ErrBadStamp)
	}
	if bu.Stamp.Version != bu.Last() {
		return fmt.Errorf("%w: stamp version %d does not close batch [%d,%d]", ErrBadStamp, bu.Stamp.Version, bu.First, bu.Last())
	}
	if !BatchDigest(bu.First, bu.Ops).Equal(bu.Stamp.OpDigest) {
		return fmt.Errorf("%w: ops do not hash to the stamp's batch digest", ErrBadStamp)
	}
	return nil
}

// appendEntry appends the batch in the one shape committed history has
// everywhere: uvarint first ‖ uvarint n ‖ n × bytes op ‖ stamp — a WAL
// record after its broadcast slot, one entry of an m.sync reply.
func (bu *BatchUpdate) appendEntry(w *wire.Writer) {
	appendBatchPrefix(w, bu.First, bu.Ops)
	bu.Stamp.Encode(w)
}

// decodeBatchEntry reads what appendEntry wrote. The ops alias r's
// buffer; the stamp's key and its signature are copies. An op count above
// wire.MaxBatchItems is refused. A caller that keeps the ops past the
// buffer copies them (cloneOps): the master's catch-up, whose log keeps
// them. A slave (fetch, Bootstrap) keeps only what store.DecodeOp copied
// out of them. The master's log keeps views of a WAL record or of the
// snapshot file: each is a buffer read for that one decode and never
// written again.
func decodeBatchEntry(r *wire.Reader) (BatchUpdate, error) {
	var bu BatchUpdate
	bu.First = r.Uvarint()
	bu.Ops = r.BytesSliceView()
	var err error
	bu.Stamp, err = DecodeStamp(r)
	return bu, err
}

// cloneOps copies ops into one buffer of their own.
func cloneOps(ops [][]byte) [][]byte {
	buf := bytes.Join(ops, nil)
	out := make([][]byte, len(ops))
	for i, op := range ops {
		out[i], buf = buf[:len(op):len(op)], buf[len(op):]
	}
	return out
}

// openedBatch is a batch entry that passed openBatch, with its ops
// decoded.
type openedBatch struct {
	BatchUpdate
	ops []store.Op // ops[i] is Ops[i] decoded
}

// openBatch is the one rule for every batch a replica takes — in an
// m.sync reply or snapshot file, or a WAL record. It reads the entry from
// r (decodeBatchEntry) and hands it back only once its stamp verifies
// under a trusted key (through the stamps memo, nil allowed),
// VerifyMembers passes and every op decodes, pricing the checks on m.
func openBatch(r *wire.Reader, trusted []cryptoutil.PublicKey, stamps *sigCache, m *cryptoutil.Meter) (b openedBatch, err error) {
	bu, err := decodeBatchEntry(r)
	if err != nil {
		return b, err
	}
	if err = stamps.verifyStamp(&bu.Stamp, trusted, m); err != nil {
		return b, err
	}
	m.Hash(batchPrefixLen(bu.First, bu.Ops))
	if err := bu.VerifyMembers(); err != nil {
		return b, err
	}
	decoded := make([]store.Op, len(bu.Ops))
	for i, op := range bu.Ops {
		if decoded[i], err = store.DecodeOp(op); err != nil {
			return b, err
		}
	}
	return openedBatch{BatchUpdate: bu, ops: decoded}, nil
}

// applyTo applies the ops above replica's version, in order, and returns
// how many: a batch that starts past the next version applies nothing
// and fails with store.ErrVersionGap.
func (b *openedBatch) applyTo(replica *store.Store) (int, error) {
	n := 0
	for i, op := range b.ops {
		v := b.First + uint64(i)
		if v <= replica.Version() {
			continue
		}
		if err := replica.ApplyAt(v, op); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// certifiedBy reports whether the stamp names one of the trusted master
// keys. It checks no signature.
func (v *VersionStamp) certifiedBy(trusted []cryptoutil.PublicKey) bool {
	return slices.ContainsFunc(trusted, func(pub cryptoutil.PublicKey) bool { return bytes.Equal(pub, v.MasterPub) })
}

// equal reports whether o is the same signed stamp as v: every signed
// field, the master key and the signature.
func (v *VersionStamp) equal(o *VersionStamp) bool {
	return v.Version == o.Version && v.Timestamp.Equal(o.Timestamp) && v.OpDigest.Equal(o.OpDigest) &&
		v.Kind == o.Kind && bytes.Equal(v.MasterPub, o.MasterPub) && bytes.Equal(v.Sig, o.Sig)
}

// Verify checks the stamp against a set of trusted master keys.
func (v *VersionStamp) Verify(trustedMasters []cryptoutil.PublicKey) error {
	return (*sigCache)(nil).verifyStamp(v, trustedMasters, nil)
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
func DecodeStamp(r *wire.Reader) (VersionStamp, error) {
	v, err := decodeStamp(r)
	v.MasterPub, v.Sig = bytes.Clone(v.MasterPub), bytes.Clone(v.Sig)
	return v, err
}

// decodeStamp reads a stamp whose key and signature alias r's buffer.
func decodeStamp(r *wire.Reader) (VersionStamp, error) {
	var v VersionStamp
	v.Version = r.Uvarint()
	v.Timestamp = r.Time()
	d := r.BytesView()
	if len(d) == cryptoutil.DigestSize {
		copy(v.OpDigest[:], d)
	} else if r.Err() == nil {
		return v, fmt.Errorf("core: bad op digest length %d", len(d))
	}
	v.MasterPub = cryptoutil.PublicKey(r.BytesView())
	if v.Kind = r.Byte(); int(v.Kind) >= len(stampDomains) {
		return v, fmt.Errorf("core: unknown stamp kind %d", v.Kind)
	}
	v.Sig = r.BytesView()
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
// signature, and whoever relies on it verifies that (sigcache.go). No
// pledge travels whole. The s.read reply carries the stamp beside the
// payload, and Sig only when the client asked for it (else s.sign brings
// it later), and the client rebuilds the rest from what it already
// holds (Client.checkReply). The evidence frame (Encode) carries the
// signed statement and Sig and no other byte of the stamp: it decodes to
// a pledge whose Stamp has only Version set.
type Pledge struct {
	QueryBytes []byte // encoded query (the "copy of the request")
	ResultHash cryptoutil.Digest
	Stamp      VersionStamp
	SlavePub   cryptoutil.PublicKey
	Sig        []byte
}

// appendStatement appends the statement frame, what the slave states
// about the read: bytes query ‖ bytes result hash ‖ uvarint version. The
// signature covers it and the slave's key under a domain tag; the
// evidence frame is the three, the key and the signature.
func (p *Pledge) appendStatement(w *wire.Writer) {
	w.Bytes_(p.QueryBytes)
	w.Bytes_(p.ResultHash[:])
	w.Uvarint(p.Stamp.Version)
}

func (p *Pledge) appendSignedBytes(w *wire.Writer) {
	w.String_("pledge.v2")
	p.appendStatement(w)
	w.Bytes_(p.SlavePub)
}

// SignPledge builds and signs a pledge over (query, result hash, version).
func SignPledge(slave *cryptoutil.KeyPair, queryBytes []byte, resultHash cryptoutil.Digest, stamp VersionStamp) Pledge {
	p := Pledge{QueryBytes: queryBytes, ResultHash: resultHash, Stamp: stamp, SlavePub: slave.Public}
	(*sigCache)(nil).signPledge(&p, true, true, slave, nil)
	return p
}

// VerifySig checks the slave's signature on the pledge, which covers the
// carried stamp's version and nothing else of it. It is the one pledge
// verify, and no memo stands in front of it.
func (p *Pledge) VerifySig() error {
	if err := (*sigCache)(nil).verify(p.SlavePub, p.appendSignedBytes, p.Sig, nil); err != nil {
		return fmt.Errorf("%w: %v", ErrBadPledge, err)
	}
	return nil
}

// Encode appends the pledge's evidence frame to w: bytes query ‖ bytes
// result hash ‖ uvarint version ‖ bytes slave key ‖ bytes sig — what an
// evidence-form a.pledge body (one or more, back to back), m.report,
// bcExclude and pki.Exclusion.Evidence carry.
func (p *Pledge) Encode(w *wire.Writer) {
	p.appendStatement(w)
	w.Bytes_(p.SlavePub)
	w.Bytes_(p.Sig)
}

// EncodePledge serializes a pledge's evidence frame to a fresh, detached
// byte slice that the caller may retain.
func EncodePledge(p Pledge) []byte {
	return wire.EncodeFrame(p.Encode)
}

// DecodePledge reads an evidence frame from r. Every field is a copy, so
// the pledge outlives r's buffer; decodePledgeFrame takes views.
func DecodePledge(r *wire.Reader) (Pledge, error) {
	p, err := decodePledge(r)
	p.QueryBytes, p.SlavePub, p.Sig = bytes.Clone(p.QueryBytes), bytes.Clone(p.SlavePub), bytes.Clone(p.Sig)
	return p, err
}

// decodePledgeFrame decodes a frame that is exactly one evidence frame,
// without the copies: the query, key and signature alias frame, which the
// caller must own for as long as it keeps the pledge.
func decodePledgeFrame(frame []byte) (Pledge, error) {
	r := wire.NewReader(frame)
	p, err := decodePledge(r)
	if err != nil {
		return p, err
	}
	return p, r.Done()
}

// decodePledge reads an evidence frame whose query, key and signature
// alias r's buffer. Of the stamp only Version is set.
func decodePledge(r *wire.Reader) (Pledge, error) {
	p, err := decodeStatement(r)
	if err != nil {
		return p, err
	}
	return p, decodeEvidenceTail(r, &p)
}

// decodeEvidenceTail reads what an evidence frame carries after the
// statement, the slave's key and signature, into p as views of r's
// buffer.
func decodeEvidenceTail(r *wire.Reader, p *Pledge) error {
	p.SlavePub = cryptoutil.PublicKey(r.BytesView())
	p.Sig = r.BytesView()
	return r.Err()
}

// decodeStatement reads a statement frame whose query aliases r's
// buffer: a pledge with no key and no signature.
func decodeStatement(r *wire.Reader) (Pledge, error) {
	var p Pledge
	p.QueryBytes = r.BytesView()
	h := r.BytesView()
	if len(h) == cryptoutil.DigestSize {
		copy(p.ResultHash[:], h)
	} else if r.Err() == nil {
		return p, fmt.Errorf("core: bad result hash length %d", len(h))
	}
	p.Stamp.Version = r.Uvarint()
	return p, r.Err()
}

// CheckPledgeAgainst re-executes the pledged query on a replica that is
// at the pledge's content version and reports whether the pledge is a
// valid misbehaviour proof: signature valid but result hash wrong.
// It returns (proven, correctHash, error).
func CheckPledgeAgainst(replica *store.Store, p *Pledge) (bool, cryptoutil.Digest, error) {
	if err := p.VerifySig(); err != nil {
		return false, cryptoutil.Digest{}, err
	}
	if replica.Version() != p.Stamp.Version {
		return false, cryptoutil.Digest{}, fmt.Errorf(
			"core: replica at version %d cannot check pledge for version %d",
			replica.Version(), p.Stamp.Version)
	}
	proven, correct := p.contradictedBy(replica, nil)
	return proven, correct, nil
}

// contradictedBy re-executes the pledged query on replica, which the
// caller holds at the pledge's version, and reports whether the answer
// there contradicts the pledge, with the correct hash, priced on meter
// (executeQuery). It checks no signature. An execution error on a
// malformed query also contradicts it by an honest-executor standard: an
// honest slave would have returned the same error, not a signed result.
func (p *Pledge) contradictedBy(replica *store.Store, meter *cryptoutil.Meter) (bool, cryptoutil.Digest) {
	correct, ok := executeQuery(p.QueryBytes, replica, meter)
	if !ok {
		return true, cryptoutil.Digest{} // signed garbage or unexecutable query
	}
	return !correct.Equal(p.ResultHash), correct
}

// executeQuery runs an encoded query over content and returns the hash of
// its result, priced on meter as the scan plus the hash of the payload.
// ok is false, and nothing is charged, for a query that does not decode
// or execute. A re-execution that checks an answer — the master's of a
// reported pledge, the auditor's of an audited one — costs this much.
func executeQuery(queryBytes []byte, content *store.Store, meter *cryptoutil.Meter) (correct cryptoutil.Digest, ok bool) {
	q, err := query.Decode(queryBytes)
	if err != nil {
		return correct, false
	}
	res, err := q.Execute(content)
	if err != nil {
		return correct, false
	}
	meter.Exec(res.Scanned, false)
	meter.Hash(len(res.Payload))
	return res.Digest(), true
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
	wire.Borrow(ww.appendSignedBytes, func(b []byte) { ww.Sig = client.Sign(b) })
	return ww
}

// VerifySig checks the client's signature over the whole wave.
func (ww *WriteWave) VerifySig() (err error) {
	wire.Borrow(ww.appendSignedBytes, func(b []byte) { err = cryptoutil.Verify(ww.ClientPub, b, ww.Sig) })
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
