package core

// Frozen shims (ROADMAP item 1). The real-clock benchmark under bench/ is
// frozen (BENCHMARK.json names it as its own path), and it still names
// everything in this file; no node sends, accepts or reads any of it. The file goes, with the
// three fields that point here (BatchUpdate.Proofs, which ledger.go sets;
// MasterStats.SnapshotRefreshes, which metrics.go reads;
// MasterConfig.BatchAdaptive, which deploy.go sets), when item 1 unfreezes
// bench/:
//
//   - bench/replbench/instrument.go names the five method constants, and
//     bench/replbench/metrics.go MethodUpdateBatch too;
//   - bench/replbench/ledger.go times WriteRequest, SignWrite and
//     DecodeWriteRequest, and builds a batch's merkle leaves, tree and
//     proofs to time merkle.Verify and BatchUpdate.Verify. Batch stamps
//     sign BatchDigest, not a merkle root, so that ledger row times a
//     verify that fails at its last check, at the cost of a passing one.

import (
	"strconv"

	"repro/internal/cryptoutil"
	"repro/internal/merkle"
	"repro/internal/store"
	"repro/internal/wire"
)

// No node routes these: a write is a wave of one (m.writemulti), a batch
// reaches a slave as a keep-alive naming its stamp and an m.sync fetching
// it, a bootstrap is an m.sync from version 0, a K-slave read's pledges
// one a.pledge body.
const (
	MethodWrite       = "m.write"
	MethodUpdate      = "s.update"
	MethodUpdateBatch = "s.updatebatch"
	MethodSnapshot    = "m.snapshot"
	MethodPledgeMulti = "a.pledgemulti"
)

// frozenProofs is the type of BatchUpdate.Proofs, which only the ledger
// sets and reads.
type frozenProofs = []merkle.Proof

// BatchLeaf is the merkle leaf the ledger builds for opBytes at version.
func BatchLeaf(version uint64, opBytes []byte) merkle.Entry {
	key := append(make([]byte, 0, 21), 'v')
	return merkle.Entry{Key: string(strconv.AppendUint(key, version, 10)), Value: opBytes}
}

// AppendBatchLeaves appends the leaves of ops committed at first, first+1,
// … to dst.
func AppendBatchLeaves(dst []merkle.Entry, first uint64, ops [][]byte) []merkle.Entry {
	for i, op := range ops {
		dst = append(dst, BatchLeaf(first+uint64(i), op))
	}
	return dst
}

// BatchTree builds the merkle tree over those leaves.
func BatchTree(first uint64, ops [][]byte) *merkle.Tree {
	return merkle.Build(AppendBatchLeaves(nil, first, ops))
}

// Verify checks the stamp signature, then the batch against it
// (VerifyMembers).
func (bu *BatchUpdate) Verify(trustedMasters []cryptoutil.PublicKey) error {
	if err := bu.Stamp.Verify(trustedMasters); err != nil {
		return err
	}
	return bu.VerifyMembers()
}

// WriteRequest is a client-signed request for a single write. Client.Write
// sends a WriteWave of one op instead.
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
	wire.Borrow(wr.appendSignedBytes, func(b []byte) { wr.Sig = client.Sign(b) })
	return wr
}

// VerifySig checks the client's signature.
func (wr *WriteRequest) VerifySig() (err error) {
	wire.Borrow(wr.appendSignedBytes, func(b []byte) { err = cryptoutil.Verify(wr.ClientPub, b, wr.Sig) })
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
