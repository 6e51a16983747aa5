package core

// State transfer (§3.5: bringing a replica "back to a safe state"): one
// request, one reply, one verifier. A slave that missed updates, a slave
// being (re)provisioned and a restarted master whose gap no broadcast
// archive can close all send m.sync and all read the reply through
// decodeStateTransfer, which hands nothing back until every signature and
// batch in it has checked out. It is also the one way a batch reaches a
// slave: the master announces the batch by its stamp on a keep-alive, and
// the slave fetches it here. A replica's one ingest, adoptTransferLocked,
// also takes a WAL record or the master's own commit as a transfer of one
// batch and a slave's keep-alive as a transfer of none, its stamp alone.
//
//	request  uvarint from — the first version wanted; 0 asks for everything
//	reply    mode byte ‖ [bytes snapshot ‖ stamp] ‖ uvarint n ‖
//	         n × (uvarint first ‖ uvarint k ‖ k × bytes op ‖ stamp) ‖
//	         uvarint anchor
//
// Mode 0 is batches only. Mode 1 is snapshot-first, sent when from is at
// or below the retained log's base: a store snapshot under a stamp whose
// digest is the hash of its bytes, then the batches committed after it. An
// honest master sends its current state, so no batches follow; the decoder
// still accepts and checks them. A durable master's snapshot file
// (durable.go) is a mode-1 reply too, read back by the same verifier.
// A batch travels in the one shape committed history has everywhere — the
// master's log entry and its WAL record — and is read by the one rule
// every replica applies to a batch (openBatch): one stamp and one hash per
// batch.
// The master logs whole batches, so a request from inside a batch gets
// all of it and the replica skips the ops it already holds (applyTo).
// The newest stamp in a reply — the last batch's, else the snapshot's —
// names the version the reply brings a replica to (stateTransfer.stamp),
// so no stamp of its own closes the reply. anchor is the broadcast slot
// of the newest batch inside the reply, where a recovering master resumes
// delivery (slaves ignore it).

import (
	"fmt"

	"repro/internal/cryptoutil"
	"repro/internal/rpc"
	"repro/internal/store"
	"repro/internal/wire"
)

const (
	syncModeBatches  byte = 0
	syncModeSnapshot byte = 1
)

// stateTransfer is a verified m.sync reply, or what a replica adopts as one.
type stateTransfer struct {
	snap      *store.Store // the decoded snapshot; nil in a batches-only reply
	snapBytes []byte       // the snapshot's encoding, a view of the reply body
	snapStamp VersionStamp
	batches   []openedBatch
	anchor    uint64
}

// encodeStateTransfer appends the reply to w; snap is nil for batches only.
func encodeStateTransfer(w *wire.Writer, snap *ckptSnapshot, batches []BatchUpdate, anchor uint64) {
	if snap == nil {
		w.Byte(syncModeBatches)
	} else {
		w.Byte(syncModeSnapshot)
		w.Bytes_(snap.bytes)
		snap.stamp.Encode(w)
	}
	w.Uvarint(uint64(len(batches)))
	for i := range batches {
		batches[i].appendEntry(w)
	}
	w.Uvarint(anchor)
}

// verifySnapshot checks a state snapshot against the stamp that travels
// with it: the stamp is signed by a trusted master, its digest is the hash
// of exactly these bytes, and the state they decode to is at the stamp's
// version. It prices the stamp check and the hash on m.
func verifySnapshot(snapBytes []byte, stamp *VersionStamp, trusted []cryptoutil.PublicKey, stamps *sigCache, m *cryptoutil.Meter) (st *store.Store, err error) {
	if err = stamps.verifyStamp(stamp, trusted, m); err != nil {
		return nil, err
	}
	m.Hash(len(snapBytes))
	if !stamp.AuthenticatesOp(snapBytes) {
		return nil, fmt.Errorf("%w: stamp does not authenticate the snapshot", ErrBadStamp)
	}
	if st, err = store.DecodeSnapshot(snapBytes); err != nil {
		return nil, err
	}
	if st.Version() != stamp.Version {
		return nil, fmt.Errorf("%w: snapshot at version %d under a stamp for %d", ErrBadStamp, st.Version(), stamp.Version)
	}
	return st, nil
}

// decodeStateTransfer parses an m.sync reply and verifies all of it
// against the trusted master keys before returning any of it: the
// snapshot (verifySnapshot), every batch by the one rule (openBatch), and
// that the batches are contiguous and the first continues the snapshot.
// An unknown mode byte, a batch count larger than the bytes that follow
// it and trailing bytes are refused. The checks are priced on m as they
// run. The snapshot's bytes and the batches' ops alias body, which the
// caller owns (a reply body or a file read) and must not reuse.
func decodeStateTransfer(body []byte, trusted []cryptoutil.PublicKey, stamps *sigCache, m *cryptoutil.Meter) (*stateTransfer, error) {
	st := new(stateTransfer)
	r := wire.NewReader(body)
	switch mode := r.Byte(); {
	case r.Err() != nil:
		return nil, r.Err()
	case mode == syncModeSnapshot:
		st.snapBytes = r.BytesView() // DecodeSnapshot copies every key and value out
		snapStamp, err := DecodeStamp(r)
		if err != nil {
			return nil, err
		}
		snap, err := verifySnapshot(st.snapBytes, &snapStamp, trusted, stamps, m)
		if err != nil {
			return nil, err
		}
		st.snap, st.snapStamp = snap, snapStamp
	case mode != syncModeBatches:
		return nil, fmt.Errorf("core: state transfer: unknown mode %d", mode)
	}
	n := r.Count()
	st.batches = make([]openedBatch, 0, n)
	for i := 0; i < n; i++ {
		b, err := openBatch(r, trusted, stamps, m)
		if err != nil {
			return nil, err
		}
		// Each batch starts right after the one before it, and the first
		// leaves no gap above the snapshot: applyTo would refuse the gap,
		// but only after the batches before it had applied.
		if i > 0 && b.First != st.batches[i-1].Last()+1 || i == 0 && st.snap != nil && b.First > st.snap.Version()+1 {
			return nil, fmt.Errorf("core: state transfer: batch %d..%d does not continue the history before it", b.First, b.Last())
		}
		st.batches = append(st.batches, b)
	}
	st.anchor = r.Uvarint()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return st, nil
}

// stamp is the newest stamp the transfer carries — its last batch's, else
// its snapshot's — which names the version the transfer brings a replica
// to. A reply with neither carries the zero stamp, which no slave adopts.
func (st *stateTransfer) stamp() VersionStamp {
	if n := len(st.batches); n > 0 {
		return st.batches[n-1].Stamp
	}
	return st.snapStamp
}

// fetchStateTransfer asks the master at addr for the history from version
// from on (0: everything) and returns the reply once all of it has verified
// against the trusted keys. What the checks took is charged on m as one
// job once the reply is read.
func fetchStateTransfer(dlr rpc.Dialer, addr string, from uint64, p Params, m *cryptoutil.Meter,
	trusted []cryptoutil.PublicKey, stamps *sigCache) (*stateTransfer, error) {
	req := wire.EncodeFrame(func(w *wire.Writer) { w.Uvarint(from) })
	body, err := dlr.CallTimeout(addr, MethodSync, req, p.ReadTimeout)
	if err != nil {
		return nil, err
	}
	tab := m.Tab()
	defer tab.Pay()
	return decodeStateTransfer(body, trusted, stamps, tab)
}

// replayOnto applies every batch to replica in order (applyTo) and
// returns how many ops it applied. Ops at or below the replica's version
// — under the snapshot, in the part of a batch the replica already holds,
// or applied by a transfer that raced this one — are skipped. done, if not
// nil, is called after each batch that advanced the replica.
func (st *stateTransfer) replayOnto(replica *store.Store, done func(*BatchUpdate)) (int, error) {
	n := 0
	for i := range st.batches {
		k, err := st.batches[i].applyTo(replica)
		n += k
		if err != nil {
			return n, err
		}
		if k > 0 && done != nil {
			done(&st.batches[i].BatchUpdate)
		}
	}
	return n, nil
}

// handleSync serves a state transfer (format at the top of this file).
// A request the retained log cannot answer batch by batch — from at or
// below baseVersion, which includes 0 — is served snapshot-first: the
// current state, encoded here and signed when the request arrives, with
// no batches after it. That is the only signature a reply costs: a
// batches-only reply carries the stamps its batches were committed under.
func (m *Master) handleSync(body []byte) ([]byte, error) {
	r := wire.NewReader(body)
	from := r.Uvarint()
	if err := r.Done(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.stats.SyncsServed++
	cur := m.store.Version()
	// The broadcast slot of the newest applied batch, captured in the same
	// critical section as cur: a recovering master that applies every
	// batch of this reply resumes delivery exactly at anchor+1.
	anchor := m.anchor
	var content *store.Store // the state to serve: an O(1) clone, encoded off the lock
	var batches []BatchUpdate
	if from <= m.baseVersion {
		m.stats.SnapshotSyncs++
		content = m.store.Clone()
	} else {
		for _, b := range m.log[m.logIndexLocked(from):] {
			batches = append(batches, b.BatchUpdate)
		}
	}
	m.mu.Unlock()

	// Encoding and signing happen off-lock: a charge can park the task.
	size := 1024
	var snap *ckptSnapshot
	if content != nil {
		snap = m.signSnapshot(&ckptSnapshot{version: cur, bytes: content.EncodeSnapshot()})
		m.meter.Reply()
		size += len(snap.bytes)
	}
	w := wire.NewWriter(size)
	encodeStateTransfer(w, snap, batches, anchor)
	return w.Bytes(), nil
}
