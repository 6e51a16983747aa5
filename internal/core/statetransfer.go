package core

// State transfer (§3.5: bringing a replica "back to a safe state"): one
// request, one reply, one verifier. A slave that missed updates, a slave
// being (re)provisioned and a restarted master whose gap no broadcast
// archive can close all send m.sync and all read the reply through
// decodeStateTransfer, which hands nothing back until every signature and
// batch in it has checked out.
//
//	request  uvarint from — the first version wanted; 0 asks for everything
//	reply    mode byte ‖ [bytes snapshot ‖ stamp] ‖ uvarint n ‖
//	         n × (uvarint first ‖ uvarint k ‖ k × bytes op ‖ stamp) ‖
//	         closing stamp ‖ uvarint anchor
//
// Mode 0 is batches only. Mode 1 is snapshot-first, sent when from is at
// or below the retained log's base: a store snapshot under a stamp whose
// digest is the hash of its bytes, then the batches committed after it. An
// honest master sends its current state, so no batches follow; the decoder
// still accepts and checks them. A durable master's snapshot file
// (durable.go) is a mode-1 reply too, read back by the same verifier.
// A batch travels in the one shape committed history has everywhere — the
// master's log entry and WAL record, an s.updatebatch frame without the
// master address — and is checked the way a slave checks a pushed one
// (BatchUpdate.VerifyMembers): one stamp per batch, no membership proofs.
// The master logs whole batches, so a request from inside a batch gets
// all of it and the replica skips the ops it already holds. The closing
// stamp certifies the version the reply brings a replica to; anchor is the
// broadcast slot of the newest batch inside the reply, where a recovering
// master resumes delivery (slaves ignore it).

import (
	"fmt"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

const (
	syncModeBatches  byte = 0
	syncModeSnapshot byte = 1
)

// stateTransfer is a decoded and verified m.sync reply.
type stateTransfer struct {
	snap      *store.Store // the decoded snapshot; nil in a batches-only reply
	snapBytes []byte
	snapStamp VersionStamp
	batches   []BatchUpdate
	ops       [][]store.Op // ops[i][j] is batches[i].Ops[j] decoded
	closing   VersionStamp
	anchor    uint64

	sigHits, sigMisses int // stamp signatures found in the memo / checked in full
}

// encodeStateTransfer appends the reply to w; snap is nil for batches only.
func encodeStateTransfer(w *wire.Writer, snap *ckptSnapshot, batches []BatchUpdate, closing VersionStamp, anchor uint64) {
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
	closing.Encode(w)
	w.Uvarint(anchor)
}

// verifySnapshot checks a state snapshot against the stamp that travels
// with it: the stamp is signed by a trusted master, its digest is the hash
// of exactly these bytes, and the state they decode to is at the stamp's
// version.
func verifySnapshot(snapBytes []byte, stamp *VersionStamp, trusted []cryptoutil.PublicKey, stamps *sigCache) (st *store.Store, hit bool, err error) {
	if hit, err = stamps.verifyStamp(stamp, trusted); err != nil {
		return nil, false, err
	}
	if !stamp.AuthenticatesOp(snapBytes) {
		return nil, false, fmt.Errorf("%w: stamp does not authenticate the snapshot", ErrBadStamp)
	}
	if st, err = store.DecodeSnapshot(snapBytes); err != nil {
		return nil, false, err
	}
	if st.Version() != stamp.Version {
		return nil, false, fmt.Errorf("%w: snapshot at version %d under a stamp for %d", ErrBadStamp, st.Version(), stamp.Version)
	}
	return st, hit, nil
}

// decodeStateTransfer parses an m.sync reply and verifies all of it
// against the trusted master keys before returning any of it: the
// snapshot (verifySnapshot); every batch's stamp and its ops against the
// stamp's root (VerifyMembers), that the batches are contiguous and the
// first continues the snapshot, and that every op decodes; and the
// closing stamp. An unknown mode byte, a batch count larger than the
// bytes that follow it and trailing bytes are refused.
func decodeStateTransfer(body []byte, trusted []cryptoutil.PublicKey, stamps *sigCache) (*stateTransfer, error) {
	st := new(stateTransfer)
	count := func(hit bool) {
		if hit {
			st.sigHits++
		} else {
			st.sigMisses++
		}
	}
	r := wire.NewReader(body)
	switch mode := r.Byte(); {
	case r.Err() != nil:
		return nil, r.Err()
	case mode == syncModeSnapshot:
		st.snapBytes = r.Bytes()
		snapStamp, err := DecodeStamp(r)
		if err != nil {
			return nil, err
		}
		snap, hit, err := verifySnapshot(st.snapBytes, &snapStamp, trusted, stamps)
		if err != nil {
			return nil, err
		}
		count(hit)
		st.snap, st.snapStamp = snap, snapStamp
	case mode != syncModeBatches:
		return nil, fmt.Errorf("core: state transfer: unknown mode %d", mode)
	}
	n := r.Count()
	st.batches = make([]BatchUpdate, 0, n)
	st.ops = make([][]store.Op, 0, n)
	var sc batchScratch
	for i := 0; i < n; i++ {
		bu, err := decodeBatchEntry(r, (*wire.Reader).BytesSlice)
		if err != nil {
			return nil, err
		}
		hit, err := stamps.verifyStamp(&bu.Stamp, trusted)
		if err != nil {
			return nil, err
		}
		count(hit)
		if err := bu.VerifyMembers(&sc); err != nil {
			return nil, err
		}
		// Each batch starts right after the one before it, and the first
		// leaves no gap above the snapshot: replay skips what it cannot
		// continue, so a gap would pass as a transfer that applied nothing.
		if i > 0 && bu.First != st.batches[i-1].Last()+1 || i == 0 && st.snap != nil && bu.First > st.snap.Version()+1 {
			return nil, fmt.Errorf("core: state transfer: batch %d..%d does not continue the history before it", bu.First, bu.Last())
		}
		ops := make([]store.Op, len(bu.Ops))
		for j, b := range bu.Ops {
			if ops[j], err = store.DecodeOp(b); err != nil {
				return nil, err
			}
		}
		st.batches = append(st.batches, bu)
		st.ops = append(st.ops, ops)
	}
	closing, err := DecodeStamp(r)
	if err != nil {
		return nil, err
	}
	hit, err := stamps.verifyStamp(&closing, trusted)
	if err != nil {
		return nil, err
	}
	count(hit)
	st.closing = closing
	st.anchor = r.Uvarint()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return st, nil
}

// fetchStateTransfer asks the master at addr for the history from version
// from on (0: everything) and returns the reply once all of it has verified
// against the trusted keys, charging cpu the modelled cost of that: the
// signature checks, the memo lookups that replaced one, the snapshot hash.
func fetchStateTransfer(dlr rpc.Dialer, addr string, from uint64, p Params, cpu *sim.Resource,
	trusted []cryptoutil.PublicKey, stamps *sigCache) (*stateTransfer, error) {
	req := wire.EncodeFrame(func(w *wire.Writer) { w.Uvarint(from) })
	body, err := dlr.CallTimeout(addr, MethodSync, req, p.ReadTimeout)
	if err != nil {
		return nil, err
	}
	st, err := decodeStateTransfer(body, trusted, stamps)
	if err != nil {
		return nil, err
	}
	chargeCPU(cpu, time.Duration(st.sigMisses)*p.Costs.VerifySig+
		time.Duration(st.sigHits)*p.Costs.CacheLookup+
		p.Costs.HashCost(len(st.snapBytes)))
	return st, nil
}

// replayOnto applies to replica the ops that continue it, batch by batch,
// and returns how many it applied. Ops at or below the replica's version
// — under the snapshot, in the part of a batch the replica already holds,
// or applied by a push that raced the transfer — are skipped. done, if not
// nil, is called after each batch that advanced the replica.
func (st *stateTransfer) replayOnto(replica *store.Store, done func(*BatchUpdate)) (int, error) {
	n := 0
	for i := range st.batches {
		bu, before := &st.batches[i], n
		for j, op := range st.ops[i] {
			v := bu.First + uint64(j)
			if v != replica.Version()+1 {
				continue
			}
			if err := replica.ApplyAt(v, op); err != nil {
				return n, err
			}
			n++
		}
		if n > before && done != nil {
			done(bu)
		}
	}
	return n, nil
}

// handleSync serves a state transfer (format at the top of this file).
// A request the retained log cannot answer batch by batch — from at or
// below baseVersion, which includes 0 — is served snapshot-first: the
// current state, encoded here and signed when the request arrives, with
// no batches after it.
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
	anchor := m.lastMark.seq
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

	// Encoding and signing happen off-lock: chargeCPU can park the task.
	size := 1024
	var snap *ckptSnapshot
	if content != nil {
		snap = m.signSnapshot(&ckptSnapshot{version: cur, bytes: content.EncodeSnapshot()})
		chargeCPU(m.cfg.CPU, m.cfg.Params.Costs.SendReply)
		size += len(snap.bytes)
	}
	w := wire.NewWriter(size)
	encodeStateTransfer(w, snap, batches, SignStamp(m.cfg.Keys, cur, m.rt.Now()), anchor)
	return w.Bytes(), nil
}
