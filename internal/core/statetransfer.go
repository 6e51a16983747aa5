package core

// State transfer (§3.5: bringing a replica "back to a safe state"): one
// request, one reply, one verifier. A slave that missed updates, a slave
// being (re)provisioned and a restarted master whose gap no broadcast
// archive can close all send m.sync and all read the reply through
// decodeStateTransfer, which hands nothing back until every signature and
// binding in it has checked out.
//
//	request  uvarint from — the first version wanted; 0 asks for everything
//	reply    mode byte ‖ [bytes snapshot ‖ stamp] ‖ uvarint n ‖ n × OpRecord
//	         ‖ closing stamp ‖ uvarint anchor
//
// Mode 0 is records only. Mode 1 is snapshot-first, sent when from is at
// or below the retained log's base: a store snapshot under a stamp
// whose digest is the hash of its bytes, then the records committed after
// it. The closing stamp certifies the version the reply brings a replica
// to; anchor is the broadcast slot of the newest batch inside the reply,
// where a recovering master resumes delivery (slaves ignore it).

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
	syncModeRecords  byte = 0
	syncModeSnapshot byte = 1
)

// stateTransfer is a decoded and verified m.sync reply.
type stateTransfer struct {
	snap      *store.Store // the decoded snapshot; nil in a records-only reply
	snapBytes []byte
	snapStamp VersionStamp
	recs      []OpRecord
	ops       []store.Op // ops[i] is recs[i].OpBytes decoded
	closing   VersionStamp
	anchor    uint64

	sigHits, sigMisses int // stamp signatures found in the memo / checked in full
}

// encodeStateTransfer appends the reply to w; snap is nil for records only.
func encodeStateTransfer(w *wire.Writer, snap *ckptSnapshot, recs []OpRecord, closing VersionStamp, anchor uint64) {
	if snap == nil {
		w.Byte(syncModeRecords)
	} else {
		w.Byte(syncModeSnapshot)
		w.Bytes_(snap.bytes)
		snap.stamp.Encode(w)
	}
	w.Uvarint(uint64(len(recs)))
	for i := range recs {
		recs[i].Encode(w)
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
// snapshot (verifySnapshot), every record's stamp — records of one batch
// share a stamp, so the memo checks each distinct signature once — and
// its binding to that stamp by membership proof, that every op decodes,
// and the closing stamp. An unknown mode byte, a record count larger than
// the bytes that follow it and trailing bytes are refused.
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
	case mode != syncModeRecords:
		return nil, fmt.Errorf("core: state transfer: unknown mode %d", mode)
	}
	n := r.Count()
	st.recs = make([]OpRecord, 0, n)
	st.ops = make([]store.Op, 0, n)
	for i := 0; i < n; i++ {
		rec, err := DecodeOpRecord(r)
		if err != nil {
			return nil, err
		}
		hit, err := stamps.verifyStamp(&rec.Stamp, trusted)
		if err != nil {
			return nil, err
		}
		count(hit)
		if err := rec.VerifyBinding(); err != nil {
			return nil, err
		}
		op, err := store.DecodeOp(rec.OpBytes)
		if err != nil {
			return nil, err
		}
		st.recs = append(st.recs, rec)
		st.ops = append(st.ops, op)
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

// replayOnto applies to replica the records that continue it, in order,
// and returns them. Records at or below the replica's version (under the
// snapshot, or applied by a push that raced the transfer) are skipped.
func (st *stateTransfer) replayOnto(replica *store.Store) ([]OpRecord, error) {
	var applied []OpRecord
	for i, rec := range st.recs {
		if rec.Version != replica.Version()+1 {
			continue
		}
		if err := replica.ApplyAt(rec.Version, st.ops[i]); err != nil {
			return applied, err
		}
		applied = append(applied, rec)
	}
	return applied, nil
}

// handleSync serves a state transfer (format at the top of this file).
// A request the retained log cannot answer record by record — from at or
// below baseVersion, which includes 0 — is served snapshot-first: the
// retained checkpoint snapshot and the records after it or, when none is
// retained (or a checkpoint just truncated past it and its replacement is
// still being signed), the current state under a stamp signed here.
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
	// record of this reply resumes delivery exactly at anchor+1.
	anchor := m.lastMark.seq
	var snap *ckptSnapshot
	var inline []byte
	if from <= m.baseVersion {
		m.stats.SnapshotSyncs++
		if snap = m.snap; snap == nil || snap.version < m.baseVersion {
			snap, inline = nil, m.store.EncodeSnapshot()
			from = cur + 1 // the state itself: no records follow it
		} else {
			from = snap.version + 1 // >= baseVersion+1: inside the retained log
		}
	}
	var recs []OpRecord
	if cur >= from {
		recs = append(recs, m.log[from-m.baseVersion-1:cur-m.baseVersion]...)
	}
	m.mu.Unlock()

	// Signing happens off-lock: chargeCPU can park the task (simulation).
	if inline != nil {
		chargeCPU(m.cfg.CPU, m.cfg.Params.Costs.Sign)
		chargeCPU(m.cfg.CPU, m.cfg.Params.Costs.HashCost(len(inline)))
		snap = &ckptSnapshot{version: cur, bytes: inline, stamp: SignStampWithOp(m.cfg.Keys, cur, m.rt.Now(), inline)}
	}
	size := 1024
	if snap != nil {
		chargeCPU(m.cfg.CPU, m.cfg.Params.Costs.SendReply)
		size += len(snap.bytes)
	}
	w := wire.NewWriter(size)
	encodeStateTransfer(w, snap, recs, SignStamp(m.cfg.Keys, cur, m.rt.Now()), anchor)
	return w.Bytes(), nil
}
