package core

// Durable master state (MasterConfig.DataDir): a write-ahead log of
// committed batches plus a checkpoint snapshot file, and the recovery
// path that replays them on start and rejoins the cluster.
//
// The write path appends a batch's record to the WAL after the batch is
// applied but strictly before any client is acked (applyBatch). The ack
// contract (PR 16): an acknowledged write is fsynced at the acknowledging
// master, held by every non-suspected member, applied by them
// concurrently (before: also applied and fsynced by each peer in turn).
// When it truncates its log (maybeTruncate), a durable master captures and
// signs a snapshot, writes it atomically and truncates the WAL below it
// (persistState); the snapshot is not kept in memory. On start,
// openDurable loads snapshot + WAL suffix, verifying this master's own
// stamps, and anchors broadcast delivery there; recoverGap closes the
// rest by broadcast fetch while peers still archive the missing slots,
// else by a wholesale state transfer (statetransfer.go).
//
// Both files hold committed history in the shape m.sync serves it, and
// are read by the same code. The snapshot file is an m.sync reply: a
// snapshot-first state transfer with no batches, under the snapshot's
// stamp, whose anchor is the broadcast slot the snapshot covers — written
// by encodeStateTransfer, read back by decodeStateTransfer under this
// master's key. A WAL record is the broadcast slot, then one batch entry
// under its batch stamp (a single write being a batch of one); replay
// opens it by the one rule every replica applies to a batch (openBatch)
// and adopts it as a one-batch transfer anchored at that slot
// (adoptTransferLocked), so a record that starts past the store fails
// like any gap.
//
// A file some earlier commit of this repository wrote in another shape is
// refused and the master does not start: a WAL record under a per-op
// stamp fails replay ("stamp is not a batch stamp"), one whose batch stamp
// signs any digest but BatchDigest — a merkle root, or the SHA-1 of the
// batch's bytes that BatchDigest was before it became truncated SHA-256 —
// fails it too ("ops do not hash to the stamp's batch digest"), and a
// snapshot file in the private "msnap.v1" format, one closed by a second
// copy of its stamp, or one whose stamp signs the SHA-1 of its bytes
// ("stamp does not authenticate the snapshot") fails decodeStateTransfer,
// and so does one whose store snapshot is in the "snap.v1" layout, every
// key whole (store.ErrSnapshotMagic). No data directory outlives a commit
// here, so nothing reads the old shapes.

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/broadcast"
	"repro/internal/cryptoutil"
	"repro/internal/wal"
	"repro/internal/wire"
)

func (m *Master) snapFilePath() string { return filepath.Join(m.cfg.DataDir, "snapshot") }
func (m *Master) walFilePath() string  { return filepath.Join(m.cfg.DataDir, "wal") }

// encodeWALRecord frames one committed batch for the WAL: the broadcast
// slot that carried it (the recovery anchor), then the batch entry — the
// first version it produced, the applied op bytes in order, and the
// signed stamp.
func encodeWALRecord(seq uint64, bu *BatchUpdate) []byte {
	return wire.EncodeFrame(func(w *wire.Writer) {
		w.Uvarint(seq)
		bu.appendEntry(w)
	})
}

// openDurable loads the master's data directory: the checkpoint snapshot
// file (if present) replaces the initial store, then the WAL records
// committed after it are replayed on top. Called from NewMaster before
// any RPC can arrive, so no locking is needed. Delivery resumes at the
// recovered anchor; Start's recoverGap closes whatever remains.
//
//lint:ignore lockcheck runs in NewMaster before any concurrency starts
func (m *Master) openDurable() error {
	if err := os.MkdirAll(m.cfg.DataDir, 0o755); err != nil {
		return err
	}
	if data, err := os.ReadFile(m.snapFilePath()); err == nil {
		st, err := decodeStateTransfer(data, []cryptoutil.PublicKey{m.cfg.Keys.Public}, nil, nil)
		if err == nil {
			_, err = m.adoptTransferLocked(st)
		}
		if err != nil {
			return fmt.Errorf("core: %s: %w", m.snapFilePath(), err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	l, recs, err := wal.Open(m.walFilePath())
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if err := m.replayWALRecord(rec); err != nil {
			l.Close()
			return fmt.Errorf("core: %s: %w", m.walFilePath(), err)
		}
	}
	m.wlog = l
	if m.anchor > 0 {
		m.bcast.ResumeAt(m.anchor)
	}
	return nil
}

// replayWALRecord applies one WAL record during openDurable: the record's
// batch, opened by the one rule under this master's key, is adopted as a
// one-batch state transfer anchored at the record's slot. A record the
// snapshot already covers applies nothing; one that starts past the store
// marks a damaged directory and fails loud (a silently skipped batch would
// fork this replica from the cluster).
//
//lint:ignore lockcheck called only from openDurable, before concurrency
func (m *Master) replayWALRecord(payload []byte) error {
	r := wire.NewReader(payload)
	seq := r.Uvarint()
	b, err := openBatch(r, []cryptoutil.PublicKey{m.cfg.Keys.Public}, nil, nil)
	if err != nil {
		return err
	}
	if err := r.Done(); err != nil {
		return err
	}
	applied, err := m.adoptTransferLocked(&stateTransfer{batches: []openedBatch{b}, anchor: seq})
	if applied > 0 {
		m.stats.WALReplayed++
	}
	return err
}

// persistState atomically replaces the snapshot file with the signed snap,
// anchored at broadcast slot anchor, and truncates the WAL, whose records
// are now redundant. If the snapshot write fails the WAL is left alone:
// the previous snapshot plus the intact WAL still reproduce the state.
func (m *Master) persistState(anchor uint64, snap *ckptSnapshot) {
	w := wire.NewWriter(len(snap.bytes) + 256)
	encodeStateTransfer(w, snap, nil, anchor)
	m.walMu.Lock()
	defer m.walMu.Unlock()
	if err := wal.WriteFileAtomic(m.snapFilePath(), w.Bytes()); err != nil {
		return
	}
	m.wlog.Rewrite(nil)
}

// adoptTransferLocked installs a verified state transfer — a peer's m.sync
// reply, this master's own snapshot file, one of its WAL records or the
// batch it has just committed (applyBatch): a snapshot ahead of the store
// replaces it and empties the log, the batches that continue the store
// are applied and logged under the transfer's anchor, and the recovery
// anchor moves up to it. It returns how many ops it applied. Caller holds
// m.mu (or runs before concurrency, in openDurable).
func (m *Master) adoptTransferLocked(st *stateTransfer) (int, error) {
	if st.snap != nil && st.snap.Version() > m.store.Version() {
		m.store = st.snap
		m.baseVersion = st.snap.Version()
		m.log = nil
	}
	applied, err := st.replayOnto(m.store, func(bu *BatchUpdate) { m.log = append(m.log, loggedBatch{BatchUpdate: *bu, seq: st.anchor}) })
	if err != nil {
		return applied, err
	}
	if st.anchor > m.anchor {
		m.anchor = st.anchor
	}
	return applied, nil
}

// recoverGap closes the gap between replayed durable state and the rest
// of the cluster, before the master's loops start. If a peer's broadcast
// archive still holds every slot above our anchor, normal fetch will
// close the gap and nothing needs doing. If truncation dropped those
// slots no fetch can ever succeed, so the master pulls a state transfer
// instead and resumes above its anchor.
func (m *Master) recoverGap() {
	delivered := m.bcast.Delivered()
	for attempt := 0; attempt < 3; attempt++ {
		for _, p := range m.cfg.Peers {
			if p == m.cfg.Addr || p == m.cfg.AuditorAddr {
				continue
			}
			body, err := m.dlr.CallTimeout(p, broadcast.MethodStatus, nil, m.cfg.Params.KeepAliveEvery)
			if err != nil {
				continue
			}
			r := wire.NewReader(body)
			maxSeq := r.Uvarint()
			floor := r.Uvarint()
			if r.Err() != nil {
				continue
			}
			if maxSeq <= delivered {
				continue // peer no further along than we are
			}
			if floor <= delivered+1 {
				return // archive intact: broadcast fetch closes the gap
			}
			if err := m.catchUpFrom(p); err == nil {
				return
			}
		}
	}
}

// catchUpFrom pulls a state transfer from a peer master and adopts the
// result wholesale: batches (or the peer's current state as a snapshot)
// verified against the owner-certified master keys exactly as a slave sync
// is, installed by adoptTransferLocked, then
// persisted, with broadcast delivery resumed at the anchor the peer
// captured with the reply — the slot each transferred batch is logged
// under, since this master's archive starts above it. Ordered messages in
// the skipped range that were not write batches — slave lists and
// membership changes — are not replayed; all are periodic or idempotent
// and re-converge through their own channels.
func (m *Master) catchUpFrom(peer string) error {
	masters, err := m.certifiedMasters()
	if err != nil {
		return err
	}
	m.mu.Lock()
	from := m.store.Version() + 1
	m.mu.Unlock()

	// No stamp memo: a catch-up is rare and verifies each stamp once.
	st, err := fetchStateTransfer(m.dlr, peer, from, m.cfg.Params, m.meter, subjects(masters), nil)
	if err != nil {
		return err
	}

	// The log keeps each batch's ops, which alias the reply.
	for i := range st.batches {
		st.batches[i].Ops = cloneOps(st.batches[i].Ops)
	}
	m.mu.Lock()
	if _, err := m.adoptTransferLocked(st); err != nil {
		m.mu.Unlock()
		return err
	}
	anchor := m.anchor
	persist := &ckptSnapshot{version: m.store.Version(), bytes: m.store.EncodeSnapshot()}
	m.stats.RecoverySyncs++
	m.mu.Unlock()

	m.persistState(anchor, m.signSnapshot(persist))
	m.bcast.ResumeAt(anchor)
	return nil
}
