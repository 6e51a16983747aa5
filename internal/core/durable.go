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
// When a stability checkpoint applies, the snapshot it captured is written
// atomically and the WAL below it is truncated (persistState). On start,
// openDurable loads snapshot + WAL suffix, verifying this master's own
// stamps, and anchors broadcast delivery there; recoverGap closes the
// rest by broadcast fetch while peers still archive the missing slots,
// else by a wholesale state transfer (statetransfer.go).
//
// Every WAL record is a batch under a batch stamp, a single write being a
// batch of one. A record some earlier commit of this repository wrote under
// a per-op stamp is refused at replay ("stamp is not a batch stamp") and
// the master does not start: no data directory outlives a commit here, so
// nothing reads the old shape.

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/broadcast"
	"repro/internal/cryptoutil"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/wire"
)

// snapFileMagic heads the checkpoint snapshot file; WAL records carry no
// per-record magic (the file itself is the namespace).
const snapFileMagic = "msnap.v1"

func (m *Master) snapFilePath() string { return filepath.Join(m.cfg.DataDir, "snapshot") }
func (m *Master) walFilePath() string  { return filepath.Join(m.cfg.DataDir, "wal") }

// encodeWALRecord frames one committed batch for the WAL: the broadcast
// slot that carried it (the recovery anchor), the first version it
// produced, the applied op bytes in order, and the signed stamp — enough
// to rebuild the OpRecords with their membership proofs on replay.
func encodeWALRecord(seq, first uint64, ops [][]byte, stamp VersionStamp) []byte {
	return wire.EncodeFrame(func(w *wire.Writer) {
		w.Uvarint(seq)
		w.Uvarint(first)
		w.BytesSlice(ops)
		stamp.Encode(w)
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
		if err := m.loadSnapshotFile(data); err != nil {
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
	if m.lastMark.seq > 0 {
		m.bcast.ResumeAt(m.lastMark.seq)
	}
	return nil
}

// loadSnapshotFile restores the store from the checkpoint snapshot file,
// verifying this master's own stamp over the snapshot bytes (the file is
// written by this master, so its own signature is the integrity check).
//
//lint:ignore lockcheck called only from openDurable, before concurrency
func (m *Master) loadSnapshotFile(data []byte) error {
	r := wire.NewReader(data)
	magic := r.String()
	if r.Err() != nil || magic != snapFileMagic {
		return fmt.Errorf("bad snapshot file header")
	}
	version := r.Uvarint()
	anchor := r.Uvarint()
	snapBytes := r.Bytes()
	stamp, err := DecodeStamp(r)
	if err != nil {
		return err
	}
	if err := r.Done(); err != nil {
		return err
	}
	st, _, err := verifySnapshot(snapBytes, &stamp, []cryptoutil.PublicKey{m.cfg.Keys.Public}, nil)
	if err != nil {
		return err
	}
	if st.Version() != version {
		return fmt.Errorf("snapshot version %d does not match header %d", st.Version(), version)
	}
	m.store = st
	m.baseVersion = version
	m.snap = &ckptSnapshot{version: version, bytes: snapBytes, stamp: stamp}
	m.lastMark = versionMark{version: version, seq: anchor}
	return nil
}

// replayWALRecord applies one WAL record during openDurable. Records the
// snapshot already covers are skipped; a record that neither continues
// the store nor is covered marks a damaged directory and fails loud (a
// silently skipped batch would fork this replica from the cluster).
//
//lint:ignore lockcheck called only from openDurable, before concurrency
func (m *Master) replayWALRecord(payload []byte) error {
	r := wire.NewReader(payload)
	seq := r.Uvarint()
	first := r.Uvarint()
	ops := r.BytesSlice()
	stamp, err := DecodeStamp(r)
	if err != nil {
		return err
	}
	if err := r.Done(); err != nil {
		return err
	}
	if len(ops) == 0 {
		return fmt.Errorf("wal record with no ops")
	}
	last := first + uint64(len(ops)) - 1
	cur := m.store.Version()
	if last <= cur {
		return nil // covered by the snapshot (crash between snapshot write and WAL truncation)
	}
	if first != cur+1 {
		return fmt.Errorf("wal record starts at version %d, store at %d", first, cur)
	}
	if err := stamp.Verify([]cryptoutil.PublicKey{m.cfg.Keys.Public}); err != nil {
		return err
	}
	bu := BatchUpdate{First: first, Ops: ops, Stamp: stamp}
	if err := bu.VerifyMembers(&m.batch); err != nil {
		return fmt.Errorf("wal records %d..%d: %w", first, last, err)
	}
	for i, ob := range ops {
		op, err := store.DecodeOp(ob)
		if err != nil {
			return err
		}
		if err := m.store.ApplyAt(first+uint64(i), op); err != nil {
			return err
		}
		m.loggedBytes += uint64(len(ob))
	}
	m.logBatchLocked(first, ops, stamp) // with the tree VerifyMembers just rebuilt
	if m.cfg.CheckpointEvery > 0 {
		m.marks = append(m.marks, versionMark{version: last, digest: m.store.StateDigest(), seq: seq})
	}
	m.lastMark = versionMark{version: last, seq: seq}
	m.stats.WALReplayed++
	return nil
}

// persistState atomically replaces the snapshot file with the state at
// (version, anchor) and truncates the WAL, whose records are now
// redundant. If the snapshot write fails the WAL is left alone: the
// previous snapshot plus the intact WAL still reproduce the state.
func (m *Master) persistState(version, anchor uint64, snapBytes []byte, stamp VersionStamp) {
	w := wire.NewWriter(len(snapBytes) + 256)
	w.String_(snapFileMagic)
	w.Uvarint(version)
	w.Uvarint(anchor)
	w.Bytes_(snapBytes)
	stamp.Encode(w)
	m.walMu.Lock()
	defer m.walMu.Unlock()
	if err := wal.WriteFileAtomic(m.snapFilePath(), w.Bytes()); err != nil {
		return
	}
	m.wlog.Rewrite(nil)
}

// refreshSnapshot signs a freshly captured state snapshot and installs
// it as the retained snapshot-first snapshot. Spawned from applyBatch
// when the op bytes logged since the retained snapshot exceed its size,
// so the OpRecord suffix a snapshot-first sync ships stays bounded by write volume,
// not by the time-based checkpoint cadence.
func (m *Master) refreshSnapshot(snap *ckptSnapshot) {
	chargeCPU(m.cfg.CPU, m.cfg.Params.Costs.Sign)
	chargeCPU(m.cfg.CPU, m.cfg.Params.Costs.HashCost(len(snap.bytes)))
	snap.stamp = SignStampWithOp(m.cfg.Keys, snap.version, m.rt.Now(), snap.bytes)
	m.mu.Lock()
	if m.snap != nil && snap.version > m.snap.version && snap.version >= m.baseVersion {
		m.snap = snap
		m.stats.SnapshotRefreshes++
	}
	m.snapRefresh = false
	m.mu.Unlock()
}

// walSyncLoop is the interval fsync policy (WALSyncEvery > 0): appended
// records reach the OS immediately but stable storage only once per
// interval, trading a bounded window of acked-but-lost writes on a
// crash for one fsync per interval instead of per batch.
func (m *Master) walSyncLoop() {
	for {
		if m.rt.Sleep(m.cfg.WALSyncEvery) != nil {
			return
		}
		m.mu.Lock()
		stopped := m.stopped
		m.mu.Unlock()
		if stopped {
			return
		}
		m.walMu.Lock()
		m.wlog.Sync()
		m.walMu.Unlock()
	}
}

// recoverGap closes the gap between replayed durable state and the rest
// of the cluster, before the master's loops start. If a peer's broadcast
// archive still holds every slot above our anchor, normal fetch will
// close the gap and nothing needs doing. If stability checkpoints
// truncated those slots no fetch can ever succeed, so the master pulls a
// state transfer instead and resumes above its anchor.
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
// result wholesale: records (or snapshot + records) verified against the
// directory's master keys exactly as a slave sync is, then persisted,
// with broadcast delivery resumed at the anchor the peer captured with
// the reply. Ordered messages in the skipped range that were not write
// batches — slave lists, checkpoints, membership changes — are not
// replayed; all are periodic or idempotent and re-converge through
// their own channels.
func (m *Master) catchUpFrom(peer string) error {
	masters, err := m.cfg.Directory.VerifiedMasters()
	if err != nil {
		return err
	}
	pubs := make([]cryptoutil.PublicKey, 0, len(masters))
	for _, c := range masters {
		pubs = append(pubs, c.Subject)
	}
	m.mu.Lock()
	from := m.store.Version() + 1
	m.mu.Unlock()

	st, err := fetchStateTransfer(m.dlr, peer, from, m.cfg.Params, m.cfg.CPU, pubs, m.stamps)
	if err != nil {
		return err
	}

	m.mu.Lock()
	if st.snap != nil && st.snap.Version() > m.store.Version() {
		m.store = st.snap
		m.baseVersion = st.snap.Version()
		m.log = nil
		m.marks = nil
		m.snap = &ckptSnapshot{version: st.snap.Version(), bytes: st.snapBytes, stamp: st.snapStamp, logged: m.loggedBytes}
	}
	applied, err := st.replayOnto(m.store)
	m.log = append(m.log, applied...)
	for _, rec := range applied {
		m.loggedBytes += uint64(len(rec.OpBytes))
	}
	if err != nil {
		m.mu.Unlock()
		return err
	}
	anchor := st.anchor
	cur := m.store.Version()
	if m.cfg.CheckpointEvery > 0 && cur > m.baseVersion {
		m.marks = append(m.marks, versionMark{version: cur, digest: m.store.StateDigest(), seq: anchor})
	}
	if anchor > m.lastMark.seq {
		m.lastMark = versionMark{version: cur, seq: anchor}
	}
	anchor = m.lastMark.seq
	persistBytes := m.store.EncodeSnapshot()
	m.stats.RecoverySyncs++
	m.mu.Unlock()

	chargeCPU(m.cfg.CPU, m.cfg.Params.Costs.Sign)
	chargeCPU(m.cfg.CPU, m.cfg.Params.Costs.HashCost(len(persistBytes)))
	stamp := SignStampWithOp(m.cfg.Keys, cur, m.rt.Now(), persistBytes)
	m.persistState(cur, anchor, persistBytes, stamp)
	m.bcast.ResumeAt(anchor)
	return nil
}
