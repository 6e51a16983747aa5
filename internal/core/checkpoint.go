package core

import (
	"time"

	"repro/internal/store"
	"repro/internal/wire"
)

// Stability-driven truncation.
//
// The master signs every state update and keeps the evidence — signed
// batches in its log, ordered messages in the broadcast archive — so
// untrusted slaves can sync and auditors can check. Without truncation
// both grow linearly with total writes. Slaves piggyback their applied
// version on every keep-alive and update acknowledgement, which the
// master keeps in the slave's own entry of its slave set (recordAck), and
// each master decides alone, on its delivery path, how much history its
// own slaves still need: at most once per CheckpointEvery, maybeTruncate
// computes the stable version (the minimum over its live,
// recently-heard-from slaves), cuts the log at the end of the newest batch
// at or below it — keeping checkpointMinRetain ops — and drops the
// broadcast archive below that batch's slot. Masters are trusted (§3), so
// no master needs another's word for this, and nothing is signed or
// broadcast. A slave whose sync request predates the new base gets the
// master's current state, encoded and signed when it asks (handleSync),
// instead of replayed history that no longer exists. Nothing is kept for
// that: a snapshot exists only while one reply or one durable file needs
// it.
//
// The lagging-slave policy: a slave that has not acknowledged anything
// within checkpointMaxLag keep-alive intervals stops gating stability
// (otherwise one silent slave would pin the whole history in memory
// forever). When it comes back it finds its needed history truncated and
// recovers through the snapshot-first sync path — strictly an efficiency
// trade, never a correctness one, because the snapshot is authenticated
// by a master stamp exactly like every replayed op.

// The retain window and the lag bounds are constants: nothing needs
// different values, and every master of a group should decide alike.
const (
	// checkpointMinRetain is the number of recent ops a truncation always
	// keeps below the current version, so slightly-behind slaves sync by
	// batch replay instead of snapshot transfer. The log holds whole
	// batches, so it keeps up to one batch more.
	checkpointMinRetain = 64
	// maxAckBehind is the version lag past which an acking slave stops
	// gating stability. Gating a slave that is further behind than the
	// retain window can keep is only worth it up to a point; beyond 8x the
	// window the slave takes the snapshot path regardless.
	maxAckBehind = 8 * checkpointMinRetain
	// checkpointMaxLag, in keep-alive intervals, is how long a slave may
	// stay silent before it stops gating stability; a slave silent longer
	// recovers via snapshot-first sync.
	checkpointMaxLag = 4
)

// slaveAck is the stability bookkeeping for one slave: the newest version
// it acknowledged applying and when the acknowledgement arrived.
type slaveAck struct {
	version uint64
	at      time.Time
}

// ckptSnapshot is an encoded store state at version, authenticated by a
// master's stamp: the head of a snapshot-first m.sync reply, and of the
// durable snapshot file, which is one such reply.
type ckptSnapshot struct {
	version uint64
	bytes   []byte
	stamp   VersionStamp
}

// signSnapshot signs the stamp that authenticates snap — its digest is
// the hash of the snapshot bytes — charging the signature and the hash,
// and returns snap. Every snapshot this master serves or persists is
// signed here: for a snapshot-first sync, at a durable truncation, after
// a catch-up.
func (m *Master) signSnapshot(snap *ckptSnapshot) *ckptSnapshot {
	m.meter.Sign()
	m.meter.Hash(len(snap.bytes))
	snap.stamp = SignStampWithOp(m.cfg.Keys, snap.version, m.rt.Now(), snap.bytes)
	return snap
}

// recordAck notes a slave's acknowledged version (piggybacked on its
// keep-alive and update replies) in its entry of the slave set. A reply
// from a slave no longer in the set (excluded while the RPC was in
// flight) has no entry and is dropped.
func (m *Master) recordAck(addr string, version uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.slaveIndexLocked(addr)
	if i < 0 {
		return
	}
	// Clamp to the committed version: slaves are untrusted, and an ack
	// for a version this master never committed is a fabrication. Left
	// unclamped it would sit in the ack table until the store caught up
	// and then enter the stability minimum, letting a lying slave
	// pre-acknowledge history it has not applied.
	a := &m.slaves[i].ack
	a.version = max(a.version, min(version, m.store.Version()))
	a.at = m.rt.Now()
}

// parseAck decodes the version a slave piggybacks on its reply body.
func parseAck(body []byte) (uint64, bool) {
	r := wire.NewReader(body)
	v := r.Uvarint()
	if r.Done() != nil {
		return 0, false
	}
	return v, true
}

// stableVersionLocked computes the stability point over this master's own
// slave set: the minimum acknowledged version among live slaves. A slave
// stops gating stability when it is silent past checkpointMaxLag keep-alive
// intervals OR when its acked version trails the store by more than
// maxAckBehind versions — slaves are untrusted, so one that keeps
// cheerfully acking an ancient version must not be able to pin the whole
// history in memory (it recovers via snapshot-first sync, like a silent
// one). With no live slaves the whole history is trivially stable. Caller
// holds m.mu.
func (m *Master) stableVersionLocked(now time.Time) uint64 {
	cur := m.store.Version()
	stable := cur
	maxLag := checkpointMaxLag * m.cfg.Params.KeepAliveEvery
	for _, sl := range m.slaves {
		if a := sl.ack; now.Sub(a.at) <= maxLag && cur-a.version <= maxAckBehind {
			stable = min(stable, a.version)
		}
	}
	return stable
}

// maybeTruncate ends every delivery of a message other than a write batch
// (deliver defers it, so it runs after the message is applied): a durable
// master's truncation encodes, signs and fsyncs a snapshot, which after a
// batch would compete with that batch's acknowledgements. Every master
// broadcasts its slave list every four keep-alive intervals, busy or idle,
// so truncation is never later than that.
//
// At most once per CheckpointEvery it cuts the op log at the end of the
// newest logged batch at or below min(stable version, current −
// checkpointMinRetain), so slightly-behind slaves keep the cheap
// batch-replay path, and drops the broadcast archive below that batch's
// slot. seq is the slot just delivered: a durable master persists a
// snapshot anchored there (every batch at or below seq is inside it) and
// truncates its write-ahead log. This runs on the delivery drainer, so no
// batch can be applied, nor its WAL record appended, between the capture
// and the rewrite.
func (m *Master) maybeTruncate(seq uint64) {
	if m.cfg.CheckpointEvery <= 0 {
		return
	}
	m.mu.Lock()
	now := m.rt.Now()
	if now.Sub(m.lastTruncate) < m.cfg.CheckpointEvery {
		m.mu.Unlock()
		return
	}
	m.lastTruncate = now
	cur := m.store.Version()
	k := 0 // the batches that end at or below the cut
	if cur > checkpointMinRetain {
		k = m.logIndexLocked(min(m.stableVersionLocked(now), cur-checkpointMinRetain) + 1)
	}
	if k == 0 {
		m.mu.Unlock()
		return
	}

	var content *store.Store // the state to persist: an O(1) clone, encoded off the lock
	if m.wlog != nil {
		content = m.store.Clone()
	}
	for _, b := range m.log[:k] {
		m.stats.OpsTruncated += uint64(len(b.Ops))
	}
	floor := m.log[k-1].seq + 1
	m.baseVersion = m.log[k-1].Last()
	m.log = append([]loggedBatch(nil), m.log[k:]...)
	m.stats.CheckpointsApplied++
	m.mu.Unlock()

	if content != nil {
		m.persistState(seq, m.signSnapshot(&ckptSnapshot{version: cur, bytes: content.EncodeSnapshot()}))
	}
	m.bcast.TruncateBelow(floor)
}

// BaseVersion returns the lowest version boundary of the retained op log:
// sync requests at or below it are served snapshot-first.
func (m *Master) BaseVersion() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.baseVersion
}

// RetainedOps returns the number of ops currently held in the master's
// log (bounded by checkpointing, else grows with total writes).
func (m *Master) RetainedOps() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, b := range m.log {
		n += len(b.Ops)
	}
	return n
}

// RetainedOpBytes returns the op payload bytes resident in the log.
func (m *Master) RetainedOpBytes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, b := range m.log {
		for _, op := range b.Ops {
			n += len(op)
		}
	}
	return n
}

// ArchiveLen returns the retained entry count of this master's broadcast
// archive.
func (m *Master) ArchiveLen() int { return m.bcast.ArchiveLen() }

// ArchiveBytes returns the retained bytes of this master's broadcast
// archive.
func (m *Master) ArchiveBytes() int { return m.bcast.ArchiveBytes() }
