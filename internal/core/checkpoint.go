package core

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// Stability-driven checkpointing (cf. PBFT-style stability checkpoints).
//
// The master signs every state update and keeps the evidence — signed
// batches in its log, ordered messages in the broadcast archive — so
// untrusted slaves can sync and auditors can check. Without truncation
// both grow linearly with total writes. Checkpointing bounds them: slaves
// piggyback their applied version on every keep-alive and update
// acknowledgement; on a CheckpointEvery cadence each master computes the
// stable version V (the minimum over its live, recently-heard-from
// slaves) and broadcasts a signed Checkpoint through the ordered master
// channel. On delivery, every master advances its baseVersion toward V —
// always to the end of a batch, since the log holds whole batches — and
// truncates its op log and the broadcast archive below it. A slave whose
// sync request predates the new base gets the master's current state,
// encoded and signed when it asks (handleSync), instead of replayed
// history that no longer exists. Nothing is kept for that: a snapshot
// exists only while one reply or one durable file needs it.
//
// The lagging-slave policy: a slave that has not acknowledged anything
// within CheckpointMaxLag stops gating stability (otherwise one silent
// slave would pin the whole history in memory forever). When it comes
// back it finds its needed history truncated and recovers through the
// snapshot-first sync path — strictly an efficiency trade, never a
// correctness one, because the snapshot is authenticated by a master
// stamp exactly like every replayed op.

// Checkpoint is the signed stability record a master broadcasts when it
// advances the stable version: at Version the replicated store's state
// digest was Digest, and every live slave of the initiating master had
// acknowledged applying Version. Auditors can hold the master to this
// digest; masters use it to truncate history below Version.
type Checkpoint struct {
	Version   uint64
	Digest    cryptoutil.Digest
	Initiator string // address of the proposing master
	MasterPub cryptoutil.PublicKey
	At        time.Time
	Sig       []byte
}

func (c *Checkpoint) appendSignedBytes(w *wire.Writer) {
	w.String_("ckpt.v1")
	w.Uvarint(c.Version)
	w.Bytes_(c.Digest[:])
	w.String_(c.Initiator)
	w.Bytes_(c.MasterPub)
	w.Time(c.At)
}

// SignCheckpoint builds and signs a checkpoint record.
func SignCheckpoint(master *cryptoutil.KeyPair, initiator string, version uint64, digest cryptoutil.Digest, at time.Time) Checkpoint {
	c := Checkpoint{
		Version: version, Digest: digest,
		Initiator: initiator, MasterPub: master.Public, At: at,
	}
	w := wire.GetWriter()
	c.appendSignedBytes(w)
	c.Sig = master.Sign(w.Bytes())
	wire.PutWriter(w)
	return c
}

// Verify checks the checkpoint signature against trusted master keys.
func (c *Checkpoint) Verify(trustedMasters []cryptoutil.PublicKey) error {
	for _, pub := range trustedMasters {
		if bytes.Equal(pub, c.MasterPub) {
			w := wire.GetWriter()
			c.appendSignedBytes(w)
			err := cryptoutil.Verify(c.MasterPub, w.Bytes(), c.Sig)
			wire.PutWriter(w)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrBadStamp, err)
			}
			return nil
		}
	}
	return fmt.Errorf("%w: unknown master key", ErrBadStamp)
}

// Encode appends the checkpoint to w.
func (c *Checkpoint) Encode(w *wire.Writer) {
	w.Uvarint(c.Version)
	w.Bytes_(c.Digest[:])
	w.String_(c.Initiator)
	w.Bytes_(c.MasterPub)
	w.Time(c.At)
	w.Bytes_(c.Sig)
}

// DecodeCheckpoint reads a checkpoint from r.
func DecodeCheckpoint(r *wire.Reader) (Checkpoint, error) {
	var c Checkpoint
	c.Version = r.Uvarint()
	d := r.Bytes()
	if len(d) == cryptoutil.DigestSize {
		copy(c.Digest[:], d)
	} else if r.Err() == nil {
		return c, fmt.Errorf("core: bad checkpoint digest length %d", len(d))
	}
	c.Initiator = r.String()
	c.MasterPub = cryptoutil.PublicKey(r.Bytes())
	c.At = r.Time()
	c.Sig = r.Bytes()
	return c, r.Err()
}

// slaveAck is the stability bookkeeping for one slave: the newest version
// it acknowledged applying and when the acknowledgement arrived.
type slaveAck struct {
	version uint64
	at      time.Time
}

// versionMark pairs a content version with the broadcast sequence number
// that carried it: a master's recovery anchor, and the auditor's index
// for archive truncation.
type versionMark struct {
	version uint64
	seq     uint64
}

// pruneMarks splits a mark index at stability version v: it returns the
// broadcast-archive floor (one past the seq of the newest mark at or
// below v; 0 if none) and the marks above v, reallocated so the dropped
// prefix is released.
func pruneMarks(marks []versionMark, v uint64) (floor uint64, rest []versionMark) {
	keep := 0
	for i, mk := range marks {
		if mk.version > v {
			break
		}
		floor = mk.seq + 1
		keep = i + 1
	}
	return floor, append([]versionMark(nil), marks[keep:]...)
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
// signed here: for a snapshot-first sync, at a durable checkpoint, after
// a catch-up.
func (m *Master) signSnapshot(snap *ckptSnapshot) *ckptSnapshot {
	chargeCPU(m.cfg.CPU, m.cfg.Params.Costs.Sign)
	chargeCPU(m.cfg.CPU, m.cfg.Params.Costs.HashCost(len(snap.bytes)))
	snap.stamp = SignStampWithOp(m.cfg.Keys, snap.version, m.rt.Now(), snap.bytes)
	return snap
}

// recordAck notes a slave's acknowledged version (piggybacked on its
// keep-alive and update replies). A reply from a slave no longer in the
// set (excluded while the RPC was in flight) is dropped, so exclusion
// cannot leak ack entries.
func (m *Master) recordAck(addr string, version uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	member := false
	for _, sl := range m.slaves {
		if sl.addr == addr {
			member = true
			break
		}
	}
	if !member {
		return
	}
	// Clamp to the committed version: slaves are untrusted, and an ack
	// for a version this master never committed is a fabrication. Left
	// unclamped it would sit in the ack table until the store caught up
	// and then enter the stability minimum, letting a lying slave
	// pre-acknowledge history it has not applied.
	if cur := m.store.Version(); version > cur {
		version = cur
	}
	a := m.acks[addr]
	if version > a.version {
		a.version = version
	}
	a.at = m.rt.Now()
	m.acks[addr] = a
}

// parseAck decodes the version a slave piggybacks on its reply body; it
// tolerates empty bodies (a slave predating the ack protocol).
func parseAck(body []byte) (uint64, bool) {
	if len(body) == 0 {
		return 0, false
	}
	r := wire.NewReader(body)
	v := r.Uvarint()
	if r.Done() != nil {
		return 0, false
	}
	return v, true
}

// stableVersionLocked computes the stability point over this master's own
// slave set: the minimum acknowledged version among live slaves. A slave
// stops gating stability when it is silent past CheckpointMaxLag OR when
// its acked version trails the store by more than maxAckBehind versions —
// slaves are untrusted, so one that keeps cheerfully acking an ancient
// version must not be able to pin the whole history in memory (it
// recovers via snapshot-first sync, like a silent one). With no live
// slaves the whole history is trivially stable. Caller holds m.mu.
func (m *Master) stableVersionLocked(now time.Time) uint64 {
	cur := m.store.Version()
	stable := cur
	maxBehind := m.maxAckBehind()
	for _, sl := range m.slaves {
		a, ok := m.acks[sl.addr]
		if !ok || now.Sub(a.at) > m.cfg.CheckpointMaxLag {
			continue
		}
		if cur-a.version > maxBehind {
			continue
		}
		if a.version < stable {
			stable = a.version
		}
	}
	return stable
}

// maxAckBehind is the version-lag bound past which an acking slave stops
// gating stability. Gating a slave that is further behind than the
// retain window can keep is only worth it up to a point; beyond 8x the
// window the slave takes the snapshot path regardless.
func (m *Master) maxAckBehind() uint64 {
	return 8 * uint64(m.cfg.CheckpointMinRetain)
}

// checkpointLoop periodically proposes a stability checkpoint through the
// ordered broadcast. Runs only when CheckpointEvery > 0.
func (m *Master) checkpointLoop() {
	for {
		if m.rt.Sleep(m.cfg.CheckpointEvery) != nil {
			return
		}
		m.mu.Lock()
		if m.stopped {
			m.mu.Unlock()
			return
		}
		stable := m.stableVersionLocked(m.rt.Now())
		// Propose the end of the newest logged batch at or below the
		// stable version: the log records the state digest there, so the
		// checkpoint can bind version to digest.
		var version uint64
		var digest cryptoutil.Digest
		if k := m.logIndexLocked(stable + 1); k > 0 {
			version, digest = m.log[k-1].Last(), m.log[k-1].digest
		}
		base := m.baseVersion
		m.mu.Unlock()
		if version == 0 || version <= base {
			continue // nothing new became stable
		}
		chargeCPU(m.cfg.CPU, m.cfg.Params.Costs.Sign)
		ck := SignCheckpoint(m.cfg.Keys, m.cfg.Addr, version, digest, m.rt.Now())
		w := wire.NewWriter(256)
		w.Byte(bcCheckpoint)
		ck.Encode(w)
		if err := m.bcast.Broadcast(w.Bytes()); err == nil {
			m.mu.Lock()
			m.stats.CheckpointsProposed++
			m.mu.Unlock()
		}
	}
}

// applyCheckpoint executes a delivered checkpoint on every master: record
// it and truncate the op log and the broadcast archive at the local
// truncation point. That point is the end of the newest logged batch at
// or below the delivered checkpoint's version capped by this master's own
// stability (its slaves may lag the initiator's) and by the retain window,
// so slightly-behind slaves keep the cheap batch-replay path and the log
// keeps CheckpointMinRetain ops plus at most one batch. seq is the
// checkpoint's own delivery slot: a durable master captures a snapshot,
// persists it anchored there (every batch at or below seq is inside it)
// and truncates its write-ahead log; it keeps nothing in memory.
func (m *Master) applyCheckpoint(seq uint64, r *wire.Reader) {
	ck, err := DecodeCheckpoint(r)
	if err != nil {
		return
	}
	// Authenticate the initiator before acting: MethodSubmit does not
	// authenticate its caller, so a checkpoint must carry a signature
	// from a directory-certified master to truncate anything.
	masters, err := m.certifiedMasters()
	if err != nil {
		return
	}
	chargeCPU(m.cfg.CPU, m.cfg.Params.Costs.VerifySig)
	if ck.Verify(subjects(masters)) != nil {
		return
	}
	m.mu.Lock()
	if ck.Version > m.checkpoint.Version {
		m.checkpoint = ck
	}
	cur := m.store.Version()
	t := ck.Version
	if local := m.stableVersionLocked(m.rt.Now()); local < t {
		t = local
	}
	retain := uint64(m.cfg.CheckpointMinRetain)
	if cur <= retain {
		m.mu.Unlock()
		return
	}
	if cur-retain < t {
		t = cur - retain
	}
	k := m.logIndexLocked(t + 1) // the batches that end at or below t
	if k == 0 {
		m.mu.Unlock()
		return
	}

	// A durable master captures the state it persists before truncating:
	// ordered delivery means every master would capture the identical
	// state here.
	var snap *ckptSnapshot
	if m.wlog != nil {
		snap = &ckptSnapshot{version: cur, bytes: m.store.EncodeSnapshot()}
	}
	for _, b := range m.log[:k] {
		m.stats.OpsTruncated += uint64(len(b.Ops))
	}
	// Broadcast-archive floor: one past the slot of the newest truncated
	// batch; everything below it is stable history.
	floor := m.log[k-1].seq + 1
	m.baseVersion = m.log[k-1].Last()
	m.log = append([]loggedBatch(nil), m.log[k:]...)
	m.stats.CheckpointsApplied++
	m.mu.Unlock()

	// The snapshot captures every batch delivered at or below this
	// checkpoint's own slot, so persist it anchored there and drop the
	// now-redundant WAL records. Delivery is serialized, so no batch can
	// commit between the capture above and this write.
	if snap != nil {
		m.persistState(seq, m.signSnapshot(snap))
	}
	m.bcast.TruncateBelow(floor)
}

// LastCheckpoint returns the most recent checkpoint this master recorded
// and whether one exists.
func (m *Master) LastCheckpoint() (Checkpoint, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.checkpoint, m.checkpoint.Sig != nil
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
