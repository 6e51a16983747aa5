package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/broadcast"
	"repro/internal/cryptoutil"
	"repro/internal/pki"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Ordered-message kinds carried by the master broadcast (§3.1 writes plus
// the membership traffic the paper describes: periodic slave lists and
// redistribution after a master crash, and system-wide slave exclusion).
const (
	_ byte = iota + 1 // 1 was bcWrite (single-write frame); the tag stays reserved
	bcSlaveList
	bcAdopt
	bcExclude
	bcReadmit
	bcBatch // batched writes: one frame, one signature, many versions
	_       // 7 was bcCheckpoint (signed stability record); the tag stays reserved
)

// MasterStats counts a master's activity.
type MasterStats struct {
	WritesAdmitted   uint64
	WritesApplied    uint64
	BatchesApplied   uint64 // batched commits (each = one signature)
	BatchFlushFull   uint64 // batches flushed because they reached BatchSize
	BatchFlushTimer  uint64 // batches flushed by the BatchTimeout timer
	WritePacingWaits uint64 // batches delayed by the max_latency spacing rule
	DoubleChecks     uint64
	DoubleChecksDrop uint64 // dropped due to greedy-client throttling
	SensitiveReads   uint64
	Reports          uint64
	Exclusions       uint64
	SyncsServed      uint64
	SnapshotSyncs    uint64 // syncs served snapshot-first (below baseVersion)
	KeepAlivesSent   uint64 // periodic, join and batch announces alike
	ClientsNotified  uint64
	SlavesAdopted    uint64

	CheckpointsApplied uint64 // truncations of the log and broadcast archive
	OpsTruncated       uint64 // ops dropped from the log (in whole batches) after stability

	WALReplayed   uint64 // batches replayed from the WAL at start
	RecoverySyncs uint64 // wholesale catch-up syncs performed at start
	// SnapshotRefreshes is always zero: a master retains no snapshot to
	// refresh. A frozen shim: bench/replbench/metrics.go still reads it
	// (frozen.go).
	SnapshotRefreshes uint64

	WrongShardRejects uint64 // writes rejected because the key is outside Shard
	DirectoryErrors   uint64 // directory RPCs that failed (record kept local)
	ExclusionsRefused uint64 // bcExclude frames ignored: no certified master signed them, or they did not decode
	BatchesDisplaced  uint64 // own batches whose broadcast came back with other ops (a forged b.submit took the slot); their waves were answered 0
}

// MasterConfig configures a master server.
type MasterConfig struct {
	Addr   string
	Keys   *cryptoutil.KeyPair
	Params Params
	// ContentKey is the content owner's public key (names the content).
	ContentKey cryptoutil.PublicKey
	// Peers is the full master set in priority order; must be identical
	// on every master. The auditor's address may appear as the last
	// entry so it receives ordered writes (see AuditorConfig).
	Peers []string
	// AuditorAddr identifies the auditor member (excluded from slave
	// assignment and trusted as a report source).
	AuditorAddr string
	// AuditorPub authenticates reports from the auditor.
	AuditorPub cryptoutil.PublicKey
	// ACL is the write access policy.
	ACL *ACL
	// Directory is the public directory bound to this content.
	Directory DirectoryService
	// Shard is the key range this master's group owns in a sharded
	// deployment. Writes addressing keys outside it are rejected at
	// admission with a wrong-shard error carrying this range, so clients
	// with a stale shard table re-resolve and retry. The zero value is
	// the full keyspace (unsharded), which changes nothing.
	Shard wire.ShardRef
	// CPU, if non-nil, charges modelled service times (simulation).
	CPU *sim.Resource
	// Seed drives throttling randomness.
	Seed int64
	// BatchSize is the op count that closes a batched commit (one
	// signature, one broadcast, one slave update): the batch takes the
	// queued waves up to the first that brings it to BatchSize ops or
	// more. A wave is never split, so one larger than BatchSize commits
	// in a batch of its own size. <=1 disables accumulation: every wave
	// commits alone, as a batch of its own.
	BatchSize int
	// BatchTimeout bounds how long the first wave in a batch waits for
	// company before a short batch is flushed anyway (0 = MaxLatency/4).
	// Irrelevant when BatchSize <= 1.
	BatchTimeout time.Duration
	// BatchAdaptive is ignored: a short batch always flushes BatchTimeout
	// after its first wave. A frozen shim: bench/replbench/deploy.go still
	// sets it (frozen.go).
	BatchAdaptive bool
	// CheckpointEvery is the truncation cadence: at most this often, after
	// delivering a message other than a write batch, the master computes
	// the stable version over its own slaves' acks and truncates history
	// below it. 0 disables truncation (the op log and broadcast archive
	// then grow with total writes).
	CheckpointEvery time.Duration
	// DataDir, when non-empty, makes the master durable: every committed
	// batch is appended to a write-ahead log under this directory before
	// clients are acked, and each truncation atomically writes a snapshot
	// file and truncates the log below the stable point. On start the
	// directory is loaded — snapshot, then WAL suffix — so a
	// restarted master resumes from its pre-crash state and rejoins the
	// broadcast instead of being reprovisioned. Every batch is fsynced
	// before its writers are acked, so an acked write survives a crash.
	// Empty (the default) keeps the master pure in-memory.
	DataDir string
}

// slaveEntry is one slave of this master's set: the certificate this
// master issued it — its address and key — and the newest version it
// acknowledged, which the stable point is computed over.
type slaveEntry struct {
	cert pki.Certificate
	ack  slaveAck
}

type clientEntry struct {
	addr      string
	pub       cryptoutil.PublicKey
	slaveAddr string
}

// Master is a trusted server: it orders writes through the master-set
// broadcast, executes them, sends keep-alives to its slave set — each
// batch announced by its own stamp — answers double-checks, polices
// greedy clients, verifies misbehaviour reports and excludes slaves
// proven malicious (§3).
type Master struct {
	cfg MasterConfig
	rt  sim.Runtime
	dlr rpc.Dialer
	rng *rand.Rand

	bcast    *broadcast.Member
	meter    *cryptoutil.Meter
	addrHash cryptoutil.Digest // addrDigest(cfg.Addr): what each keep-alive stamp it signs binds

	mu          sync.Mutex
	store       *store.Store                 // guarded by mu
	baseVersion uint64                       // guarded by mu; floor of the retained log (initial version, then the last version of a truncated batch)
	log         []loggedBatch                // guarded by mu; the committed batches above baseVersion, in order
	anchor      uint64                       // guarded by mu; broadcast slot of the newest applied batch (the recovery anchor)
	lastCommit  time.Time                    // guarded by mu
	nextWriteAt time.Time                    // guarded by mu
	batchQueue  []queuedWave                 // guarded by mu; admitted waves awaiting the next flush
	queuedOps   int                          // guarded by mu; ops the queued waves hold together
	batchGen    uint64                       // guarded by mu; flush generation (dedups timer flushes)
	slaves      []slaveEntry                 // guarded by mu; this master's slave set, one entry per address (joinLocked)
	clients     map[string]*clientEntry      // guarded by mu; key: client pub
	peerSlaves  map[string][]pki.Certificate // guarded by mu; other masters' slave sets
	adopted     map[string]bool              // guarded by mu; dead masters already redistributed
	excluded    map[string]bool              // guarded by mu; excluded slave pubs
	rrNext      int                          // guarded by mu; round-robin cursor for assignment
	stats       MasterStats                  // guarded by mu
	memo        resultMemo                   // guarded by mu; answers to expensive double-checked queries at the store's version
	started     bool                         // guarded by mu; startLoops has run: AddSlave stamps what joins (stampJoined)
	stopped     bool                         // guarded by mu

	// When maybeTruncate last looked at the log. NewMaster sets it, so the
	// first truncation comes one CheckpointEvery after start.
	lastTruncate time.Time // guarded by mu

	// Durable state (DataDir set; see durable.go). walMu serializes the
	// log file operations — the delivery drainer appends and syncs,
	// truncation and catch-up rewrite, Stop syncs.
	walMu   sync.Mutex
	wlog    *wal.Log     // write-ahead log (nil without DataDir)
	walHook func(uint64) // test hook: after WAL append+sync, before acks

	greedy *greedyTracker
}

// NewMaster creates a master over an initial content replica (cloned).
// Call Start to launch its background loops.
func NewMaster(cfg MasterConfig, rt sim.Runtime, dlr rpc.Dialer, initial *store.Store) (*Master, error) {
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 1
	}
	if cfg.BatchTimeout <= 0 {
		cfg.BatchTimeout = cfg.Params.MaxLatency / 4
	}
	m := &Master{
		cfg:          cfg,
		rt:           rt,
		dlr:          dlr,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		store:        initial.Clone(),
		baseVersion:  initial.Version(),
		clients:      make(map[string]*clientEntry),
		peerSlaves:   make(map[string][]pki.Certificate),
		adopted:      make(map[string]bool),
		excluded:     make(map[string]bool),
		lastTruncate: rt.Now(),
		greedy:       newGreedyTracker(cfg.Params),
		meter:        cryptoutil.NewMeter(cfg.CPU, cfg.Params.Costs),
		addrHash:     addrDigest(cfg.Addr),
	}
	bm, err := broadcast.New(broadcast.Config{
		Self:           cfg.Addr,
		Peers:          cfg.Peers,
		Deliver:        m.deliver,
		CallTimeout:    cfg.Params.KeepAliveEvery,
		HeartbeatEvery: cfg.Params.KeepAliveEvery,
		TakeoverAfter:  3 * cfg.Params.KeepAliveEvery,
	}, rt, dlr)
	if err != nil {
		return nil, err
	}
	m.bcast = bm
	if cfg.DataDir != "" {
		if err := m.openDurable(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Start launches the broadcast member and the master's periodic loops. A
// durable master first closes any gap between its replayed state and the
// cluster (recoverGap), so a restart whose history was truncated rejoins
// through snapshot-first sync instead of stalling on unfetchable slots.
func (m *Master) Start() {
	if m.wlog != nil {
		m.rt.Spawn(func() {
			m.recoverGap()
			m.startLoops()
		})
		return
	}
	m.startLoops()
}

// startLoops starts the broadcast member, then the keep-alives (at once,
// then every KeepAliveEvery: a slave serves only under a stamp, so the
// first goes out now, not one interval late), the slave-list broadcast and
// the crash monitor (every four intervals, as often as slave lists arrive;
// both wait out their first interval, as a crash check at start would see
// no acks). A durable master runs them after recoverGap, so its first
// stamp names the state it rejoined at.
func (m *Master) startLoops() {
	m.mu.Lock()
	m.started = true
	m.mu.Unlock()
	m.bcast.Start()
	ka := m.cfg.Params.KeepAliveEvery
	keepAlive := func() { m.sendKeepAlives(m.slaveCerts()) }
	m.rt.Spawn(func() {
		if m.running() {
			keepAlive()
			m.every(ka, keepAlive)
		}
	})
	m.rt.Spawn(func() { m.every(4*ka, m.broadcastSlaveList) })
	m.rt.Spawn(func() { m.every(4*ka, m.redistributeCrashed) })
}

// every calls f once per interval until the runtime or the master stops.
func (m *Master) every(interval time.Duration, f func()) {
	for m.rt.Sleep(interval) == nil && m.running() {
		f()
	}
}

// running reports whether Stop has not been called.
func (m *Master) running() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.stopped
}

// Stop halts the master's loops and syncs the write-ahead log. A master
// killed without Stop loses at most the torn tail of its WAL, which
// recovery truncates away.
func (m *Master) Stop() {
	m.mu.Lock()
	m.stopped = true
	m.mu.Unlock()
	m.bcast.Stop()
	m.walMu.Lock()
	if m.wlog != nil {
		m.wlog.Sync()
	}
	m.walMu.Unlock()
}

// Stats returns a snapshot of the master's counters.
func (m *Master) Stats() MasterStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Version returns the master replica's content version.
func (m *Master) Version() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.store.Version()
}

// StateDigest exposes the replica digest for convergence checks.
func (m *Master) StateDigest() cryptoutil.Digest {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.store.StateDigest()
}

// Addr returns the master's address.
func (m *Master) Addr() string { return m.cfg.Addr }

// PublicKey returns the master's public key.
func (m *Master) PublicKey() cryptoutil.PublicKey { return m.cfg.Keys.Public }

// AddSlave places a slave under this master's control and issues its
// certificate (§2: "each master keeps track of the contact addresses and
// public keys of the slaves it has been assigned"). An address the set
// already holds is left as it is. A slave added to a running master is
// stamped at once (stampJoined); one added before Start is stamped by the
// keep-alive loop's first round, which reads the set after started is set.
func (m *Master) AddSlave(addr string, pub cryptoutil.PublicKey) {
	cert := m.slaveCert(addr, pub)
	m.mu.Lock()
	stamp := m.joinLocked(cert) && m.started
	m.mu.Unlock()
	if stamp {
		m.stampJoined([]pki.Certificate{cert})
	}
}

// slaveCert issues the certificate of the slave at addr under this
// master's key, dated now.
func (m *Master) slaveCert(addr string, pub cryptoutil.PublicKey) pki.Certificate {
	cert := pki.Certificate{Role: pki.RoleSlave, Addr: addr, Subject: pub, IssuedAt: m.rt.Now()}
	cert.Sign(m.cfg.Keys)
	return cert
}

// joinLocked is the one way into the slave set — AddSlave, a readmission
// and an adoption — and reports whether cert joined: an address the set
// already holds is refused, so no slave is announced to, kept alive or
// assigned twice. A fresh slave gates stability until its first ack (or
// until it has been silent for checkpointMaxLag keep-alive intervals).
// Each caller passes what joined to stampJoined once it has unlocked.
// Caller holds m.mu.
func (m *Master) joinLocked(cert pki.Certificate) bool {
	if m.slaveIndexLocked(cert.Addr) >= 0 {
		return false
	}
	m.slaves = append(m.slaves, slaveEntry{cert: cert, ack: slaveAck{at: m.rt.Now()}})
	return true
}

// stampJoined sends a keep-alive at once to slaves that have just joined
// a running master's set — by AddSlave, a readmission or an adoption — so
// they serve from now (§3.1: a slave answers only under a fresh stamp),
// not one KeepAliveEvery later; the stamp also names this master as their
// sync source. Readmissions and adoptions are deliveries, so the master
// runs; AddSlave calls it only once Start has run.
func (m *Master) stampJoined(joined []pki.Certificate) {
	if len(joined) > 0 {
		m.rt.Spawn(func() { m.sendKeepAlives(joined) })
	}
}

// slaveIndexLocked is the index of the slave at addr in the set, -1 if it
// holds none. An index is good only while m.mu stays held: an exclusion
// shrinks the set. Caller holds m.mu.
func (m *Master) slaveIndexLocked(addr string) int {
	return slices.IndexFunc(m.slaves, func(e slaveEntry) bool { return e.cert.Addr == addr })
}

// slaveCerts copies the certificates of the slave set, in order.
func (m *Master) slaveCerts() []pki.Certificate {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.slaveCertsLocked()
}

// slaveCertsLocked is slaveCerts for a caller that holds m.mu.
func (m *Master) slaveCertsLocked() []pki.Certificate {
	certs := make([]pki.Certificate, len(m.slaves))
	for i, e := range m.slaves {
		certs[i] = e.cert
	}
	return certs
}

// SlaveCount returns the number of live slaves in this master's set.
func (m *Master) SlaveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.slaves)
}

// Handle routes the master's RPC methods (including broadcast traffic).
func (m *Master) Handle(from, method string, body []byte) ([]byte, error) {
	switch method {
	case broadcast.MethodSubmit, broadcast.MethodCommit, broadcast.MethodFetch,
		broadcast.MethodStatus, broadcast.MethodHello:
		return m.bcast.Handle(from, method, body)
	case MethodWriteMulti:
		return m.handleWriteMulti(body)
	case MethodGetSlave:
		return m.handleGetSlave(body)
	case MethodCheck:
		return m.handleCheck(body)
	case MethodReport:
		return m.handleReport(from, body)
	case MethodSync:
		return m.handleSync(body)
	}
	return nil, fmt.Errorf("core: master: unknown method %q", method)
}

// --- Write path ----------------------------------------------------------
//
// Writes flow through a batched, pipelined commit path whose unit is the
// client's wave. handleWriteMulti admits a wave (signature + ACL, once),
// queues it whole and waits on it once; the batch flushes at the first
// wave that brings it to BatchSize ops or more, or when BatchTimeout
// elapses, whichever first. One flush produces one ordered broadcast, one
// batch-stamp signature, and one announce per slave — amortizing the
// dominant per-write signing cost (§3.4) across every member of the
// batch while preserving the exact version sequence and store digest
// that sequential commits would produce. No wave is ever split across
// batches, so each commits whole, at contiguous versions, or not at all.

// queuedWave is one admitted wave awaiting its flush or its delivery; the
// client's key and signature are read at admission and never again.
type queuedWave struct {
	ops [][]byte
	h   commitHandle
}

// admitOp performs the per-op half of admission: op decodability
// (rejected here so a batch never carries an undecodable op) and the
// shard-range check.
func (m *Master) admitOp(opBytes []byte) error {
	if err := store.ValidateOp(opBytes); err != nil {
		return fmt.Errorf("%w: %v", ErrDenied, err)
	}
	if !m.cfg.Shard.IsFull() {
		key, err := store.OpKey(opBytes)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrDenied, err)
		}
		if !m.cfg.Shard.Contains(key) {
			m.mu.Lock()
			m.stats.WrongShardRejects++
			m.mu.Unlock()
			return wrongShardError(m.cfg.Shard)
		}
	}
	return nil
}

// admitWave decodes one m.writemulti frame (WriteWave) and admits or
// refuses it as a whole: the one client signature and the ACL once, then
// every op's validation and shard check.
func (m *Master) admitWave(body []byte) ([][]byte, error) {
	ww, err := DecodeWriteWave(body)
	if err != nil {
		return nil, err
	}
	if len(ww.Ops) == 0 {
		return nil, fmt.Errorf("core: empty write wave")
	}
	// What grows with the wave is the hashing of the signed body.
	m.meter.Hash(len(body))
	m.meter.Verify()
	if ww.VerifySig() != nil {
		return nil, fmt.Errorf("%w: bad signature", ErrDenied)
	}
	if m.cfg.ACL != nil && !m.cfg.ACL.Permits(ww.ClientPub) {
		return nil, ErrDenied
	}
	for i, op := range ww.Ops {
		if err := m.admitOp(op); err != nil {
			return nil, fmt.Errorf("wave op %d: %w", i, err)
		}
	}
	return ww.Ops, nil
}

// handleWriteMulti commits a wave of writes under one client signature
// and one round trip. The admitted wave is queued once and waited on
// once; the reply is the version of its first op — the rest follow it
// contiguously — or 0 when the wave did not commit.
func (m *Master) handleWriteMulti(body []byte) ([]byte, error) {
	ops, err := m.admitWave(body)
	if err != nil {
		return nil, err
	}
	h := m.newCommitHandle()
	m.enqueueWave(queuedWave{ops: ops, h: h})
	first := m.awaitCommit(h)
	return wire.EncodeFrame(func(w *wire.Writer) { w.Uvarint(first) }), nil
}

// enqueueWave adds an admitted wave to the accumulator and flushes if
// that brings the batch to BatchSize ops or more. A short batch is
// flushed by a timer after BatchTimeout; with BatchSize <= 1 every wave
// flushes at once, as a batch of its own.
//
// The timer is armed when the queue goes from empty to non-empty and
// carries that batch's generation; flushBatch ignores a generation that
// has already flushed, so a timer that lost the race to a full flush does
// nothing and never cuts the next batch short (visible as E15's
// BatchFlushTimer column). A flush that fails resolves the wave, so the
// caller's wait reports it.
func (m *Master) enqueueWave(w queuedWave) {
	m.mu.Lock()
	m.stats.WritesAdmitted += uint64(len(w.ops))
	armTimer := len(m.batchQueue) == 0
	m.batchQueue = append(m.batchQueue, w)
	m.queuedOps += len(w.ops)
	full := m.queuedOps >= m.cfg.BatchSize
	gen := m.batchGen
	m.mu.Unlock()

	if full {
		m.flushBatch(gen, false)
	} else if armTimer {
		m.rt.Spawn(func() {
			if m.rt.Sleep(m.cfg.BatchTimeout) == nil {
				m.flushBatch(gen, true)
			}
		})
	}
}

// flushBatch takes the accumulated batch (if gen still names it), paces
// it by the §3.1 spacing rule — one max_latency slot per commit event,
// which a batch is — and submits it to the ordered broadcast, which hands
// the waves back to deliver with the batch's slot. If either step fails,
// every wave of the batch is answered as not committed.
func (m *Master) flushBatch(gen uint64, byTimer bool) {
	m.mu.Lock()
	if m.batchGen != gen || len(m.batchQueue) == 0 {
		m.mu.Unlock()
		return // another flush won the race
	}
	batch := m.batchQueue
	m.batchQueue, m.queuedOps = nil, 0
	m.batchGen++
	if byTimer {
		m.stats.BatchFlushTimer++
	} else {
		m.stats.BatchFlushFull++
	}

	// §3.1: two commits cannot be closer than max_latency; the batch
	// commits atomically, so it occupies a single spacing slot.
	now := m.rt.Now()
	wait := time.Duration(0)
	if m.nextWriteAt.After(now) {
		wait = m.nextWriteAt.Sub(now)
		m.stats.WritePacingWaits++
	}
	if m.nextWriteAt.Before(now) {
		m.nextWriteAt = now
	}
	m.nextWriteAt = m.nextWriteAt.Add(m.cfg.Params.MaxLatency)
	m.mu.Unlock()
	if wait > 0 && m.rt.Sleep(wait) != nil {
		answerWaves(batch, 0)
		return
	}
	if m.bcast.Broadcast(encodeBatchMessage(batch), batch) != nil {
		answerWaves(batch, 0)
	}
}

// answerWaves answers the waves of one batch, in order, with the version
// of each one's first op, given the batch's first version; 0 answers
// every wave "not committed".
func answerWaves(waves []queuedWave, first uint64) {
	for _, w := range waves {
		w.h.resolve(first)
		if first != 0 {
			first += uint64(len(w.ops))
		}
	}
}

// commitHandle is what a waiting wave holds: a promise in virtual time or
// a channel in real time. It is resolved exactly once: by the delivery
// its broadcast handed the batch back to, or by the flush that failed.
type commitHandle struct {
	p  *sim.Promise
	ch chan uint64
}

func (m *Master) newCommitHandle() commitHandle {
	if s, ok := m.rt.(*sim.Sim); ok {
		return commitHandle{p: s.NewPromise()}
	}
	return commitHandle{ch: make(chan uint64, 1)}
}

func (h commitHandle) resolve(version uint64) {
	if h.p != nil {
		h.p.Resolve(version)
	} else {
		h.ch <- version
	}
}

// awaitCommit waits for a wave's commit and returns the version of its
// first op, 0 if it did not commit. On the real clock it gives up after
// ReadTimeout, and a wave still in the accumulator then is withdrawn: it
// is guaranteed never to commit, so the client's "not committed" is
// truthful and a retry cannot double-apply. One already flushed is past
// the point of no return and may still commit (the window between
// broadcast and delivery). The timer is stopped as soon as the commit
// arrives: one left running until the deadline would pin megabytes of
// timers under load. Virtual-time waits have no deadline: they end
// through promises and the sim's shutdown semantics.
func (m *Master) awaitCommit(h commitHandle) uint64 {
	if h.ch != nil {
		timer := time.NewTimer(m.cfg.Params.ReadTimeout)
		defer timer.Stop()
		select {
		case v := <-h.ch:
			return v
		case <-timer.C:
			m.cancelQueued(h)
			return 0
		}
	}
	v, err := h.p.Future().Await()
	if err != nil {
		return 0
	}
	return v.(uint64)
}

// cancelQueued withdraws a wave that is still waiting in the batch
// accumulator; one a flush already took is left alone.
func (m *Master) cancelQueued(h commitHandle) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, w := range m.batchQueue {
		if w.h == h {
			m.batchQueue = append(m.batchQueue[:i], m.batchQueue[i+1:]...)
			m.queuedOps -= len(w.ops)
			return
		}
	}
}

// deliver is the broadcast delivery callback: every master executes the
// same ordered messages. waves, on the batch's origin only, are the
// writers waiting for a batch this master broadcast; they are answered
// only if the slot holds exactly the frame it sent. After any message but
// a write batch it decides alone whether to truncate (maybeTruncate).
func (m *Master) deliver(seq uint64, msg []byte, local any) {
	waves, _ := local.([]queuedWave)
	if waves != nil && !bytes.Equal(msg, encodeBatchMessage(waves)) {
		// b.submit is unauthenticated: a forger took this batch's slot
		// under its submit identity, so the batch will never commit.
		m.mu.Lock()
		m.stats.BatchesDisplaced++
		m.mu.Unlock()
		answerWaves(waves, 0)
		waves = nil
	}
	r := wire.NewReader(msg)
	kind := r.Byte()
	if kind != bcBatch {
		defer m.maybeTruncate(seq)
	}
	switch kind {
	case bcBatch:
		raw, ops, err := decodeBatchMessage(r)
		if err != nil {
			answerWaves(waves, 0)
			return
		}
		m.applyBatch(seq, raw, ops, waves)
	case bcSlaveList:
		masterAddr := r.String()
		n := r.Count() // b.submit is unauthenticated: never size a slice by a forged count
		certs := make([]pki.Certificate, 0, n)
		for i := 0; i < n; i++ {
			cert, err := pki.DecodeCertificate(r)
			if err != nil {
				return
			}
			certs = append(certs, cert)
		}
		if r.Done() != nil {
			return
		}
		m.mu.Lock()
		if masterAddr != m.cfg.Addr {
			m.peerSlaves[masterAddr] = certs
		}
		m.mu.Unlock()
	case bcAdopt:
		m.applyAdopt(r)
	case bcExclude:
		m.applyExclude(r)
	case bcReadmit:
		m.applyReadmit(r)
	}
}

// encodeBatchMessage builds the bcBatch broadcast frame: the kind byte,
// then every wave's ops in queue order, with no wave boundary (detached:
// the archive keeps it).
func encodeBatchMessage(batch []queuedWave) []byte {
	return wire.EncodeFrame(func(w *wire.Writer) {
		w.Byte(bcBatch)
		w.Uvarint(uint64(opCount(batch)))
		for _, qw := range batch {
			for _, op := range qw.ops {
				w.Bytes_(op)
			}
		}
	})
}

// opCount is the number of ops the waves hold together.
func opCount(waves []queuedWave) int {
	n := 0
	for _, w := range waves {
		n += len(w.ops)
	}
	return n
}

// decodeBatchMessage parses a bcBatch broadcast body (after the kind
// byte) into the op bytes, which alias the message the archive retains,
// and the ops they decode to. It is the one rule every master and the
// auditor apply to an ordered batch: a body without ops, or one of whose
// ops does not decode, is refused whole, so no replica applies any of it.
// Admission refuses both, so only a forged b.submit can carry one.
func decodeBatchMessage(r *wire.Reader) (raw [][]byte, ops []store.Op, err error) {
	raw = r.BytesSliceView()
	if err := r.Done(); err != nil {
		return nil, nil, err
	}
	if len(raw) == 0 {
		return nil, nil, fmt.Errorf("core: batch without ops")
	}
	ops = make([]store.Op, len(raw))
	for i, b := range raw {
		if ops[i], err = store.DecodeOp(b); err != nil {
			return nil, nil, fmt.Errorf("core: batch op %d: %w", i, err)
		}
	}
	return raw, ops, nil
}

// applyBatch executes one delivered commit — a batch of one or more
// writes, all on this one path — identically on every master: sign a
// single stamp over the batch, append its record to the WAL and sync it,
// then adopt it through the one ingest WAL replay and catch-up use (one
// version per op, exactly the sequence sequential commits would produce,
// logged under its slot, which becomes the recovery anchor), and announce
// the batch to every slave by its own stamp, which each fetches through
// m.sync. So the store shows a batch only once it is durable: a
// keep-alive, an m.check or an m.sync never names a version the WAL does
// not hold. seq is the broadcast slot that carried the commit. raw and ops
// are what decodeBatchMessage returned. waves, nil on every master but the
// batch's origin, are the writers waiting for the batch, whose ops they
// hold in order.
func (m *Master) applyBatch(seq uint64, raw [][]byte, ops []store.Op, waves []queuedWave) {
	m.mu.Lock()
	first := m.store.Version() + 1
	m.mu.Unlock()

	// One signature per batch (§3.4 amortization), over the hash of the
	// batch's own bytes. The log, the WAL, the slaves and every later sync
	// get the batch whole, so none of them needs anything per op.
	now := m.rt.Now()
	count := uint64(len(ops))
	last := first + count - 1
	bu := BatchUpdate{First: first, Ops: raw,
		Stamp: SignBatchStamp(m.cfg.Keys, last, now, BatchDigest(first, raw))}
	opBytesTotal := 0
	for _, op := range raw {
		opBytesTotal += len(op)
	}
	m.meter.Sign() // once per batch
	m.meter.Hash(opBytesTotal)
	m.meter.Apply(len(ops))

	// Durability before visibility: the batch's record reaches the WAL
	// and stable storage before the store shows it, so no writer is
	// answered and no slave told of a write a restart could lose. A write
	// error degrades durability, not consistency — the batch is already
	// committed cluster-wide — so it must not fail the commit.
	if m.wlog != nil {
		walRec := encodeWALRecord(seq, &bu)
		m.walMu.Lock()
		if err := m.wlog.Append(walRec); err == nil {
			m.wlog.Sync()
		}
		m.walMu.Unlock()
		if m.walHook != nil {
			m.walHook(last)
		}
	}

	m.mu.Lock()
	// The store is still at first-1: only the delivery drainer, which runs
	// this, moves it, and catch-up (recoverGap) runs before the broadcast
	// starts. So the batch continues the store and no gap can refuse it.
	_, _ = m.adoptTransferLocked(&stateTransfer{batches: []openedBatch{{BatchUpdate: bu, ops: ops}}, anchor: seq})
	m.lastCommit = now
	m.stats.WritesApplied += count
	m.stats.BatchesApplied++
	slaves := m.slaveCertsLocked()
	m.mu.Unlock()
	answerWaves(waves, first)

	// The lazy update (§3.1) is the batch's own stamp on a keep-alive: no
	// new signature, and each slave fetches the batch through m.sync.
	m.fanOut(slaves, bu.Stamp)
}

// fanOut sends stamp as a keep-alive to each slave, every call on a task
// of its own, and records the version the slave acknowledges in reply
// (recordAck). Every batch announce and every keep-alive sends through it.
func (m *Master) fanOut(slaves []pki.Certificate, stamp VersionStamp) {
	// Detached frame: the dialer tasks below retain it.
	frame := wire.EncodeFrame(func(w *wire.Writer) {
		stamp.Encode(w)
		w.String_(m.cfg.Addr)
	})
	for _, sl := range slaves {
		m.rt.Spawn(func() {
			ack, err := m.dlr.CallTimeout(sl.Addr, MethodKeepAlive, frame, m.cfg.Params.KeepAliveEvery)
			if err == nil {
				if v, ok := parseAck(ack); ok {
					m.recordAck(sl.Addr, v)
				}
			}
			m.mu.Lock()
			m.stats.KeepAlivesSent++
			m.mu.Unlock()
		})
	}
}

// loggedBatch is one entry of the master's op log: a committed batch
// whole, as its WAL record holds it — the broadcast slot that carried it,
// then first, ops and stamp, which m.sync replays.
type loggedBatch struct {
	BatchUpdate
	seq uint64
}

// logIndexLocked is the index of the first logged batch whose last
// version is at or above v: the batch holding v, when v is logged. Caller
// holds m.mu.
func (m *Master) logIndexLocked(v uint64) int {
	return sort.Search(len(m.log), func(i int) bool { return m.log[i].Last() >= v })
}

// --- Setup / assignment ----------------------------------------------------

func (m *Master) handleGetSlave(body []byte) ([]byte, error) {
	r := wire.NewReader(body)
	clientAddr := r.String()
	clientPub := cryptoutil.PublicKey(r.Bytes())
	count := int(r.Uvarint())
	exclude := r.StringSlice()
	if err := r.Done(); err != nil {
		return nil, err
	}
	if count < 1 {
		count = 1
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	picked := m.pickLocked(count, exclude)
	if len(picked) == 0 {
		return nil, ErrNoSlaves
	}
	m.clients[string(clientPub)] = &clientEntry{
		addr: clientAddr, pub: clientPub, slaveAddr: picked[0].Addr,
	}
	w := wire.NewWriter(256)
	w.Uvarint(uint64(len(picked)))
	for _, cert := range picked {
		cert.Encode(w)
	}
	return w.Bytes(), nil
}

// pickLocked is the one round-robin walk over the slave set: up to n
// slaves from the cursor on, none excluded or named in skip, and the
// cursor moves one on when any was picked. A client's setup and its
// reassignment after an exclusion both assign through it. Caller holds
// m.mu.
func (m *Master) pickLocked(n int, skip []string) []pki.Certificate {
	var picked []pki.Certificate
	for i := 0; i < len(m.slaves) && len(picked) < n; i++ {
		e := m.slaves[(m.rrNext+i)%len(m.slaves)]
		if slices.Contains(skip, e.cert.Addr) || m.excluded[string(e.cert.Subject)] {
			continue
		}
		picked = append(picked, e.cert)
	}
	if len(picked) > 0 {
		m.rrNext = (m.rrNext + 1) % len(m.slaves)
	}
	return picked
}

// --- Double-check and sensitive reads --------------------------------------

func (m *Master) handleCheck(body []byte) ([]byte, error) {
	r := wire.NewReader(body)
	clientPub := cryptoutil.PublicKey(r.Bytes())
	wantPayload := r.Bool()
	queryBytes := r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}

	m.mu.Lock()
	m.stats.DoubleChecks++
	if wantPayload {
		m.stats.SensitiveReads++
	}
	throttle := m.greedy.record(string(clientPub), m.rt.Now()) &&
		m.rng.Float64() < greedyDropFrac
	if throttle {
		m.stats.DoubleChecksDrop++
	}
	m.mu.Unlock()
	if throttle {
		return nil, ErrThrottled
	}

	m.mu.Lock()
	res, hit, err := m.memo.execute(m.store, queryBytes)
	version := m.store.Version()
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	m.meter.Exec(res.Scanned, hit)
	m.meter.Hash(len(res.Payload))
	digest := res.Digest()

	w := wire.NewWriter(64 + len(res.Payload))
	w.Uvarint(version)
	w.Bytes_(digest[:])
	if wantPayload {
		m.meter.Reply()
		w.Bool(true)
		w.Bytes_(res.Payload)
	} else {
		w.Bool(false)
	}
	return w.Bytes(), nil
}

// --- Reports and exclusion --------------------------------------------------

func (m *Master) handleReport(from string, body []byte) ([]byte, error) {
	r := wire.NewReader(body)
	pledgeBytes := r.Bytes()
	auditorSig := r.Bytes()
	if err := r.Done(); err != nil {
		return nil, err
	}
	pledge, err := decodePledgeFrame(pledgeBytes) // views of a copy this handler owns
	if err != nil {
		return nil, err
	}
	m.meter.Verify()
	if err := pledge.VerifySig(); err != nil {
		return nil, err // a forged pledge can never frame a slave (§3.3)
	}

	// The version compared is the one re-executed at: one critical section.
	tab := m.meter.Tab() // the re-execution, paid after the unlock
	m.mu.Lock()
	m.stats.Reports++
	proven := false
	if m.store.Version() == pledge.Stamp.Version {
		proven, _ = pledge.contradictedBy(m.store, tab)
	}
	m.mu.Unlock()
	tab.Pay()
	if !proven && len(auditorSig) > 0 {
		// The auditor re-executed at the correct version; it is a trusted
		// server and its signature authenticates the report (the pledge
		// itself remains the evidence of record). The check is paid for
		// whatever its verdict.
		m.meter.Verify()
		proven = cryptoutil.Verify(m.cfg.AuditorPub, pledgeBytes, auditorSig) == nil
	}
	if !proven {
		return nil, ErrNotProven
	}

	// Propagate the exclusion through the ordered broadcast so every
	// master updates its view and exactly one (the slave's owner)
	// reassigns the affected clients. Anyone can submit to the broadcast,
	// so the frame carries this master's key and its signature over the
	// evidence.
	evidence := EncodePledge(pledge)
	m.meter.Sign()
	sig := m.cfg.Keys.Sign(excludeSignedBytes(evidence))
	msg := wire.EncodeFrame(func(w *wire.Writer) {
		w.Byte(bcExclude)
		w.Bytes_(evidence)
		w.Bytes_(m.cfg.Keys.Public)
		w.Bytes_(sig)
	})
	if err := m.bcast.Broadcast(msg, nil); err != nil {
		return nil, err
	}
	return nil, nil
}

// excludeSignedBytes is what the master that convicted a slave signs in
// its bcExclude frame: a domain tag and the evidence frame.
func excludeSignedBytes(evidence []byte) []byte {
	return wire.EncodeFrame(func(w *wire.Writer) {
		w.String_("exclude.v1")
		w.Bytes_(evidence)
	})
}

// applyExclude acts on a bcExclude frame — kind ‖ bytes evidence ‖ bytes
// origin key ‖ bytes sig — only when the origin is a certified master and
// its signature verifies: a genuine pledge by an honest slave is easy to
// come by, and b.submit takes frames from anyone. A refused frame is
// counted in ExclusionsRefused.
func (m *Master) applyExclude(r *wire.Reader) {
	evidence := r.Bytes()
	origin := cryptoutil.PublicKey(r.BytesView())
	sig := r.BytesView()
	pledge, err := decodePledgeFrame(evidence) // views of evidence, a copy
	if err == nil {
		err = r.Done()
	}
	if err == nil {
		err = m.verifyExcludeOrigin(evidence, origin, sig)
	}
	if err != nil {
		m.mu.Lock()
		m.stats.ExclusionsRefused++
		m.mu.Unlock()
		return
	}
	slavePub := string(pledge.SlavePub)
	m.mu.Lock()
	if m.excluded[slavePub] {
		m.mu.Unlock()
		return // already handled
	}
	m.excluded[slavePub] = true
	// Am I the owner of this slave?
	ownIdx := slices.IndexFunc(m.slaves, func(e slaveEntry) bool { return string(e.cert.Subject) == slavePub })
	var excludedAddr string
	if ownIdx >= 0 {
		excludedAddr = m.slaves[ownIdx].cert.Addr
		m.slaves = slices.Delete(m.slaves, ownIdx, ownIdx+1)
		m.stats.Exclusions++
	}
	m.mu.Unlock()
	if ownIdx < 0 {
		return
	}

	// Record the signed exclusion with the directory (evidence attached).
	m.meter.Sign()
	excl := pki.Exclusion{
		Subject:  pledge.SlavePub,
		Reason:   "pledged result hash does not match trusted re-execution",
		At:       m.rt.Now(),
		Evidence: evidence,
	}
	excl.Sign(m.cfg.Keys)
	// The exclusion has already been broadcast cluster-wide; the
	// directory record is the public copy. An unreachable directory is
	// counted, not fatal — the record is retried implicitly when other
	// masters apply the same exclusion.
	if err := m.cfg.Directory.RecordExclusion(excl); err != nil {
		m.mu.Lock()
		m.stats.DirectoryErrors++
		m.mu.Unlock()
	}

	// §3.5: contact all clients connected to the malicious slave, inform
	// them, and assign each a new slave.
	m.rt.Spawn(func() { m.reassignClientsOf(excludedAddr, excl) })
}

func (m *Master) reassignClientsOf(slaveAddr string, excl pki.Exclusion) {
	m.mu.Lock()
	var affected []*clientEntry
	for _, c := range m.clients {
		if c.slaveAddr == slaveAddr {
			affected = append(affected, c)
		}
	}
	m.mu.Unlock()
	for _, c := range affected {
		m.mu.Lock()
		repl := m.pickLocked(1, nil)
		if len(repl) > 0 {
			c.slaveAddr = repl[0].Addr
		}
		m.mu.Unlock()
		if len(repl) == 0 {
			continue
		}
		w := wire.NewWriter(512)
		excl.Encode(w)
		repl[0].Encode(w)
		m.meter.Reply()
		m.dlr.CallTimeout(c.addr, MethodNotify, w.Bytes(), m.cfg.Params.ReadTimeout)
		m.mu.Lock()
		m.stats.ClientsNotified++
		m.mu.Unlock()
	}
}

// --- Readmission -----------------------------------------------------------------

// ReadmitSlave brings a recovered slave back into service (§3.5: a slave
// that was the victim of an attack can be brought back after recovery to
// a safe state). The decision to readmit is the operator's; this method
// executes it: the exclusion is cleared on every master and in the
// directory, and the slave rejoins this master's set with a fresh
// certificate. The slave itself should Bootstrap first so its replica is
// current.
func (m *Master) ReadmitSlave(addr string, pub cryptoutil.PublicKey) error {
	cert := m.slaveCert(addr, pub)
	w := wire.NewWriter(512)
	w.Byte(bcReadmit)
	w.String_(m.cfg.Addr) // the readmitting owner
	cert.Encode(w)
	return m.bcast.Broadcast(w.Bytes(), nil)
}

func (m *Master) applyReadmit(r *wire.Reader) {
	owner := r.String()
	cert, err := pki.DecodeCertificate(r)
	if err != nil || r.Done() != nil {
		return
	}
	mine := owner == m.cfg.Addr
	m.mu.Lock()
	delete(m.excluded, string(cert.Subject))
	joined := mine && m.joinLocked(cert) // rejoin our slave set unless it is already there
	m.mu.Unlock()
	if !mine {
		return
	}
	if err := m.cfg.Directory.Retract(m.retraction(pki.RetractReinstate, cert.Subject)); err != nil {
		m.mu.Lock()
		m.stats.DirectoryErrors++
		m.mu.Unlock()
	}
	if joined {
		m.stampJoined([]pki.Certificate{cert})
	}
}

// --- Background loops ---------------------------------------------------------

// sendKeepAlives signs one keep-alive stamp, bound to this master's
// address, for the store's version — every batch there is durable
// (applyBatch) — and sends it to each slave, recording the version each
// acknowledges in reply: the stability signal truncation runs on. The
// periodic loop, a readmission and an adoption all send through it.
func (m *Master) sendKeepAlives(slaves []pki.Certificate) {
	m.mu.Lock()
	version := m.store.Version()
	m.mu.Unlock()
	m.meter.Sign()
	m.fanOut(slaves, signStamp(m.cfg.Keys, stampKindKeepAlive, version, m.rt.Now(), m.addrHash))
}

// broadcastSlaveList tells every master this master's slave set: the set
// the survivors divide should this master crash.
func (m *Master) broadcastSlaveList() {
	slaves := m.slaveCerts()
	w := wire.NewWriter(1024)
	w.Byte(bcSlaveList)
	w.String_(m.cfg.Addr)
	w.Uvarint(uint64(len(slaves)))
	for _, cert := range slaves {
		cert.Encode(w)
	}
	m.bcast.Broadcast(w.Bytes(), nil)
}

// redistributeCrashed initiates the redistribution of each crashed
// master's slave set this master coordinates (§3: "in the event of a
// master crash, the remaining ones will divide its slave set").
func (m *Master) redistributeCrashed() {
	for _, dead := range m.bcast.SuspectedPeers() {
		if dead == m.cfg.AuditorAddr {
			continue
		}
		m.mu.Lock()
		already := m.adopted[dead]
		_, known := m.peerSlaves[dead]
		m.mu.Unlock()
		if already || !known || !m.isLowestSurvivor(dead) {
			continue
		}
		m.initiateAdoption(dead)
	}
}

// survivors are the peers, in priority order, that are neither the
// auditor nor suspected, dead being taken as suspected: the first
// coordinates the division of dead's slave set, and all of them share it.
func (m *Master) survivors(dead string) []string {
	suspected := append(m.bcast.SuspectedPeers(), dead)
	var out []string
	for _, p := range m.cfg.Peers {
		if p != m.cfg.AuditorAddr && !slices.Contains(suspected, p) {
			out = append(out, p)
		}
	}
	return out
}

// isLowestSurvivor reports whether this master coordinates the
// redistribution of dead's slave set.
func (m *Master) isLowestSurvivor(dead string) bool {
	s := m.survivors(dead)
	return len(s) > 0 && s[0] == m.cfg.Addr
}

// initiateAdoption broadcasts the division of a dead master's slave set
// among the survivors, round-robin in peer order.
func (m *Master) initiateAdoption(dead string) {
	m.mu.Lock()
	orphans := m.peerSlaves[dead]
	m.mu.Unlock()
	survivors := m.survivors(dead)
	if len(survivors) == 0 {
		return
	}
	w := wire.NewWriter(1024)
	w.Byte(bcAdopt)
	w.String_(dead)
	w.Uvarint(uint64(len(orphans)))
	for i, cert := range orphans {
		w.String_(survivors[i%len(survivors)]) // new owner
		cert.Encode(w)
	}
	m.bcast.Broadcast(w.Bytes(), nil)
}

func (m *Master) applyAdopt(r *wire.Reader) {
	dead := r.String()
	n := r.Count()
	var orphans []pki.Certificate // the ones given to this master
	for i := 0; i < n; i++ {
		owner := r.String()
		cert, err := pki.DecodeCertificate(r)
		if err != nil {
			return
		}
		if owner == m.cfg.Addr {
			orphans = append(orphans, cert)
		}
	}
	if r.Done() != nil {
		return
	}
	m.mu.Lock()
	if m.adopted[dead] {
		m.mu.Unlock()
		return
	}
	m.adopted[dead] = true
	delete(m.peerSlaves, dead)
	var mine []pki.Certificate
	for _, o := range orphans {
		if m.excluded[string(o.Subject)] {
			continue
		}
		// Re-issue the certificate under this master's key.
		if cert := m.slaveCert(o.Addr, o.Subject); m.joinLocked(cert) {
			m.stats.SlavesAdopted++
			mine = append(mine, cert)
		}
	}
	m.mu.Unlock()
	// The coordinating master withdraws the dead master's directory entry.
	if m.isLowestSurvivor(dead) {
		m.rt.Spawn(func() {
			// Dead master's key is unknown here; withdraw by looking up
			// its certificate through the directory.
			masters, err := m.certifiedMasters()
			if err != nil {
				return
			}
			for _, c := range masters {
				if c.Addr == dead {
					if werr := m.cfg.Directory.Retract(m.retraction(pki.RetractWithdraw, c.Subject)); werr != nil {
						m.mu.Lock()
						m.stats.DirectoryErrors++
						m.mu.Unlock()
					}
				}
			}
		})
	}
	m.stampJoined(mine)
}

// retraction signs a directory retraction of kind for subject, dated now.
func (m *Master) retraction(kind string, subject cryptoutil.PublicKey) pki.Retraction {
	m.meter.Sign()
	r := pki.Retraction{Kind: kind, Subject: subject, At: m.rt.Now()}
	r.Sign(m.cfg.Keys)
	return r
}

// verifyExcludeOrigin checks a bcExclude's signature under origin and that
// origin is a certified master's key, the way the directory checks a
// pki.Retraction. With the directory unreachable the exclusion is refused
// here (and the failure counted in DirectoryErrors): acting on it would
// reopen the forged-frame hole, and a later report of the same slave (a
// client's double-check catch) broadcasts it again.
func (m *Master) verifyExcludeOrigin(evidence []byte, origin cryptoutil.PublicKey, sig []byte) error {
	m.meter.Verify()
	if err := cryptoutil.Verify(origin, excludeSignedBytes(evidence), sig); err != nil {
		return err
	}
	masters, err := m.certifiedMasters()
	if err != nil {
		m.mu.Lock()
		m.stats.DirectoryErrors++
		m.mu.Unlock()
		return err
	}
	for _, c := range masters {
		if bytes.Equal(c.Subject, origin) {
			return nil
		}
	}
	return errors.New("core: exclusion not issued by a certified master")
}

// certifiedMasters reads the directory's certificates (one d.shardmap; an
// unsharded deployment has no table, which is no error here) and keeps the
// master certificates that verify under the content key: what catch-up
// replies, bcExclude origins and the takeover withdraw are checked
// against. A directory that lists no certified master answers
// pki.ErrNotFound, so callers count it as a directory error.
func (m *Master) certifiedMasters() ([]pki.Certificate, error) {
	_, certs, err := m.cfg.Directory.ShardMap()
	if err != nil && !errors.Is(err, pki.ErrNoShardTable) {
		return nil, err
	}
	masters := verifiedMasters(certs, m.cfg.ContentKey)
	if len(masters) == 0 {
		return nil, pki.ErrNotFound
	}
	return masters, nil
}
