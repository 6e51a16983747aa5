package core

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/broadcast"
	"repro/internal/cryptoutil"
	"repro/internal/merkle"
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
	bcBatch      // batched writes: one frame, one signature, many versions
	bcCheckpoint // stability checkpoint: truncate history below version V
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
	KeepAlivesSent   uint64
	UpdatesSent      uint64
	ClientsNotified  uint64
	SlavesAdopted    uint64

	CheckpointsProposed uint64 // stability checkpoints this master broadcast
	CheckpointsApplied  uint64 // delivered checkpoints that truncated history
	OpsTruncated        uint64 // OpRecords dropped from the log after stability

	WALReplayed       uint64 // batches replayed from the WAL at start
	RecoverySyncs     uint64 // wholesale catch-up syncs performed at start
	SnapshotRefreshes uint64 // retained-snapshot refreshes outside checkpoints

	WrongShardRejects uint64 // writes rejected because the key is outside Shard
	DirectoryErrors   uint64 // directory RPCs that failed (record kept local)
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
	// SlaveListEvery is how often the master broadcasts its slave list
	// (0 = 4x KeepAliveEvery).
	SlaveListEvery time.Duration
	// BatchSize is the maximum number of concurrent writes accumulated
	// into one batched commit (one signature, one broadcast, one slave
	// update). <=1 disables accumulation: every write commits alone, as
	// a batch of one.
	BatchSize int
	// BatchTimeout bounds how long the first write in a batch waits for
	// company before a short batch is flushed anyway (0 = MaxLatency/4).
	// Irrelevant when BatchSize <= 1.
	BatchTimeout time.Duration
	// BatchAdaptive makes the flush timeout track the observed write
	// arrival rate instead of always waiting the full BatchTimeout: the
	// timer waits about four typical inter-arrival gaps (an EWMA), so a
	// pause in the stream flushes the partial batch promptly, clamped to
	// [BatchTimeout/16, BatchTimeout]. Fast arrival streams still
	// coalesce into full batches, while the straggler tail of a burst
	// stops paying the full static timeout.
	BatchAdaptive bool
	// CheckpointEvery is the stability-checkpoint cadence: how often the
	// master computes the stable version over its slaves' acks and
	// proposes truncating history below it. 0 disables checkpointing
	// (the op log and broadcast archive then grow with total writes).
	CheckpointEvery time.Duration
	// CheckpointMinRetain is the minimum number of recent OpRecords kept
	// in the log regardless of stability, so slightly-behind slaves sync
	// by record replay instead of snapshot transfer (0 = 64).
	CheckpointMinRetain int
	// CheckpointMaxLag is how long a slave may stay silent before it
	// stops gating stability; a slave silent longer recovers via
	// snapshot-first sync (0 = 4x KeepAliveEvery).
	CheckpointMaxLag time.Duration
	// DataDir, when non-empty, makes the master durable: every committed
	// batch is appended to a write-ahead log under this directory before
	// clients are acked, and each applied checkpoint atomically writes a
	// snapshot file and truncates the log below the stable point. On
	// start the directory is loaded — snapshot, then WAL suffix — so a
	// restarted master resumes from its pre-crash state and rejoins the
	// broadcast instead of being reprovisioned. Empty (the default)
	// keeps the master pure in-memory.
	DataDir string
	// WALSyncEvery is the WAL fsync policy: 0 (the default) fsyncs every
	// batch before clients are acked, so an acked write survives a
	// crash; > 0 fsyncs on that interval instead — the usual
	// group-commit trade of a bounded window of acked-but-lost writes
	// for fewer fsyncs. Ignored without DataDir.
	WALSyncEvery time.Duration
}

type slaveEntry struct {
	addr string
	pub  cryptoutil.PublicKey
	cert pki.Certificate
}

type clientEntry struct {
	addr      string
	pub       cryptoutil.PublicKey
	slaveAddr string
}

// Master is a trusted server: it orders writes through the master-set
// broadcast, executes them, pushes lazy state updates and keep-alives to
// its slave set, answers double-checks, polices greedy clients, verifies
// misbehaviour reports and excludes slaves proven malicious (§3).
type Master struct {
	cfg MasterConfig
	rt  sim.Runtime
	dlr rpc.Dialer
	rng *rand.Rand

	bcast *broadcast.Member

	mu          sync.Mutex
	store       *store.Store            // guarded by mu
	baseVersion uint64                  // guarded by mu; floor of the retained log (initial version, then advanced by checkpoints)
	log         []OpRecord              // guarded by mu; log[v-baseVersion-1] = committed op + evidence for v
	acks        map[string]slaveAck     // guarded by mu; slave addr -> newest acknowledged version
	marks       []versionMark           // guarded by mu; batch boundaries: version -> (digest, broadcast seq)
	checkpoint  Checkpoint              // guarded by mu; most recent stability checkpoint recorded
	snap        *ckptSnapshot           // guarded by mu; retained snapshot for snapshot-first sync
	snapRefresh bool                    // guarded by mu; a snapshot refresh is signing off-lock
	loggedBytes uint64                  // guarded by mu; running total of op bytes committed (snapshot-refresh trigger)
	unacked     uint64                  // guarded by mu; versions atop the store not yet durable and acknowledged (keep-alives stamp below them)
	lastMark    versionMark             // guarded by mu; version + broadcast seq of the newest applied batch
	lastCommit  time.Time               // guarded by mu
	nextWriteAt time.Time               // guarded by mu
	batchQueue  []batchWaiter           // guarded by mu; admitted writes awaiting the next flush
	batchGen    uint64                  // guarded by mu; flush generation (dedups timer flushes)
	timerArmed  bool                    // guarded by mu; a timeout flush is scheduled for the open batch
	timerGen    uint64                  // guarded by mu; generation the armed timer belongs to
	arrivalEWMA time.Duration           // guarded by mu; smoothed write inter-arrival gap (adaptive flush)
	lastArrival time.Time               // guarded by mu; previous write's arrival (adaptive flush)
	slaves      []slaveEntry            // guarded by mu
	clients     map[string]*clientEntry // guarded by mu; key: client pub
	peerSlaves  map[string][]slaveEntry // guarded by mu; other masters' slave sets
	adopted     map[string]bool         // guarded by mu; dead masters already redistributed
	excluded    map[string]bool         // guarded by mu; excluded slave pubs
	rrNext      int                     // guarded by mu; round-robin cursor for assignment
	stats       MasterStats             // guarded by mu
	memo        resultMemo              // guarded by mu; answers to expensive double-checked queries at the store's version
	stopped     bool                    // guarded by mu

	// This master's batches between Broadcast and delivery, by the batch
	// number their bcBatch frame carries; whoever removes one resolves its
	// waiters. Numbers start at the clock, so a restart never reuses one.
	batchNo  uint64                   // guarded by mu
	inflight map[uint64][]batchWaiter // guarded by mu

	// Durable state (DataDir set; see durable.go). walMu serializes the
	// log file operations — the delivery drainer appends while the
	// interval-fsync loop syncs and checkpoint application rewrites.
	walMu   sync.Mutex
	wlog    *wal.Log     // write-ahead log (nil without DataDir)
	walHook func(uint64) // test hook: after WAL append+sync, before acks

	greedy *greedyTracker

	stamps *sigCache // verified-stamp cache (catch-up record streams)

	// Batch-commit scratch, reused across applyBatch calls. Delivery is
	// serialized (one broadcast drainer), and replay at startup runs
	// before any delivery, so no extra locking is needed beyond m.mu,
	// which applyBatch already holds while building the tree.
	batch batchScratch
}

// NewMaster creates a master over an initial content replica (cloned).
// Call Start to launch its background loops.
func NewMaster(cfg MasterConfig, rt sim.Runtime, dlr rpc.Dialer, initial *store.Store) (*Master, error) {
	if cfg.SlaveListEvery == 0 {
		cfg.SlaveListEvery = 4 * cfg.Params.KeepAliveEvery
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 1
	}
	if cfg.BatchTimeout <= 0 {
		cfg.BatchTimeout = cfg.Params.MaxLatency / 4
	}
	if cfg.CheckpointMinRetain <= 0 {
		cfg.CheckpointMinRetain = 64
	}
	if cfg.CheckpointMaxLag <= 0 {
		cfg.CheckpointMaxLag = 4 * cfg.Params.KeepAliveEvery
	}
	m := &Master{
		cfg:         cfg,
		rt:          rt,
		dlr:         dlr,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		store:       initial.Clone(),
		baseVersion: initial.Version(),
		acks:        make(map[string]slaveAck),
		clients:     make(map[string]*clientEntry),
		peerSlaves:  make(map[string][]slaveEntry),
		adopted:     make(map[string]bool),
		excluded:    make(map[string]bool),
		batchNo:     uint64(rt.Now().UnixNano()),
		inflight:    make(map[uint64][]batchWaiter),
		greedy:      newGreedyTracker(cfg.Params),
		stamps:      newSigCache(),
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

func (m *Master) startLoops() {
	m.bcast.Start()
	m.rt.Spawn(m.keepAliveLoop)
	m.rt.Spawn(m.slaveListLoop)
	m.rt.Spawn(m.crashMonitorLoop)
	if m.cfg.CheckpointEvery > 0 {
		m.rt.Spawn(m.checkpointLoop)
	}
	if m.wlog != nil && m.cfg.WALSyncEvery > 0 {
		m.rt.Spawn(m.walSyncLoop)
	}
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
// public keys of the slaves it has been assigned").
func (m *Master) AddSlave(addr string, pub cryptoutil.PublicKey) {
	cert := pki.Certificate{
		Role:     pki.RoleSlave,
		Addr:     addr,
		Subject:  pub,
		IssuedAt: m.rt.Now(),
	}
	cert.Sign(m.cfg.Keys)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.slaves = append(m.slaves, slaveEntry{addr: addr, pub: pub, cert: cert})
	// A fresh slave gates stability until its first ack (or until it has
	// been silent for CheckpointMaxLag).
	m.acks[addr] = slaveAck{version: 0, at: m.rt.Now()}
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
// Writes flow through a batched, pipelined commit path. handleWriteMulti
// admits a wave (signature + ACL, once) and enqueues its ops in the batch
// accumulator; the batch flushes when it reaches BatchSize or when
// BatchTimeout elapses, whichever first. One flush produces one ordered
// broadcast, one batch-root signature, and one update push per slave —
// amortizing the dominant per-write signing cost (§3.4) across every
// member of the batch while preserving the exact version sequence and
// store digest that sequential commits would produce.

// batchWaiter is one admitted write queued for the next flush; the
// client's key and signature are read at admission and never again.
type batchWaiter struct {
	opBytes []byte
	h       commitHandle
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
	chargeCPU(m.cfg.CPU, m.cfg.Params.Costs.HashCost(len(body)))
	chargeCPU(m.cfg.CPU, m.cfg.Params.Costs.VerifySig)
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
// and one round trip. The admitted wave feeds the batch accumulator
// back-to-back and therefore coalesces into full batches without relying
// on timer luck; the reply carries the assigned version for every op in
// submission order, 0 for any the commit pipeline dropped.
func (m *Master) handleWriteMulti(body []byte) ([]byte, error) {
	ops, err := m.admitWave(body)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.stats.WritesAdmitted += uint64(len(ops))
	m.mu.Unlock()

	// Already-enqueued ops are past admission; wait for them below and
	// report the one that failed to enqueue and every later one as
	// uncommitted.
	handles := make([]commitHandle, 0, len(ops))
	for _, op := range ops {
		h := m.newCommitHandle()
		if m.enqueueWrite(batchWaiter{opBytes: op, h: h}) != nil {
			break
		}
		handles = append(handles, h)
	}
	// One deadline, and one timer, cover the whole wave: the waits run
	// back to back, so per-op timeouts would otherwise stack to wave-size
	// x ReadTimeout.
	expired, stop := m.commitDeadline()
	defer stop()
	versions := make([]uint64, len(ops))
	for i, h := range handles {
		if v, err := m.awaitCommit(h, expired); err == nil {
			versions[i] = v // else it stays 0: not committed
		}
	}
	return wire.EncodeFrame(func(w *wire.Writer) {
		w.Uvarint(uint64(len(versions)))
		for _, v := range versions {
			w.Uvarint(v)
		}
	}), nil
}

// enqueueWrite adds an admitted write to the accumulator and flushes if
// the batch is full. A short batch is flushed by a timer after
// BatchTimeout; with BatchSize <= 1 every write flushes immediately, as
// a batch of one.
//
// The timer is armed exactly once per batch, when the queue goes from
// empty to non-empty, and both the armed flag and the firing check are
// keyed by that batch's generation. Keying by a shared boolean instead
// let a stale timer task from an earlier generation clear the flag and
// re-arm mid-batch, so under synchronized writers back-to-back waves
// were cut into sub-size timer flushes instead of coalescing into full
// batches (visible as E15's BatchFlushTimer column).
func (m *Master) enqueueWrite(bw batchWaiter) error {
	m.mu.Lock()
	// Adaptive flush bookkeeping: smooth the inter-arrival gap so the
	// timeout below can estimate how long the open batch needs to fill.
	// Gaps are capped at BatchTimeout — an idle stretch between bursts
	// says nothing about the rate inside a burst.
	if m.cfg.BatchAdaptive {
		now := m.rt.Now()
		if !m.lastArrival.IsZero() {
			gap := now.Sub(m.lastArrival)
			if gap > m.cfg.BatchTimeout {
				gap = m.cfg.BatchTimeout
			}
			// Same-instant arrivals (a WriteMulti wave) are real rate
			// evidence, not "no data": floor the sample so the EWMA
			// reflects them instead of staying at the unset sentinel.
			if gap <= 0 {
				gap = time.Microsecond
			}
			if m.arrivalEWMA == 0 {
				m.arrivalEWMA = gap
			} else {
				m.arrivalEWMA = (3*m.arrivalEWMA + gap) / 4
			}
		}
		m.lastArrival = now
	}
	m.batchQueue = append(m.batchQueue, bw)
	full := len(m.batchQueue) >= m.cfg.BatchSize
	armTimer := !full && len(m.batchQueue) == 1
	timeout := m.cfg.BatchTimeout
	if armTimer {
		m.timerArmed = true
		m.timerGen = m.batchGen
		if m.cfg.BatchAdaptive {
			timeout = adaptiveFlushTimeout(m.arrivalEWMA, m.cfg.BatchTimeout)
		}
	}
	gen := m.batchGen
	m.mu.Unlock()

	if full {
		return m.flushBatch(gen, false)
	}
	if armTimer {
		m.rt.Spawn(func() {
			if m.rt.Sleep(timeout) != nil {
				return
			}
			m.mu.Lock()
			fire := m.timerArmed && m.timerGen == gen &&
				m.batchGen == gen && len(m.batchQueue) > 0
			if m.timerArmed && m.timerGen == gen {
				m.timerArmed = false
			}
			m.mu.Unlock()
			if fire {
				m.flushBatch(gen, true)
			}
		})
	}
	return nil
}

// adaptiveFlushTimeout decides how long the open batch's timer waits
// for company: four typical inter-arrival gaps (EWMA-smoothed). If no
// write lands within that window the stream has paused and holding the
// partial batch only adds latency — at the observed rate the batch was
// going to fill or flush by then anyway. The wait is clamped to
// [BatchTimeout/16, BatchTimeout]: the floor keeps a rate
// mis-estimate from spinning the flush timer, the cap preserves the
// static bound. A zero EWMA means no gap has been observed yet; the
// static timeout applies.
func adaptiveFlushTimeout(ewma, batchTimeout time.Duration) time.Duration {
	if ewma <= 0 {
		return batchTimeout
	}
	timeout := 4 * ewma
	if timeout > batchTimeout {
		timeout = batchTimeout
	}
	if min := batchTimeout / 16; timeout < min {
		timeout = min
	}
	return timeout
}

// flushBatch takes the accumulated batch (if gen still names it), paces
// it by the §3.1 spacing rule — one max_latency slot per commit event,
// which a batch is — and submits it to the ordered broadcast.
func (m *Master) flushBatch(gen uint64, byTimer bool) error {
	m.mu.Lock()
	if m.batchGen != gen || len(m.batchQueue) == 0 {
		m.mu.Unlock()
		return nil // another flush won the race
	}
	batch := m.batchQueue
	m.batchQueue = nil
	m.batchGen++
	m.batchNo++
	no := m.batchNo
	m.inflight[no] = batch
	if m.timerArmed && m.timerGen == gen {
		m.timerArmed = false // this batch's timer lost the race; disarm it
	}
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
	if wait > 0 {
		if err := m.rt.Sleep(wait); err != nil {
			m.failBatch(no)
			return err
		}
	}

	if err := m.bcast.Broadcast(encodeBatchMessage(m.cfg.Addr, no, batch)); err != nil {
		m.failBatch(no)
		return err
	}
	return nil
}

// takeInflight removes and returns this master's own batch no, whose
// delivered frame carried n ops; nil for another master's batch, one
// already taken, or one from before a restart. The caller resolves the
// waiters: removal under mu is what makes that happen exactly once.
func (m *Master) takeInflight(origin string, no uint64, n int) []batchWaiter {
	if origin != m.cfg.Addr {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	batch := m.inflight[no]
	if len(batch) != n { // b.submit is unauthenticated: never index past a forged frame
		return nil
	}
	delete(m.inflight, no)
	return batch
}

// failBatch releases every waiter of a batch that could not be
// broadcast; version 0 marks "not committed".
func (m *Master) failBatch(no uint64) {
	m.mu.Lock()
	batch := m.inflight[no]
	delete(m.inflight, no)
	m.mu.Unlock()
	for _, bw := range batch {
		bw.h.resolve(0)
	}
}

// commitHandle is what a write waiter holds: a promise in virtual time or
// a channel in real time. It is resolved exactly once, by whoever took
// its batch out of inflight.
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

// cancelQueued removes a write that is still waiting in the batch
// accumulator; it reports whether the write was withdrawn before any
// flush took it.
func (m *Master) cancelQueued(h commitHandle) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, bw := range m.batchQueue {
		if bw.h == h {
			m.batchQueue = append(m.batchQueue[:i], m.batchQueue[i+1:]...)
			return true
		}
	}
	return false
}

// commitDeadline starts the one timer a request's commit waits share:
// expired is closed ReadTimeout from now, stop releases the timer (a
// time.After per write would stay live until the deadline passes even
// after the commit arrives, pinning megabytes of timers under load).
// Virtual-time waits ignore it: they end through promises and the sim's
// shutdown semantics.
func (m *Master) commitDeadline() (expired <-chan struct{}, stop func()) {
	done := make(chan struct{})
	timer := time.AfterFunc(m.cfg.Params.ReadTimeout, func() { close(done) })
	return done, func() { timer.Stop() }
}

// awaitCommit waits for a write's commit until expired is closed.
func (m *Master) awaitCommit(h commitHandle, expired <-chan struct{}) (uint64, error) {
	if h.ch != nil {
		select {
		case v := <-h.ch:
			return v, nil
		case <-expired:
			// Withdraw from the accumulator: a write removed while still
			// queued is guaranteed never to commit, so the client's
			// timeout error is truthful and a retry cannot double-apply.
			// One already flushed is past the point of no return and may
			// still commit (the window between broadcast and delivery).
			m.cancelQueued(h)
			return 0, rpc.ErrTimeout
		}
	}
	v, err := h.p.Future().Await()
	if err != nil {
		return 0, err
	}
	return v.(uint64), nil
}

// deliver is the broadcast delivery callback: every master executes the
// same ordered messages.
func (m *Master) deliver(seq uint64, msg []byte) {
	r := wire.NewReader(msg)
	kind := r.Byte()
	switch kind {
	case bcBatch:
		origin, no, ops, err := decodeBatchMessage(r)
		if err != nil {
			return
		}
		m.applyBatch(seq, ops, m.takeInflight(origin, no, len(ops)))
	case bcCheckpoint:
		m.applyCheckpoint(seq, r)
	case bcSlaveList:
		masterAddr := r.String()
		n := r.Count() // b.submit is unauthenticated: never size a slice by a forged count
		entries := make([]slaveEntry, 0, n)
		for i := 0; i < n; i++ {
			cert, err := pki.DecodeCertificate(r)
			if err != nil {
				return
			}
			entries = append(entries, slaveEntry{addr: cert.Addr, pub: cert.Subject, cert: cert})
		}
		if r.Done() != nil {
			return
		}
		m.mu.Lock()
		if masterAddr != m.cfg.Addr {
			m.peerSlaves[masterAddr] = entries
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
// the origin master and its batch number — by which the origin alone finds
// the batch's waiters again — then the ops (detached: the archive keeps it).
func encodeBatchMessage(origin string, no uint64, batch []batchWaiter) []byte {
	return wire.EncodeFrame(func(w *wire.Writer) {
		w.Byte(bcBatch)
		w.String_(origin)
		w.Uvarint(no)
		w.Uvarint(uint64(len(batch)))
		for _, bw := range batch {
			w.Bytes_(bw.opBytes)
		}
	})
}

// decodeBatchMessage parses a bcBatch broadcast body (after the kind
// byte). The op bytes alias the message, which the archive retains.
func decodeBatchMessage(r *wire.Reader) (origin string, no uint64, ops [][]byte, err error) {
	origin = r.String()
	no = r.Uvarint()
	ops = r.BytesSliceView()
	return origin, no, ops, r.Done()
}

// applyBatch executes one delivered commit — a batch of one or more
// writes, all on this one path — identically on every master: apply each op in order (one
// version per op, exactly the sequence sequential commits would
// produce), then sign a single stamp over the batch and push a single
// update per slave. Undecodable ops are skipped deterministically (every
// replica runs the same check), so replicas stay in lock-step. seq is
// the broadcast slot that carried the commit; it anchors the batch
// boundary for checkpoint truncation of the broadcast archive. waiters,
// nil on every master but the batch's origin, are the writers waiting
// for batch[i]'s version.
func (m *Master) applyBatch(seq uint64, batch [][]byte, waiters []batchWaiter) {
	m.mu.Lock()
	first := m.store.Version() + 1
	ops := make([][]byte, 0, len(batch))
	versions := make([]uint64, len(waiters)) // 0: skipped, not committed
	var opBytesTotal int
	for i, opBytes := range batch {
		op, err := store.DecodeOp(opBytes)
		if err != nil {
			continue
		}
		m.store.Apply(op)
		ops = append(ops, opBytes)
		opBytesTotal += len(opBytes)
		if waiters != nil {
			versions[i] = m.store.Version()
		}
	}
	if len(ops) == 0 {
		m.mu.Unlock()
		for _, bw := range waiters {
			bw.h.resolve(0)
		}
		return
	}
	last := m.store.Version()

	// One signature per batch (§3.4 amortization), over the root of the
	// batch's merkle tree — a tree of one leaf when the commit is a single
	// write. The op log keeps a membership proof per op (sync replies can
	// ship part of a batch); the update pushed to the slaves below ships
	// none.
	now := m.rt.Now()
	count := uint64(len(ops))
	stamp := SignBatchStamp(m.cfg.Keys, last, now, m.batch.rebuild(first, ops).Root())
	m.logBatchLocked(first, ops, stamp)
	// Mark the batch boundary for the checkpoint machinery: the state
	// digest here is what a checkpoint at version `last` would certify,
	// and seq is the archive slot stability can truncate up to. Without
	// checkpointing nothing ever prunes the marks, so skip them.
	if m.cfg.CheckpointEvery > 0 {
		m.marks = append(m.marks, versionMark{version: last, digest: m.store.StateDigest(), seq: seq})
	}
	// The newest applied batch is the recovery anchor: a restart that
	// replays durable state up to `last` resumes broadcast delivery at
	// seq+1, and catch-up syncs report it so a recovering peer can
	// anchor likewise. Maintained even without checkpointing.
	m.lastMark = versionMark{version: last, seq: seq}
	// Build the WAL record while the lock pins (seq, first, ops, stamp)
	// consistent; the append itself happens below, off-lock but still
	// inside the serialized delivery drainer.
	var walRec []byte
	if m.wlog != nil {
		walRec = encodeWALRecord(seq, first, ops, stamp)
	}
	// Snapshot-refresh trigger (bounds the snapshot-first sync suffix):
	// the retained snapshot otherwise only advances when a checkpoint
	// applies, so under a sustained write rate the OpRecord suffix such a
	// sync ships grows with rate x CheckpointEvery. Re-encode the state
	// once the op bytes logged since the snapshot exceed its own size: no
	// sync ships a suffix larger than its snapshot, and re-encoding costs
	// amortised O(1) per written byte. Signing happens off-lock.
	m.loggedBytes += uint64(opBytesTotal)
	var refresh *ckptSnapshot
	if m.snap != nil && !m.snapRefresh && m.loggedBytes-m.snap.logged > uint64(len(m.snap.bytes)) {
		m.snapRefresh = true
		refresh = &ckptSnapshot{version: last, bytes: m.store.EncodeSnapshot(), logged: m.loggedBytes}
	}
	m.lastCommit = now
	m.stats.WritesApplied += count
	m.stats.BatchesApplied++
	// Until the WAL sync below returns, no writer has been answered and
	// no slave sent this batch: keep-alives stamp below it meanwhile.
	m.unacked = count
	slaves := append([]slaveEntry(nil), m.slaves...)
	m.mu.Unlock()

	if refresh != nil {
		m.rt.Spawn(func() { m.refreshSnapshot(refresh) })
	}
	chargeCPU(m.cfg.CPU, m.cfg.Params.Costs.Sign) // once per batch
	chargeCPU(m.cfg.CPU, m.cfg.Params.Costs.BatchOverhead(len(ops), opBytesTotal))
	for range ops {
		chargeCPU(m.cfg.CPU, m.cfg.Params.Costs.QueryBase) // apply cost
	}

	// Durability before acknowledgement: the batch's record reaches the
	// WAL (and, under the per-batch fsync policy, stable storage) before
	// any waiter is released, so an acked write is never lost to a
	// restart. A write error degrades durability, not consistency — the
	// batch is already committed cluster-wide — so it must not fail the
	// ack.
	if walRec != nil {
		m.walMu.Lock()
		if err := m.wlog.Append(walRec); err == nil && m.cfg.WALSyncEvery == 0 {
			m.wlog.Sync()
		}
		m.walMu.Unlock()
		if m.walHook != nil {
			m.walHook(last)
		}
	}

	m.mu.Lock()
	m.unacked = 0
	m.mu.Unlock()
	for i, bw := range waiters {
		bw.h.resolve(versions[i])
	}

	// Single lazy update per slave (§3.1), whatever the batch size.
	frame := EncodeBatchUpdate(BatchUpdate{First: first, Ops: ops, Stamp: stamp, MasterAddr: m.cfg.Addr})
	for _, sl := range slaves {
		sl := sl
		m.rt.Spawn(func() {
			chargeCPU(m.cfg.CPU, m.cfg.Params.Costs.SendReply)
			ack, err := m.dlr.CallTimeout(sl.addr, MethodUpdateBatch, frame, m.cfg.Params.ReadTimeout)
			if err == nil {
				if v, ok := parseAck(ack); ok {
					m.recordAck(sl.addr, v)
				}
			}
			m.mu.Lock()
			m.stats.UpdatesSent++
			m.mu.Unlock()
		})
	}
}

// logBatchLocked appends one committed batch's OpRecords to the op log,
// with proofs from m.batch.tree, which the caller has just rebuilt over
// ops. Caller holds m.mu (or runs before concurrency, in replay).
func (m *Master) logBatchLocked(first uint64, ops [][]byte, stamp VersionStamp) {
	tree := &m.batch.tree
	// The log retains the proofs, so their steps must own fresh memory —
	// but one backing array covers the whole batch.
	depth := tree.Depth()
	backing := make([]merkle.ProofStep, len(ops)*depth)
	for i, opBytes := range ops {
		off := i * depth
		// i indexes the tree just built over ops, so ProveInto cannot fail.
		proof, _ := tree.ProveInto(i, backing[off:off:off+depth])
		m.log = append(m.log, OpRecord{
			Version: first + uint64(i), OpBytes: opBytes,
			Stamp: stamp, First: first, Count: uint64(len(ops)), Proof: proof,
		})
	}
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
	excl := make(map[string]bool, len(exclude))
	for _, a := range exclude {
		excl[a] = true
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	var picked []slaveEntry
	for i := 0; i < len(m.slaves) && len(picked) < count; i++ {
		e := m.slaves[(m.rrNext+i)%len(m.slaves)]
		if excl[e.addr] || m.excluded[string(e.pub)] {
			continue
		}
		picked = append(picked, e)
	}
	if len(picked) == 0 {
		return nil, ErrNoSlaves
	}
	m.rrNext = (m.rrNext + 1) % max(1, len(m.slaves))
	m.clients[string(clientPub)] = &clientEntry{
		addr: clientAddr, pub: clientPub, slaveAddr: picked[0].addr,
	}
	w := wire.NewWriter(256)
	w.Uvarint(uint64(len(picked)))
	for _, e := range picked {
		e.cert.Encode(w)
	}
	return w.Bytes(), nil
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
		m.rng.Float64() < m.cfg.Params.GreedyDropFrac
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
	chargeMemoised(m.cfg.CPU, m.cfg.Params.Costs, m.cfg.Params.Costs.QueryCost(res.Scanned), hit)
	chargeCPU(m.cfg.CPU, m.cfg.Params.Costs.HashCost(len(res.Payload)))
	digest := res.Digest()

	w := wire.NewWriter(64 + len(res.Payload))
	w.Uvarint(version)
	w.Bytes_(digest[:])
	if wantPayload {
		chargeCPU(m.cfg.CPU, m.cfg.Params.Costs.SendReply)
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
	chargeCPU(m.cfg.CPU, m.cfg.Params.Costs.VerifySig)
	if err := pledge.VerifySig(); err != nil {
		return nil, err // a forged pledge can never frame a slave (§3.3)
	}

	m.mu.Lock()
	m.stats.Reports++
	sameVersion := m.store.Version() == pledge.Stamp.Version
	m.mu.Unlock()

	proven := false
	if sameVersion {
		m.mu.Lock()
		ok, _, err := CheckPledgeAgainst(m.store, &pledge)
		m.mu.Unlock()
		if err != nil {
			return nil, err
		}
		chargeCPU(m.cfg.CPU, m.cfg.Params.Costs.QueryBase)
		proven = ok
	}
	if !proven && len(auditorSig) > 0 &&
		cryptoutil.Verify(m.cfg.AuditorPub, pledgeBytes, auditorSig) == nil {
		// The auditor re-executed at the correct version; it is a trusted
		// server and its signature authenticates the report (the pledge
		// itself remains the evidence of record).
		chargeCPU(m.cfg.CPU, m.cfg.Params.Costs.VerifySig)
		proven = true
	}
	if !proven {
		return nil, ErrNotProven
	}

	// Propagate the exclusion through the ordered broadcast so every
	// master updates its view and exactly one (the slave's owner)
	// reassigns the affected clients.
	w := wire.NewWriter(len(body) + 8)
	w.Byte(bcExclude)
	pledge.Encode(w)
	if err := m.bcast.Broadcast(w.Bytes()); err != nil {
		return nil, err
	}
	return nil, nil
}

func (m *Master) applyExclude(r *wire.Reader) {
	pledge, err := DecodePledge(r)
	if err != nil {
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
	ownIdx := -1
	for i, e := range m.slaves {
		if string(e.pub) == slavePub {
			ownIdx = i
			break
		}
	}
	var excludedAddr string
	if ownIdx >= 0 {
		excludedAddr = m.slaves[ownIdx].addr
		m.slaves = append(m.slaves[:ownIdx], m.slaves[ownIdx+1:]...)
		delete(m.acks, excludedAddr)
		m.stats.Exclusions++
	}
	m.mu.Unlock()
	if ownIdx < 0 {
		return
	}

	// Record the signed exclusion with the directory (evidence attached).
	chargeCPU(m.cfg.CPU, m.cfg.Params.Costs.Sign)
	excl := pki.Exclusion{
		Subject:  pledge.SlavePub,
		Reason:   "pledged result hash does not match trusted re-execution",
		At:       m.rt.Now(),
		Evidence: EncodePledge(pledge),
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
		var repl *slaveEntry
		for i := 0; i < len(m.slaves); i++ {
			e := m.slaves[(m.rrNext+i)%len(m.slaves)]
			if !m.excluded[string(e.pub)] {
				repl = &e
				break
			}
		}
		if len(m.slaves) > 0 {
			m.rrNext = (m.rrNext + 1) % len(m.slaves)
		}
		if repl != nil {
			c.slaveAddr = repl.addr
		}
		m.mu.Unlock()
		if repl == nil {
			continue
		}
		w := wire.NewWriter(512)
		excl.Encode(w)
		repl.cert.Encode(w)
		chargeCPU(m.cfg.CPU, m.cfg.Params.Costs.SendReply)
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
	cert := pki.Certificate{
		Role: pki.RoleSlave, Addr: addr, Subject: pub, IssuedAt: m.rt.Now(),
	}
	cert.Sign(m.cfg.Keys)
	w := wire.NewWriter(512)
	w.Byte(bcReadmit)
	w.String_(m.cfg.Addr) // the readmitting owner
	cert.Encode(w)
	return m.bcast.Broadcast(w.Bytes())
}

func (m *Master) applyReadmit(r *wire.Reader) {
	owner := r.String()
	cert, err := pki.DecodeCertificate(r)
	if err != nil {
		return
	}
	m.mu.Lock()
	delete(m.excluded, string(cert.Subject))
	if owner == m.cfg.Addr {
		// Rejoin our slave set unless it is already present.
		present := false
		for _, e := range m.slaves {
			if e.addr == cert.Addr {
				present = true
				break
			}
		}
		if !present {
			m.slaves = append(m.slaves, slaveEntry{addr: cert.Addr, pub: cert.Subject, cert: cert})
			m.acks[cert.Addr] = slaveAck{version: 0, at: m.rt.Now()}
		}
	}
	m.mu.Unlock()
	if owner == m.cfg.Addr {
		if err := m.cfg.Directory.ClearExclusion(cert.Subject); err != nil {
			m.mu.Lock()
			m.stats.DirectoryErrors++
			m.mu.Unlock()
		}
		// Bring it up to date immediately with a keep-alive.
		m.rt.Spawn(func() {
			m.mu.Lock()
			version := m.ackedVersionLocked()
			m.mu.Unlock()
			stamp := SignStamp(m.cfg.Keys, version, m.rt.Now())
			w := wire.NewWriter(160)
			stamp.Encode(w)
			w.String_(m.cfg.Addr)
			m.dlr.CallTimeout(cert.Addr, MethodKeepAlive, w.Bytes(), m.cfg.Params.ReadTimeout)
		})
	}
}

// --- Background loops ---------------------------------------------------------

// ackedVersionLocked is the newest acknowledged version, which is what a
// keep-alive certifies as current. The store runs ahead of it while
// applyBatch syncs the WAL; a stamp naming that version would reach slaves
// before their update and make them pull a needless sync. Caller holds m.mu.
func (m *Master) ackedVersionLocked() uint64 {
	return m.store.Version() - m.unacked
}

func (m *Master) keepAliveLoop() {
	for {
		if m.rt.Sleep(m.cfg.Params.KeepAliveEvery) != nil {
			return
		}
		m.mu.Lock()
		if m.stopped {
			m.mu.Unlock()
			return
		}
		version := m.ackedVersionLocked()
		slaves := append([]slaveEntry(nil), m.slaves...)
		m.mu.Unlock()
		chargeCPU(m.cfg.CPU, m.cfg.Params.Costs.Sign)
		stamp := SignStamp(m.cfg.Keys, version, m.rt.Now())
		// Detached frame: the dialer tasks below retain it.
		frame := wire.EncodeFrame(func(w *wire.Writer) {
			stamp.Encode(w)
			w.String_(m.cfg.Addr)
		})
		for _, sl := range slaves {
			sl := sl
			m.rt.Spawn(func() {
				// The slave's reply acknowledges its applied version — the
				// stability signal the checkpoint machinery runs on.
				ack, err := m.dlr.CallTimeout(sl.addr, MethodKeepAlive, frame, m.cfg.Params.KeepAliveEvery)
				if err == nil {
					if v, ok := parseAck(ack); ok {
						m.recordAck(sl.addr, v)
					}
				}
				m.mu.Lock()
				m.stats.KeepAlivesSent++
				m.mu.Unlock()
			})
		}
	}
}

func (m *Master) slaveListLoop() {
	for {
		if m.rt.Sleep(m.cfg.SlaveListEvery) != nil {
			return
		}
		m.mu.Lock()
		if m.stopped {
			m.mu.Unlock()
			return
		}
		slaves := append([]slaveEntry(nil), m.slaves...)
		m.mu.Unlock()
		w := wire.NewWriter(1024)
		w.Byte(bcSlaveList)
		w.String_(m.cfg.Addr)
		w.Uvarint(uint64(len(slaves)))
		for _, e := range slaves {
			e.cert.Encode(w)
		}
		m.bcast.Broadcast(w.Bytes())
	}
}

// crashMonitorLoop watches for crashed masters and initiates slave-set
// redistribution (§3: "in the event of a master crash, the remaining ones
// will divide its slave set").
func (m *Master) crashMonitorLoop() {
	for {
		if m.rt.Sleep(m.cfg.SlaveListEvery) != nil {
			return
		}
		m.mu.Lock()
		if m.stopped {
			m.mu.Unlock()
			return
		}
		m.mu.Unlock()
		for _, dead := range m.bcast.SuspectedPeers() {
			if dead == m.cfg.AuditorAddr {
				continue
			}
			m.mu.Lock()
			already := m.adopted[dead]
			_, known := m.peerSlaves[dead]
			m.mu.Unlock()
			if already || !known {
				continue
			}
			if !m.isLowestSurvivor(dead) {
				continue
			}
			m.initiateAdoption(dead)
		}
	}
}

// isLowestSurvivor reports whether this master is the first non-suspected
// non-auditor peer, and therefore the one that coordinates redistribution.
func (m *Master) isLowestSurvivor(dead string) bool {
	suspected := map[string]bool{dead: true}
	for _, s := range m.bcast.SuspectedPeers() {
		suspected[s] = true
	}
	for _, p := range m.cfg.Peers {
		if p == m.cfg.AuditorAddr || suspected[p] {
			continue
		}
		return p == m.cfg.Addr
	}
	return false
}

// initiateAdoption broadcasts the division of a dead master's slave set
// among the survivors, round-robin in peer order.
func (m *Master) initiateAdoption(dead string) {
	m.mu.Lock()
	orphans := m.peerSlaves[dead]
	m.mu.Unlock()
	suspected := map[string]bool{dead: true}
	for _, s := range m.bcast.SuspectedPeers() {
		suspected[s] = true
	}
	var survivors []string
	for _, p := range m.cfg.Peers {
		if p == m.cfg.AuditorAddr || suspected[p] {
			continue
		}
		survivors = append(survivors, p)
	}
	if len(survivors) == 0 {
		return
	}
	w := wire.NewWriter(1024)
	w.Byte(bcAdopt)
	w.String_(dead)
	w.Uvarint(uint64(len(orphans)))
	for i, e := range orphans {
		w.String_(survivors[i%len(survivors)]) // new owner
		e.cert.Encode(w)
	}
	m.bcast.Broadcast(w.Bytes())
}

func (m *Master) applyAdopt(r *wire.Reader) {
	dead := r.String()
	n := r.Count()
	type assignment struct {
		owner string
		cert  pki.Certificate
	}
	assigns := make([]assignment, 0, n)
	for i := 0; i < n; i++ {
		owner := r.String()
		cert, err := pki.DecodeCertificate(r)
		if err != nil {
			return
		}
		assigns = append(assigns, assignment{owner, cert})
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
	var mine []slaveEntry
	for _, a := range assigns {
		if a.owner == m.cfg.Addr && !m.excluded[string(a.cert.Subject)] {
			e := slaveEntry{addr: a.cert.Addr, pub: a.cert.Subject, cert: a.cert}
			// Re-issue the certificate under this master's key.
			e.cert = pki.Certificate{
				Role: pki.RoleSlave, Addr: e.addr, Subject: e.pub, IssuedAt: m.rt.Now(),
			}
			e.cert.Sign(m.cfg.Keys)
			m.slaves = append(m.slaves, e)
			m.acks[e.addr] = slaveAck{version: 0, at: m.rt.Now()}
			m.stats.SlavesAdopted++
			mine = append(mine, e)
		}
	}
	m.mu.Unlock()
	// The coordinating master withdraws the dead master's directory entry.
	if m.isLowestSurvivor(dead) {
		m.rt.Spawn(func() {
			// Dead master's key is unknown here; withdraw by looking up
			// its certificate through the directory.
			masters, err := m.cfg.Directory.VerifiedMasters()
			if err != nil {
				return
			}
			for _, c := range masters {
				if c.Addr == dead {
					if werr := m.cfg.Directory.Withdraw(c.Subject); werr != nil {
						m.mu.Lock()
						m.stats.DirectoryErrors++
						m.mu.Unlock()
					}
				}
			}
		})
	}
	// Repoint adopted slaves at this master immediately with a keep-alive
	// carrying our stamp; the slave learns its new sync source.
	for _, e := range mine {
		e := e
		m.rt.Spawn(func() {
			m.mu.Lock()
			version := m.store.Version()
			m.mu.Unlock()
			stamp := SignStamp(m.cfg.Keys, version, m.rt.Now())
			w := wire.NewWriter(128)
			stamp.Encode(w)
			w.String_(m.cfg.Addr)
			m.dlr.CallTimeout(e.addr, MethodKeepAlive, w.Bytes(), m.cfg.Params.ReadTimeout)
		})
	}
}
