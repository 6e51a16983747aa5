package core

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/cryptoutil"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

// SlaveStats counts a slave's activity; the harness reads them after a
// run. All fields are monotone counters.
type SlaveStats struct {
	ReadsServed    uint64
	ReadsLied      uint64
	ReadsRefused   uint64 // refused because the slave's stamp was stale
	UpdatesOK      uint64
	BatchesApplied uint64 // batched updates applied (1 sig verify each)
	UpdatesSynced  uint64 // updates recovered via m.sync after a gap
	SnapshotSyncs  uint64 // syncs answered snapshot-first (history truncated)
	SyncsSkipped   uint64 // sync requests elided by the single-flight guard
	KeepAlives     uint64
	// StampCacheHits/Misses count verified-stamp cache consultations: a
	// hit replaces an ed25519 verification with a hash lookup.
	StampCacheHits   uint64
	StampCacheMisses uint64
	// PledgeCacheHits/Misses count signed-pledge table consultations: a
	// hit re-issues the signature already made for the same pledge body
	// (same query, result and version) instead of signing again.
	PledgeCacheHits   uint64
	PledgeCacheMisses uint64
}

// SlaveConfig configures a slave server.
type SlaveConfig struct {
	Addr       string
	Keys       *cryptoutil.KeyPair
	Params     Params
	MasterAddr string
	// MasterPubs are the trusted master keys used to verify stamps.
	MasterPubs []cryptoutil.PublicKey
	// Behavior is Honest{} for a correct slave or a malicious model.
	Behavior Behavior
	// CPU, if non-nil, charges modelled service times (simulation).
	CPU *sim.Resource
	// Seed drives the behaviour model's randomness.
	Seed int64
}

// Slave holds a copy of the content and executes read queries, returning
// a signed pledge with every answer (§3.2). It applies state updates
// pushed by its master strictly in version order and refuses reads when
// its latest stamp is older than max_latency (§3.1: a correct slave
// "should stop handling user requests until they are back in sync").
type Slave struct {
	cfg SlaveConfig
	rt  sim.Runtime
	dlr rpc.Dialer
	rng *rand.Rand

	mu        sync.Mutex
	store     *store.Store // guarded by mu
	lastStamp VersionStamp // guarded by mu
	syncing   bool         // guarded by mu; single-flight: at most one syncFrom in progress
	stats     SlaveStats   // guarded by mu
	memo      resultMemo   // guarded by mu; honest answers to expensive queries at the replica's version

	stamps  *sigCache // verified-stamp cache (amortizes repeat Verify)
	pledges *sigCache // signed-pledge table (amortizes repeat Sign)

	// batch is where pushed batches' merkle roots are rebuilt. It has its
	// own lock because reads take mu and a 256-op rebuild is ~0.2 ms.
	batchMu sync.Mutex
	batch   batchScratch // guarded by batchMu
}

// NewSlave creates a slave over an initial content replica (cloned).
func NewSlave(cfg SlaveConfig, rt sim.Runtime, dlr rpc.Dialer, initial *store.Store) *Slave {
	if cfg.Behavior == nil {
		cfg.Behavior = Honest{}
	}
	return &Slave{
		cfg:     cfg,
		rt:      rt,
		dlr:     dlr,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		store:   initial.Clone(),
		stamps:  newSigCache(),
		pledges: newSigCache(),
	}
}

// Stats returns a snapshot of the slave's counters.
func (s *Slave) Stats() SlaveStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.StampCacheHits, st.StampCacheMisses = s.stamps.stats()
	st.PledgeCacheHits, st.PledgeCacheMisses = s.pledges.stats()
	return st
}

// verifyStamp checks a stamp signature through the verified-stamp cache,
// charging the modelled cost of the work actually done: a full signature
// verification on a miss, a cache lookup on a hit.
func (s *Slave) verifyStamp(v *VersionStamp) error {
	hit, err := s.stamps.verifyStamp(v, s.cfg.MasterPubs)
	if err != nil {
		return err
	}
	chargeMemoised(s.cfg.CPU, s.cfg.Params.Costs, s.cfg.Params.Costs.VerifySig, hit)
	return nil
}

// Version returns the slave replica's content version.
func (s *Slave) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.Version()
}

// StateDigest exposes the replica digest for convergence checks.
func (s *Slave) StateDigest() cryptoutil.Digest {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.StateDigest()
}

// Addr returns the slave's address.
func (s *Slave) Addr() string { return s.cfg.Addr }

// PublicKey returns the slave's public key.
func (s *Slave) PublicKey() cryptoutil.PublicKey { return s.cfg.Keys.Public }

// SetMaster repoints the slave at a new master (used after a master
// crash, when survivors divide the dead master's slave set).
func (s *Slave) SetMaster(addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.MasterAddr = addr
}

// SetBehavior swaps the slave's behaviour model. It models §3.5 recovery:
// a compromised slave restored "to a safe state" becomes Honest again
// before being readmitted.
func (s *Slave) SetBehavior(b Behavior) {
	if b == nil {
		b = Honest{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.Behavior = b
}

// Bootstrap replaces the slave's replica with a verified full state
// transfer from its master. Recovered or newly provisioned slaves call it
// before (re)entering service. Unlike a sync it installs the master's
// snapshot whatever version the replica claims to be at: the state of a
// slave recovering from a compromise means nothing.
func (s *Slave) Bootstrap() error {
	s.mu.Lock()
	masterAddr := s.cfg.MasterAddr
	s.mu.Unlock()
	st, err := fetchStateTransfer(s.dlr, masterAddr, 0, s.cfg.Params, s.cfg.CPU, s.cfg.MasterPubs, s.stamps)
	if err != nil {
		return err
	}
	if st.snap == nil {
		return fmt.Errorf("core: bootstrap: master sent no snapshot")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store = st.snap
	if _, err := st.replayOnto(s.store); err != nil {
		return err
	}
	s.lastStamp = st.closing
	return nil
}

// Handle routes the slave's RPC methods.
func (s *Slave) Handle(from, method string, body []byte) ([]byte, error) {
	switch method {
	case MethodUpdateBatch:
		return s.handleUpdateBatch(from, body)
	case MethodKeepAlive:
		return s.handleKeepAlive(from, body)
	case MethodRead:
		return s.handleRead(body)
	}
	return nil, fmt.Errorf("core: slave: unknown method %q", method)
}

func (s *Slave) handleKeepAlive(from string, body []byte) ([]byte, error) {
	r := wire.NewReader(body)
	stamp, err := DecodeStamp(r)
	if err != nil {
		return nil, err
	}
	masterAddr := r.String()
	if err := r.Done(); err != nil {
		return nil, err
	}
	if _, err := s.stamps.verifyStamp(&stamp, s.cfg.MasterPubs); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.KeepAlives++
	// The keep-alive names its sending master; adopt it as our sync
	// source (handles slave-set redistribution after a master crash). A
	// spoofed address could at worst stall syncs — synced ops themselves
	// verify against master-signed stamps.
	if masterAddr != "" {
		s.cfg.MasterAddr = masterAddr
	}
	s.adoptStampLocked(stamp)
	// A keep-alive for a version ahead of the replica means updates were
	// lost; recover them in the background.
	if stamp.Version > s.store.Version() && !s.droppingLocked() {
		syncAddr := s.cfg.MasterAddr
		s.rt.Spawn(func() { s.syncFrom(syncAddr) })
	}
	// Acknowledge the applied version: masters aggregate these acks into
	// the stability point that drives checkpoint truncation.
	return s.ackLocked(), nil
}

// adoptStampLocked makes stamp the slave's latest if it is newer. Caller
// holds s.mu.
func (s *Slave) adoptStampLocked(stamp VersionStamp) {
	if stamp.Timestamp.After(s.lastStamp.Timestamp) && stamp.Version >= s.lastStamp.Version {
		s.lastStamp = stamp
	}
}

// ackLocked encodes the slave's applied-version acknowledgement, the
// reply body for keep-alives and updates. Caller holds s.mu. The frame
// is detached (reply bodies are retained by the transport). An AckForger
// behaviour substitutes its forged version here — the ack channel is the
// attack surface of the checkpoint-gating threat model.
func (s *Slave) ackLocked() []byte {
	v := s.store.Version()
	if f, ok := s.cfg.Behavior.(AckForger); ok {
		v = f.ForgeAck(v, s.lastStamp.Version)
	}
	return wire.EncodeFrame(func(w *wire.Writer) { w.Uvarint(v) })
}

// droppingLocked reports whether the behaviour model currently discards
// state updates (and therefore must not sync either — a dropper that
// synced would quietly repair the very gap it is creating). Caller
// holds s.mu.
func (s *Slave) droppingLocked() bool {
	d, ok := s.cfg.Behavior.(UpdateDropper)
	return ok && d.DropUpdates()
}

// handleUpdateBatch applies one batched commit atomically: the single
// batch-root signature is verified once, then the root is rebuilt over
// the frame's ops and compared with the signed one before any op touches
// the store. The batch either fully applies (up to already-applied
// duplicates) or is rejected whole.
func (s *Slave) handleUpdateBatch(from string, body []byte) ([]byte, error) {
	bu, err := DecodeBatchUpdate(body)
	if err != nil {
		return nil, err
	}
	// One signature verification per batch — the receiving half of the
	// master's signing amortization (a duplicate delivery hits the
	// verified-stamp cache instead) — plus the root rebuild.
	if err := s.verifyStamp(&bu.Stamp); err != nil {
		return nil, err
	}
	var opBytesTotal int
	for _, op := range bu.Ops {
		opBytesTotal += len(op)
	}
	chargeCPU(s.cfg.CPU, s.cfg.Params.Costs.BatchOverhead(len(bu.Ops), opBytesTotal))
	s.batchMu.Lock()
	err = bu.VerifyMembers(&s.batch)
	s.batchMu.Unlock()
	if err != nil {
		return nil, err
	}
	// Decode every op before applying any, so a malformed batch cannot
	// leave the replica half-updated.
	ops := make([]store.Op, len(bu.Ops))
	for i, b := range bu.Ops {
		op, err := store.DecodeOp(b)
		if err != nil {
			return nil, err
		}
		ops[i] = op
	}

	// One hold from the first version check to the stamp's adoption: a read
	// that found the ops applied but the old stamp in place would be
	// refused as stale, and its client would sleep a keep-alive period.
	s.mu.Lock()
	defer s.mu.Unlock()
	if bu.MasterAddr != "" {
		s.cfg.MasterAddr = bu.MasterAddr
	}
	switch cur := s.store.Version(); {
	case s.droppingLocked():
		// The behaviour model discards the whole batch (it still takes
		// the fresher stamp below, which an AckForger acks from).
	case bu.Last() <= cur:
		// Duplicate delivery; still take the fresher stamp below.
	case bu.First > cur+1:
		// Gap: recover the missing range from the master first.
		masterAddr := s.cfg.MasterAddr
		s.mu.Unlock()
		err := s.syncFrom(masterAddr)
		s.mu.Lock()
		if err != nil {
			return nil, err
		}
	default:
		applied := uint64(0)
		for i, op := range ops {
			v := bu.First + uint64(i)
			if v <= cur {
				continue // overlap with already-applied history
			}
			if err := s.store.ApplyAt(v, op); err != nil {
				return nil, err
			}
			applied++
		}
		s.stats.UpdatesOK += applied
		s.stats.BatchesApplied++
	}
	s.adoptStampLocked(bu.Stamp)
	return s.ackLocked(), nil
}

// syncFrom pulls the updates the replica is missing from a master and
// applies them in order. When the master has truncated the wanted history
// below a stability checkpoint the reply is snapshot-first: the snapshot
// replaces the replica if it is newer, and the records committed after it
// are replayed on top.
//
// Syncs are single-flight: every keep-alive or update that shows the
// replica behind spawns a sync, and without the guard a long-offline
// slave would launch one full-history transfer per keep-alive and melt
// its memory. A skipped sync is always retried by the next keep-alive.
func (s *Slave) syncFrom(masterAddr string) error {
	s.mu.Lock()
	if s.syncing {
		s.stats.SyncsSkipped++
		s.mu.Unlock()
		return nil
	}
	s.syncing = true
	from := s.store.Version() + 1
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.syncing = false
		s.mu.Unlock()
	}()

	st, err := fetchStateTransfer(s.dlr, masterAddr, from, s.cfg.Params, s.cfg.CPU, s.cfg.MasterPubs, s.stamps)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.snap != nil && st.snap.Version() > s.store.Version() {
		s.store = st.snap
		s.stats.SnapshotSyncs++
	}
	applied, err := st.replayOnto(s.store)
	s.stats.UpdatesSynced += uint64(len(applied))
	if err != nil {
		return err
	}
	s.adoptStampLocked(st.closing)
	return nil
}

// ReadReply is the slave's answer to a read: the result payload plus the
// signed pledge. XLie is experiment instrumentation only — it records the
// ground truth of whether this answer was falsified so the harness can
// measure undetected-lie rates; it is not part of any signature and no
// protocol decision may depend on it.
type ReadReply struct {
	Payload []byte
	Pledge  Pledge
	XLie    bool
	// pledgeBytes is the pledge as it stood in the decoded frame: what the
	// client forwards is what the slave sent, not a re-encoding of it.
	pledgeBytes []byte
}

// EncodeReadReply serializes a reply to a detached frame (reply bodies
// are retained by the transport).
func EncodeReadReply(rr ReadReply) []byte {
	return wire.EncodeFrame(func(w *wire.Writer) {
		w.Bytes_(rr.Payload)
		rr.Pledge.Encode(w)
		w.Bool(rr.XLie)
	})
}

// DecodeReadReply parses a reply by view: the payload (capacity clipped)
// and the pledge's query, keys and signatures alias b, which the caller
// must own — a reply body is its caller's under both transports.
func DecodeReadReply(b []byte) (ReadReply, error) {
	r := wire.NewReader(b)
	var rr ReadReply
	rr.Payload = r.BytesView()
	start := len(b) - r.Remaining()
	var err error
	rr.Pledge, err = decodePledge(r, (*wire.Reader).BytesView)
	if err != nil {
		return rr, err
	}
	end := len(b) - r.Remaining()
	rr.pledgeBytes = b[start:end:end]
	rr.XLie = r.Bool()
	return rr, r.Done()
}

func (s *Slave) handleRead(body []byte) ([]byte, error) {
	r := wire.NewReader(body)
	// Zero-copy view: the query bytes are re-encoded into the pledge
	// before this handler returns, never retained past body's lifetime.
	queryBytes := r.BytesView()
	if err := r.Done(); err != nil {
		return nil, err
	}

	// One critical section decides freshness and computes (or recalls) the
	// answer. §3.1: a slave may handle requests only while its most recent
	// keep-alive is younger than max_latency. The stamp must also match the
	// replica's version exactly, and still match when the query runs: a
	// result computed at version v' pledged under the stamp for v != v'
	// would make an honest slave provably "malicious" at audit time.
	s.mu.Lock()
	stamp := s.lastStamp
	if stamp.Sig == nil || stamp.Version != s.store.Version() ||
		!stamp.Fresh(s.rt.Now(), s.cfg.Params.MaxLatency) {
		s.stats.ReadsRefused++
		s.mu.Unlock()
		return nil, ErrStale
	}
	res, hit, err := s.memo.execute(s.store, queryBytes)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	costs := s.cfg.Params.Costs
	chargeMemoised(s.cfg.CPU, costs, costs.QueryCost(res.Scanned), hit)

	// The memo holds honest answers only and was consulted first: whether
	// to lie is decided on every read, and a lie is hashed and signed as
	// its own evidence.
	payload := res.Payload
	lied := false
	if corrupted := s.cfg.Behavior.Corrupt(queryBytes, payload, s.rng); corrupted != nil {
		payload = corrupted
		lied = true
	}
	chargeCPU(s.cfg.CPU, costs.HashCost(len(payload)))
	hash := cryptoutil.HashBytes(payload)

	// Signed once per distinct (query, result hash, version): a repeat gets
	// those bytes again beside the current stamp; a lie has its own hash.
	pledge := Pledge{QueryBytes: queryBytes, ResultHash: hash, Stamp: stamp, SlavePub: s.cfg.Keys.Public}
	chargeMemoised(s.cfg.CPU, costs, costs.Sign, s.pledges.signPledge(&pledge, s.cfg.Keys))
	chargeCPU(s.cfg.CPU, costs.SendReply)

	s.mu.Lock()
	s.stats.ReadsServed++
	if lied {
		s.stats.ReadsLied++
	}
	s.mu.Unlock()
	return EncodeReadReply(ReadReply{Payload: payload, Pledge: pledge, XLie: lied}), nil
}
