package core

import (
	"bytes"
	"errors"
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
// Everything its master sends it — a push, a keep-alive, a sync reply, a
// bootstrap — reaches the replica through one ingest, adoptTransferLocked.
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
		stamps:  newSigCache(stampMemoSize),
		pledges: newSigCache(pledgeSignMemoSize),
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
	s.store, s.lastStamp = st.snap, VersionStamp{}
	_, err = s.adoptTransferLocked(st)
	return err
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
	// A keep-alive is a transfer of no batches: nothing to apply or fail.
	_, _ = s.adoptTransferLocked(&stateTransfer{snapStamp: stamp})
	// Acknowledge the applied version: masters aggregate these acks into
	// the stability point that drives checkpoint truncation.
	return s.ackLocked(), nil
}

// adoptStampLocked makes stamp the slave's latest if it is newer: for a
// later version, or for the same version and signed later. Version comes
// first because a master signs a batch's stamp before it syncs the batch
// to its WAL and keeps signing keep-alives for the version before it
// meanwhile: a push can arrive with a stamp older than the keep-alive the
// slave holds, and the slave then needs the push's stamp to serve at the
// push's version. Caller holds s.mu.
func (s *Slave) adoptStampLocked(stamp VersionStamp) {
	if stamp.Version > s.lastStamp.Version ||
		stamp.Version == s.lastStamp.Version && stamp.Timestamp.After(s.lastStamp.Timestamp) {
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

// adoptTransferLocked is the slave's one ingest, named like the master's:
// a push is a transfer of one batch, a keep-alive a transfer of none, a
// sync or a bootstrap the m.sync reply it fetched. A snapshot ahead of the
// replica replaces it, the batches that continue the replica are applied
// (one that starts past it applies nothing) and the newest stamp is
// adopted; a stamp still ahead of the replica means updates were lost,
// and the single-flight sync recovers them in the background. A dropping
// behaviour takes the stamp (an AckForger acks from it) and applies and
// syncs nothing: a sync would quietly repair the very gap it is creating.
// It returns how many ops it applied. Caller holds s.mu.
func (s *Slave) adoptTransferLocked(st *stateTransfer) (int, error) {
	stamp := st.stamp()
	if d, ok := s.cfg.Behavior.(UpdateDropper); ok && d.DropUpdates() {
		s.adoptStampLocked(stamp)
		return 0, nil
	}
	if st.snap != nil && st.snap.Version() > s.store.Version() {
		s.store = st.snap
		s.stats.SnapshotSyncs++
	}
	applied, err := st.replayOnto(s.store, nil)
	if err != nil && !errors.Is(err, store.ErrVersionGap) {
		return applied, err
	}
	s.adoptStampLocked(stamp)
	if stamp.Version > s.store.Version() {
		addr := s.cfg.MasterAddr
		s.rt.Spawn(func() { s.syncFrom(addr) })
	}
	return applied, nil
}

// handleUpdateBatch takes one batched commit as a transfer of one batch:
// the frame's entry is opened by the one rule (openBatch) — one stamp
// signature, memoised, and one hash over the ops — before any op touches
// the store, and the batch either fully applies (up to already-applied
// duplicates) or is rejected whole. A batch past the replica is answered
// at once, with the replica's version; the sync it starts closes the gap.
func (s *Slave) handleUpdateBatch(from string, body []byte) ([]byte, error) {
	r := wire.NewReader(body)
	b, hit, err := openBatch(r, (*wire.Reader).BytesSliceView, s.cfg.MasterPubs, s.stamps)
	if err != nil {
		return nil, err
	}
	masterAddr := r.String()
	if err := r.Done(); err != nil {
		return nil, err
	}
	costs := s.cfg.Params.Costs
	chargeMemoised(s.cfg.CPU, costs, costs.VerifySig, hit)
	var opBytesTotal int
	for _, op := range b.Ops {
		opBytesTotal += len(op)
	}
	chargeCPU(s.cfg.CPU, costs.HashCost(opBytesTotal))

	// One hold from the apply to the stamp's adoption: a read that found
	// the ops applied but the old stamp in place would be refused as
	// stale, and its client would sleep a keep-alive period.
	s.mu.Lock()
	defer s.mu.Unlock()
	if masterAddr != "" {
		s.cfg.MasterAddr = masterAddr
	}
	applied, err := s.adoptTransferLocked(&stateTransfer{batches: []openedBatch{b}})
	if err != nil {
		return nil, err
	}
	if applied > 0 {
		s.stats.UpdatesOK += uint64(applied)
		s.stats.BatchesApplied++
	}
	return s.ackLocked(), nil
}

// syncFrom pulls the updates the replica is missing from a master and
// adopts them. When the master has truncated the wanted history below a
// stability checkpoint the reply is snapshot-first.
//
// Syncs are single-flight: every keep-alive or push that shows the
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
	applied, err := s.adoptTransferLocked(st)
	s.stats.UpdatesSynced += uint64(applied)
	return err
}

// ReadReply is the slave's answer to a read: the result payload plus the
// signed pledge. On the wire (EncodeReadReply) it is bytes payload ‖ bool
// full ‖ [stamp] ‖ bytes sig ‖ bool xlie: the pledge's signature, the stamp
// only when the asker does not hold it already (full), and nothing else the
// client holds — its own query, the hash of the payload, the key of the
// slave it asked — so a decoded reply's pledge carries at most Stamp and
// Sig, and Client.checkReply fills in the rest. XLie is experiment
// instrumentation only — it records the ground truth of whether this
// answer was falsified so the harness can measure undetected-lie rates; it
// is not part of any signature and no protocol decision may depend on it.
type ReadReply struct {
	Payload []byte
	Pledge  Pledge
	XLie    bool
}

// stampRefLen is how much of a stamp's master signature names the stamp
// in an s.read request.
const stampRefLen = 8

// encodeReadRequest is the s.read request body: bytes query ‖ bytes ref,
// where ref is empty or the first stampRefLen bytes of the master
// signature on held, the stamp the asker last verified from that slave.
// The slave leaves a stamp the request names out of its reply.
func encodeReadRequest(queryBytes []byte, held *VersionStamp) []byte {
	var ref []byte
	if held != nil {
		ref = held.Sig[:stampRefLen]
	}
	w := wire.NewWriter(len(queryBytes) + stampRefLen + 8)
	w.Bytes_(queryBytes)
	w.Bytes_(ref)
	return w.Bytes()
}

// completePledge fills in the pledge fields the reply does not carry, from
// what the asker holds: the query it asked, the hash of the payload it got
// and the key of the slave it asked. The pledge is then the statement the
// slave signed if, and only if, the slave answered that query with that
// payload.
func (rr *ReadReply) completePledge(queryBytes []byte, slavePub cryptoutil.PublicKey) *Pledge {
	p := &rr.Pledge
	p.QueryBytes, p.ResultHash, p.SlavePub = queryBytes, cryptoutil.HashBytes(rr.Payload), slavePub
	return p
}

// EncodeReadReply serializes a reply to a detached frame (reply bodies
// are retained by the transport). A pledge whose stamp has no signature
// travels without its stamp.
func EncodeReadReply(rr ReadReply) []byte {
	return wire.EncodeFrame(func(w *wire.Writer) {
		w.Bytes_(rr.Payload)
		full := len(rr.Pledge.Stamp.Sig) > 0
		w.Bool(full)
		if full {
			rr.Pledge.Stamp.Encode(w)
		}
		w.Bytes_(rr.Pledge.Sig)
		w.Bool(rr.XLie)
	})
}

// DecodeReadReply parses a reply by view: the payload (capacity clipped)
// and the stamp's key and both signatures alias b, which the caller must
// own — a reply body is its caller's under both transports. A reply
// without a stamp decodes to a pledge whose Stamp is zero; a stamp with an
// empty signature is refused, so every reply decodes to the form it
// re-encodes to.
func DecodeReadReply(b []byte) (ReadReply, error) {
	r := wire.NewReader(b)
	var rr ReadReply
	rr.Payload = r.BytesView()
	if r.Bool() {
		var err error
		if rr.Pledge.Stamp, err = decodeStamp(r); err != nil {
			return rr, err
		}
		if len(rr.Pledge.Stamp.Sig) == 0 {
			return rr, errors.New("core: read reply: stamp without a signature")
		}
	}
	rr.Pledge.Sig = r.BytesView()
	rr.XLie = r.Bool()
	return rr, r.Done()
}

func (s *Slave) handleRead(body []byte) ([]byte, error) {
	r := wire.NewReader(body)
	// Zero-copy view: the query bytes are signed (or looked up) before
	// this handler returns, never retained past body's lifetime, and never
	// sent back — the client holds them.
	queryBytes := r.BytesView()
	ref := r.BytesView()
	if err := r.Done(); err != nil {
		return nil, err
	}
	if len(ref) != 0 && len(ref) != stampRefLen {
		return nil, fmt.Errorf("core: s.read: a stamp reference of %d bytes, want 0 or %d", len(ref), stampRefLen)
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
	// The asker holds the stamp the pledge was signed against: it is left
	// out, and the asker completes the reply from its own copy.
	if len(ref) == stampRefLen && bytes.HasPrefix(stamp.Sig, ref) {
		pledge.Stamp.Sig = nil
	}
	return EncodeReadReply(ReadReply{Payload: payload, Pledge: pledge, XLie: lied}), nil
}
