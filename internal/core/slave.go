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
	ReadsServed   uint64
	ReadsLied     uint64
	ReadsRefused  uint64 // refused because the slave's stamp was stale
	UpdatesSynced uint64 // updates applied from m.sync replies
	SnapshotSyncs uint64 // syncs answered snapshot-first (history truncated)
	SyncsSkipped  uint64 // sync requests elided by the single-flight guard
	KeepAlives    uint64
	// StampCacheHits/Misses count verified-stamp cache consultations: a
	// hit replaces an ed25519 verification with a hash lookup.
	StampCacheHits   uint64
	StampCacheMisses uint64
	// PledgeCacheHits/Misses count the pledge signatures asked of the
	// slave (the s.read sign flag, s.sign): a hit re-issues the signature
	// already made for the same pledge body (same query, result and
	// version), a miss signs. A read nobody asks a signature for counts in
	// neither.
	PledgeCacheHits   uint64
	PledgeCacheMisses uint64
}

// SlaveConfig configures a slave server.
type SlaveConfig struct {
	Addr       string
	Keys       *cryptoutil.KeyPair
	Params     Params
	MasterAddr string // the first source: a bound keep-alive moves it (handleKeepAlive)
	// MasterPubs are the trusted master keys used to verify stamps.
	MasterPubs []cryptoutil.PublicKey
	// Behavior is Honest{} for a correct slave or a malicious model.
	Behavior Behavior
	// CPU, if non-nil, charges modelled service times (simulation).
	CPU *sim.Resource
	// Seed drives the behaviour model's randomness.
	Seed int64
}

// Slave holds a copy of the content and executes read queries, standing
// behind every answer with a pledge (§3.2) that it signs when asked: in
// the request (s.read's sign flag, or a stamp reference it no longer
// answers under) or afterwards (s.sign), for exactly the statements it
// served. Its master announces each committed batch by the batch's stamp
// on a keep-alive, and the slave fetches what it is missing through m.sync
// and applies it strictly in version order. It refuses reads when its
// latest stamp is older than max_latency (§3.1: a correct slave "should
// stop handling user requests until they are back in sync"). Everything
// its master sends it — a keep-alive, a sync reply, a bootstrap — reaches
// the replica through one ingest, adoptTransferLocked.
type Slave struct {
	cfg SlaveConfig
	rt  sim.Runtime
	dlr rpc.Dialer
	rng *rand.Rand

	mu        sync.Mutex
	store     *store.Store // guarded by mu
	source    string       // guarded by mu; the master it bootstraps and fetches from
	lastStamp VersionStamp // guarded by mu
	syncing   bool         // guarded by mu; single-flight: at most one syncFrom in progress
	ahead     VersionStamp // guarded by mu; the newest stamp that came ahead of the replica
	stats     SlaveStats   // guarded by mu
	memo      resultMemo   // guarded by mu; honest answers to expensive queries at the replica's version

	stamps  *sigCache // verified-stamp cache (amortizes repeat Verify)
	pledges *sigCache // served-pledge table: what s.sign may sign, and the signatures made (amortizes repeat Sign)
	meter   *cryptoutil.Meter
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
		source:  cfg.MasterAddr,
		stamps:  newSigCache(stampMemoSize),
		pledges: newSigCache(pledgeSignMemoSize),
		meter:   cryptoutil.NewMeter(cfg.CPU, cfg.Params.Costs),
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
	source := s.source
	s.mu.Unlock()
	st, err := fetchStateTransfer(s.dlr, source, 0, s.cfg.Params, s.meter, s.cfg.MasterPubs, s.stamps)
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
	case MethodKeepAlive:
		return s.handleKeepAlive(from, body)
	case MethodRead:
		return s.handleRead(body)
	case MethodSign:
		return s.handleSign(body)
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
	if err := s.stamps.verifyStamp(&stamp, s.cfg.MasterPubs, s.meter); err != nil {
		return nil, err
	}
	tab := s.meter.Tab()
	defer tab.Pay()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.KeepAlives++
	// The source moves to the named master only under a keep-alive stamp
	// bound to that address and newer than every stamp held: a survivor's
	// first keep-alive repoints a slave it adopted (§3), while a rewritten
	// address or a replayed keep-alive moves nothing.
	if masterAddr != s.source && newerStamp(stamp, s.lastStamp) && newerStamp(stamp, s.ahead) && stamp.bindsAddr(masterAddr, tab) {
		s.source = masterAddr
	}
	// A keep-alive is a transfer of no batches: nothing to apply or fail.
	// One that announces a batch past the replica starts its fetch.
	_, _ = s.adoptTransferLocked(&stateTransfer{snapStamp: stamp})
	// Acknowledge the applied version: masters aggregate these acks into
	// the stability point that drives checkpoint truncation.
	return s.ackLocked(), nil
}

// adoptStampLocked makes stamp the slave's latest if it is newer
// (newerStamp). Caller holds s.mu.
func (s *Slave) adoptStampLocked(stamp VersionStamp) {
	if newerStamp(stamp, s.lastStamp) {
		s.lastStamp = stamp
	}
}

// newerStamp reports whether a is newer than b: for a later version, or
// for the same version and signed later. Version comes first because a
// master signs a batch's stamp before it syncs the batch to its WAL and
// keeps signing keep-alives for the version before it meanwhile: a
// fetched batch can carry a stamp older than the keep-alive the slave
// holds, and the slave then needs the batch's stamp to serve at the
// batch's version.
func newerStamp(a, b VersionStamp) bool {
	return a.Version > b.Version || a.Version == b.Version && a.Timestamp.After(b.Timestamp)
}

// ackLocked encodes the slave's applied-version acknowledgement, the
// reply body for keep-alives. Caller holds s.mu. The frame is detached
// (reply bodies are retained by the transport). An AckForger
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
// a keep-alive is a transfer of none, a sync or a bootstrap the m.sync
// reply it fetched. A snapshot ahead of the replica replaces it and the
// batches that continue the replica are applied (one that starts past it
// applies nothing). The newest stamp is adopted only with the state it
// names: a stamp still ahead of the replica — a batch announced, or
// updates lost — is not adopted but kept aside and starts the
// single-flight sync, and the slave serves on at its own version under
// the stamp it holds. When the replica reaches the version it adopts the
// newer of the transfer's stamp and the one kept aside: a keep-alive that
// named the version while the fetch was out is signed after the batch. A
// dropping behaviour takes the stamp (an AckForger acks from it) and
// applies and syncs nothing: a sync would quietly repair the very gap it
// is creating. It returns how many ops it applied. Caller holds s.mu.
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
	if stamp.Version <= s.store.Version() {
		s.adoptStampLocked(stamp)
		if s.ahead.Version == s.store.Version() {
			s.adoptStampLocked(s.ahead)
		}
		return applied, nil
	}
	if newerStamp(stamp, s.ahead) {
		s.ahead = stamp
	}
	source := s.source
	s.rt.Spawn(func() { s.syncFrom(source) })
	return applied, nil
}

// syncFrom pulls the updates the replica is missing from a master and
// adopts them. When the master has truncated the wanted history below a
// stability checkpoint the reply is snapshot-first.
//
// Syncs are single-flight: every keep-alive that shows the replica behind
// spawns a sync, and without the guard a long-offline slave would launch
// one full-history transfer per keep-alive and melt its memory. An
// announce the guard skipped is fetched by one more round once the sync
// lands, if it named a version beyond the reply and the reply applied
// something — so the last batch of a burst does not wait for the next
// keep-alive, and a master that answers with nothing cannot make it spin.
func (s *Slave) syncFrom(masterAddr string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.syncing {
		s.stats.SyncsSkipped++
		return nil
	}
	s.syncing = true
	for {
		from := s.store.Version() + 1
		s.mu.Unlock()
		st, err := fetchStateTransfer(s.dlr, masterAddr, from, s.cfg.Params, s.meter, s.cfg.MasterPubs, s.stamps)
		s.mu.Lock()
		applied := 0
		if err == nil {
			applied, err = s.adoptTransferLocked(st)
			s.stats.UpdatesSynced += uint64(applied)
		}
		if err != nil || applied == 0 || s.ahead.Version <= s.store.Version() {
			s.syncing = false
			return err
		}
	}
}

// ReadReply is the slave's answer to a read: the result payload plus the
// pledge. On the wire (EncodeReadReply) it is bytes payload ‖ bool full ‖
// [stamp] ‖ bytes sig ‖ bool xlie: the stamp only when the asker does
// not hold it already (full), the pledge's signature when the asker asked
// for it or the stamp is full (else empty), and nothing else the client
// holds — its own query, the hash of the payload, the key of the
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

// encodeReadRequest is the s.read request body: bytes query ‖ bytes ref ‖
// bool sign, where ref is empty or the first stampRefLen bytes of the
// master signature on held, the stamp the asker last verified from that
// slave. The slave leaves a stamp the request names out of its reply, and
// signs the pledge when sign is set or the stamp goes whole.
func encodeReadRequest(queryBytes []byte, held *VersionStamp, sign bool) []byte {
	var ref []byte
	if held != nil {
		ref = held.Sig[:stampRefLen]
	}
	w := wire.NewWriter(len(queryBytes) + stampRefLen + 8)
	w.Bytes_(queryBytes)
	w.Bytes_(ref)
	w.Bool(sign)
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
	sign := r.Bool()
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
	s.meter.Exec(res.Scanned, hit)

	// The memo holds honest answers only and was consulted first: whether
	// to lie is decided on every read, and a lie is hashed and signed as
	// its own evidence.
	payload := res.Payload
	lied := false
	if corrupted := s.cfg.Behavior.Corrupt(queryBytes, payload, s.rng); corrupted != nil {
		payload = corrupted
		lied = true
	}
	s.meter.Hash(len(payload))
	hash := cryptoutil.HashBytes(payload)

	// Recorded as served, so s.sign may sign it later, and signed now only
	// when asked: by the sign flag, or by a ref that does not name the
	// stamp, which then travels whole at a version the asker could not
	// place when it asked. Signed once per distinct (query, result hash,
	// version), a repeat getting those bytes again beside the current
	// stamp; a lie has its own hash.
	held := len(ref) == stampRefLen && bytes.HasPrefix(stamp.Sig, ref)
	pledge := Pledge{QueryBytes: queryBytes, ResultHash: hash, Stamp: stamp, SlavePub: s.cfg.Keys.Public}
	s.pledges.signPledge(&pledge, true, sign || !held, s.cfg.Keys, s.meter)
	s.meter.Reply()

	s.mu.Lock()
	s.stats.ReadsServed++
	if lied {
		s.stats.ReadsLied++
	}
	s.mu.Unlock()
	// The asker holds the stamp the pledge is made against: it is left
	// out, and the asker completes the reply from its own copy.
	if held {
		pledge.Stamp.Sig = nil
	}
	return EncodeReadReply(ReadReply{Payload: payload, Pledge: pledge, XLie: lied}), nil
}

// errNotServed refuses an s.sign for a statement the slave's pledge table
// does not hold.
var errNotServed = errors.New("core: s.sign: not a statement this slave served")

// handleSign answers s.sign: the body is one statement frame (query ‖
// result hash ‖ version) and the reply bytes sig, the slave's signature on
// it. Only a statement the slave served and still holds in its pledge
// table is signed, so the slave is no signing oracle for statements it did
// not make: an unserved one, a lie it did not tell and a version it did not
// serve at are refused, and so is a statement the bounded table has since
// dropped, which the asker retries as a bad pledge.
func (s *Slave) handleSign(body []byte) ([]byte, error) {
	r := wire.NewReader(body)
	p, err := decodeStatement(r)
	if err == nil {
		err = r.Done()
	}
	if err != nil {
		return nil, err
	}
	p.SlavePub = s.cfg.Keys.Public
	if !s.pledges.signPledge(&p, false, true, s.cfg.Keys, s.meter) {
		return nil, errNotServed
	}
	s.meter.Reply()
	return wire.EncodeFrame(func(w *wire.Writer) { w.Bytes_(p.Sig) }), nil
}
