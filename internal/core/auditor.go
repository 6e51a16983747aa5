package core

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/broadcast"
	"repro/internal/cryptoutil"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

// AuditorStats counts the auditor's activity.
type AuditorStats struct {
	PledgesReceived uint64
	PledgesAudited  uint64
	PledgesSampled  uint64 // skipped by AuditSampleP sampling
	PledgesLate     uint64 // arrived after the auditor left their version
	PledgesBadSig   uint64 // disagreed with the replica, but the slave never signed them
	CacheHits       uint64
	Mismatches      uint64 // lies detected: audited pledges the slave signed and the replica contradicts
	ReportsSent     uint64
	VersionLagMax   uint64 // max (master version - auditor version) seen
	BacklogMax      int    // max pending pledges seen

	// PledgeCacheHits/Misses count verified-pledge cache consultations.
	// Only a pledge that disagrees with the replica is consulted at all;
	// one with the signed body and signature of a pledge already verified
	// skips the signature check.
	PledgeCacheHits   uint64
	PledgeCacheMisses uint64
}

// AuditorConfig configures the auditor.
type AuditorConfig struct {
	Addr   string
	Keys   *cryptoutil.KeyPair
	Params Params
	// Peers is the master-set broadcast membership; the auditor is a
	// member (the paper elects it from the master set, §3) so it
	// receives ordered writes directly, but it owns no slaves.
	Peers []string
	// MasterAddrs are the masters it reports misbehaviour to.
	MasterAddrs []string
	// MasterPubs are the trusted master keys, used to authenticate
	// stability checkpoints before truncating the broadcast archive.
	// Empty disables checkpoint-driven truncation at the auditor.
	MasterPubs []cryptoutil.PublicKey
	// CPU, if non-nil, charges modelled service times. The cost model is
	// where the auditor's advantages live: it never signs, never sends
	// results to clients, and caches repeated queries (§3.4).
	CPU *sim.Resource
	// Seed drives audit sampling.
	Seed int64
	// Tick is the audit worker's polling interval (0 = KeepAliveEvery).
	Tick time.Duration
}

type bufferedWrite struct {
	opBytes    []byte
	receivedAt time.Time
}

// maxAuditorMarks bounds the auditor's version->seq mark index (used
// only to translate checkpoint versions into archive truncation floors).
const maxAuditorMarks = 4096

// Auditor re-executes pledged reads against its own lagging replica and
// reports any slave whose pledge does not match the trusted result
// (§3.4). It applies write v+1 only after it has audited all reads for
// version v and more than max_latency (plus slack) has passed since the
// masters committed v+1, so no client can still accept a read for v.
type Auditor struct {
	cfg AuditorConfig
	rt  sim.Runtime
	dlr rpc.Dialer
	rng *rand.Rand

	bcast *broadcast.Member

	mu       sync.Mutex
	replica  *store.Store
	writes   map[uint64]bufferedWrite // pending, by target version
	pending  map[uint64][]Pledge      // pledges by content version
	backlog  int                      // guarded by mu; pledges in pending, kept as a running count
	cache    map[string]cryptoutil.Digest
	stats    AuditorStats
	stopped  bool
	masterV  uint64          // highest version committed by masters (observed)
	marks    []versionMark   // version -> broadcast seq (archive truncation)
	detected map[string]bool // slave pubs already reported

	pledges *sigCache // verified-pledge cache (amortizes a repeated lie's VerifySig)
}

// NewAuditor creates the auditor over the initial content replica.
func NewAuditor(cfg AuditorConfig, rt sim.Runtime, dlr rpc.Dialer, initial *store.Store) (*Auditor, error) {
	if cfg.Tick == 0 {
		cfg.Tick = cfg.Params.KeepAliveEvery
	}
	a := &Auditor{
		cfg:      cfg,
		rt:       rt,
		dlr:      dlr,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		replica:  initial.Clone(),
		writes:   make(map[uint64]bufferedWrite),
		pending:  make(map[uint64][]Pledge),
		cache:    make(map[string]cryptoutil.Digest),
		detected: make(map[string]bool),
		pledges:  newSigCache(),
	}
	// Ordered writes continue from the initial content version.
	a.masterV = a.replica.Version()
	bm, err := broadcast.New(broadcast.Config{
		Self:           cfg.Addr,
		Peers:          cfg.Peers,
		Deliver:        a.deliver,
		CallTimeout:    cfg.Params.KeepAliveEvery,
		HeartbeatEvery: cfg.Params.KeepAliveEvery,
		TakeoverAfter:  3 * cfg.Params.KeepAliveEvery,
	}, rt, dlr)
	if err != nil {
		return nil, err
	}
	a.bcast = bm
	return a, nil
}

// Start launches the broadcast member and the audit worker.
func (a *Auditor) Start() {
	a.bcast.Start()
	a.rt.Spawn(a.auditLoop)
}

// Stop halts the auditor's loops.
func (a *Auditor) Stop() {
	a.mu.Lock()
	a.stopped = true
	a.mu.Unlock()
	a.bcast.Stop()
}

// Stats returns a snapshot of the auditor's counters.
func (a *Auditor) Stats() AuditorStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.stats
	st.PledgeCacheHits, st.PledgeCacheMisses = a.pledges.stats()
	return st
}

// Version returns the auditor replica's (lagging) content version.
func (a *Auditor) Version() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.replica.Version()
}

// Backlog returns the number of pledges waiting to be audited.
func (a *Auditor) Backlog() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.backlog
}

// Addr returns the auditor's address.
func (a *Auditor) Addr() string { return a.cfg.Addr }

// PublicKey returns the auditor's public key.
func (a *Auditor) PublicKey() cryptoutil.PublicKey { return a.cfg.Keys.Public }

// Handle routes the auditor's RPC methods.
func (a *Auditor) Handle(from, method string, body []byte) ([]byte, error) {
	switch method {
	case broadcast.MethodSubmit, broadcast.MethodCommit, broadcast.MethodFetch,
		broadcast.MethodStatus, broadcast.MethodHello:
		return a.bcast.Handle(from, method, body)
	case MethodPledge:
		return a.handlePledge(body)
	case MethodPledgeMulti:
		return a.handlePledgeMulti(body)
	}
	return nil, fmt.Errorf("core: auditor: unknown method %q", method)
}

// deliver receives the ordered master traffic; the auditor only buffers
// writes (it "is allowed to lag behind when executing write requests",
// §3.4) and ignores membership messages.
func (a *Auditor) deliver(seq uint64, msg []byte) {
	r := wire.NewReader(msg)
	var opsBytes [][]byte
	switch r.Byte() {
	case bcCheckpoint:
		// Stability: history below the checkpoint will never be fetched
		// again; drop it from this member's broadcast archive too. The
		// auditor's own write buffer is untouched — it drains as the
		// audit replica advances and is bounded by the audit lag.
		ck, err := DecodeCheckpoint(r)
		if err != nil {
			return
		}
		// Only a checkpoint signed by a trusted master may truncate:
		// MethodSubmit does not authenticate its caller.
		if len(a.cfg.MasterPubs) == 0 || ck.Verify(a.cfg.MasterPubs) != nil {
			return
		}
		chargeCPU(a.cfg.CPU, a.cfg.Params.Costs.VerifySig)
		a.mu.Lock()
		var floor uint64
		floor, a.marks = pruneMarks(a.marks, ck.Version)
		a.mu.Unlock()
		if floor > 0 {
			a.bcast.TruncateBelow(floor)
		}
		return
	case bcBatch:
		_, _, batch, err := decodeBatchMessage(r)
		if err != nil {
			return
		}
		for _, opBytes := range batch {
			// Mirror the masters' deterministic skip of undecodable ops
			// so the auditor's version numbering stays aligned.
			if err := store.ValidateOp(opBytes); err != nil {
				continue
			}
			opsBytes = append(opsBytes, opBytes)
		}
	default:
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, opBytes := range opsBytes {
		a.masterV++
		a.writes[a.masterV] = bufferedWrite{opBytes: opBytes, receivedAt: a.rt.Now()}
	}
	if len(opsBytes) > 0 {
		a.marks = append(a.marks, versionMark{version: a.masterV, seq: seq})
		// The auditor cannot know whether masters checkpoint; cap the
		// mark index so it stays bounded either way (dropping the oldest
		// marks only makes archive truncation more conservative).
		if len(a.marks) > maxAuditorMarks {
			a.marks = append([]versionMark(nil), a.marks[len(a.marks)-maxAuditorMarks:]...)
		}
	}
	if lag := a.masterV - a.replica.Version(); lag > a.stats.VersionLagMax {
		a.stats.VersionLagMax = lag
	}
}

// handlePledge admits one pledge. The pledge is decoded by view and queued
// as is, so it keeps body alive until it is audited: the handler owns body
// (a view of its frame's own buffer over TCP, of the s.read reply the client
// was handed under the simulator; nobody writes to either again).
func (a *Auditor) handlePledge(body []byte) ([]byte, error) {
	pledge, err := decodePledgeFrame(body)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.admitPledgeLocked(pledge)
	return nil, nil
}

// handlePledgeMulti admits a whole wave of pledges shipped in one frame
// (one RPC per accepted read instead of one per slave). Each pledge goes
// through the identical admission path in frame order, so sampling draws
// the same random sequence the unbatched RPCs would. The wave is admitted
// or refused whole; its pledges alias body as in handlePledge.
func (a *Auditor) handlePledgeMulti(body []byte) ([]byte, error) {
	r := wire.NewReader(body)
	frames := r.BytesSliceView()
	err := r.Done()
	if err != nil {
		return nil, err
	}
	if len(frames) == 0 {
		return nil, fmt.Errorf("core: empty pledge wave")
	}
	pledges := make([]Pledge, len(frames))
	for i, f := range frames {
		if pledges[i], err = decodePledgeFrame(f); err != nil {
			return nil, err
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, p := range pledges {
		a.admitPledgeLocked(p)
	}
	return nil, nil
}

// admitPledgeLocked is the admission path shared by the single and
// batched pledge handlers: sample, drop late arrivals, queue the rest
// for the audit worker. Caller holds a.mu.
func (a *Auditor) admitPledgeLocked(pledge Pledge) {
	a.stats.PledgesReceived++
	if a.cfg.Params.AuditSampleP < 1 && a.rng.Float64() >= a.cfg.Params.AuditSampleP {
		a.stats.PledgesSampled++
		return
	}
	v := pledge.Stamp.Version
	if v < a.replica.Version() {
		// The auditor only leaves a version after max_latency has passed,
		// at which point no client would accept this read anyway (§3.4).
		a.stats.PledgesLate++
		return
	}
	a.pending[v] = append(a.pending[v], pledge)
	a.backlog++
	if a.backlog > a.stats.BacklogMax {
		a.stats.BacklogMax = a.backlog
	}
}

// auditLoop drains pledges for the current version and advances the
// replica when the version's audit window has closed.
func (a *Auditor) auditLoop() {
	for {
		n, stopped := a.auditPending()
		if stopped {
			return
		}
		if !a.maybeAdvance() && n == 0 && a.rt.Sleep(a.cfg.Tick) != nil {
			return
		}
	}
}

// auditPending audits every pledge queued for the replica's current
// version and returns how many there were.
func (a *Auditor) auditPending() (n int, stopped bool) {
	a.mu.Lock()
	stopped = a.stopped
	cur := a.replica.Version()
	batch := a.pending[cur]
	delete(a.pending, cur)
	a.backlog -= len(batch)
	a.mu.Unlock()
	if stopped {
		return 0, true
	}
	for _, p := range batch {
		a.auditOne(p)
	}
	return len(batch), false
}

// auditOne compares a single pledge's result hash with the trusted
// replica's: from the per-version query cache when the query was seen at
// this version, by re-execution otherwise. A pledge that agrees is done —
// nobody will ever present it, so nobody checks who signed it. One that
// disagrees, or names a query that does not decode or execute, goes to
// convict, which is where the signature is verified.
func (a *Auditor) auditOne(p Pledge) {
	costs := a.cfg.Params.Costs
	a.mu.Lock()
	correct, hit := a.cache[string(p.QueryBytes)]
	agrees := hit && correct.Equal(p.ResultHash)
	if hit {
		a.stats.CacheHits++
	}
	if agrees {
		a.stats.PledgesAudited++
	}
	a.mu.Unlock()
	if hit {
		chargeCPU(a.cfg.CPU, costs.CacheLookup)
		if !agrees {
			a.convict(p)
		}
		return
	}

	q, err := query.Decode(p.QueryBytes)
	if err != nil {
		// A signed, undecodable query is itself proof of misbehaviour.
		a.convict(p)
		return
	}
	a.mu.Lock()
	res, err := q.Execute(a.replica)
	a.mu.Unlock()
	if err != nil {
		a.convict(p)
		return
	}
	// The auditor hashes the result but — unlike a slave — signs
	// nothing and sends no reply to any client (§3.4).
	chargeCPU(a.cfg.CPU, costs.QueryCost(res.Scanned))
	chargeCPU(a.cfg.CPU, costs.HashCost(len(res.Payload)))
	correct = res.Digest()
	agrees = correct.Equal(p.ResultHash)
	a.mu.Lock()
	a.cache[string(p.QueryBytes)] = correct
	if agrees {
		a.stats.PledgesAudited++
	}
	a.mu.Unlock()
	if !agrees {
		a.convict(p)
	}
}

// provenPledge is a pledge the trusted replica contradicts and whose
// slave signature this auditor has verified. Only convict makes one, and
// report takes nothing else: no path signs and ships a pledge whose
// signature was not checked.
type provenPledge struct{ p Pledge }

// convict handles a pledge that disagrees with the trusted replica. An
// unsigned or forged pledge cannot frame anyone and carries no
// information: it is counted and dropped. A signed one is a lie, and the
// first from each slave is reported. A pledge whose signed body and
// signature were already verified costs a lookup instead of a check.
func (a *Auditor) convict(p Pledge) {
	hit, err := a.pledges.verifyPledge(&p)
	chargeMemoised(a.cfg.CPU, a.cfg.Params.Costs, a.cfg.Params.Costs.VerifySig, hit)
	a.mu.Lock()
	if err != nil {
		a.stats.PledgesBadSig++
		a.mu.Unlock()
		return
	}
	a.stats.PledgesAudited++
	a.stats.Mismatches++
	already := a.detected[string(p.SlavePub)]
	a.mu.Unlock()
	if !already {
		a.report(provenPledge{p})
	}
}

// report forwards the incriminating pledge to a master (§3.5 delayed
// discovery path), signed by the auditor so masters can trust it without
// being at the pledge's (old) content version.
func (a *Auditor) report(proven provenPledge) {
	p := proven.p
	a.mu.Lock()
	a.detected[string(p.SlavePub)] = true
	a.stats.ReportsSent++
	a.mu.Unlock()
	pledgeBytes := EncodePledge(p)
	chargeCPU(a.cfg.CPU, a.cfg.Params.Costs.Sign) // the one signature the auditor ever makes
	sig := a.cfg.Keys.Sign(pledgeBytes)
	w := wire.NewWriter(len(pledgeBytes) + 80)
	w.Bytes_(pledgeBytes)
	w.Bytes_(sig)
	body := w.Bytes()
	for _, m := range a.cfg.MasterAddrs {
		if _, err := a.dlr.CallTimeout(m, MethodReport, body, a.cfg.Params.ReadTimeout); err == nil {
			return
		}
	}
}

// maybeAdvance applies the next buffered write if its audit window has
// closed: all pledges for the current version are drained and more than
// max_latency + slack has elapsed since the masters committed the write.
func (a *Auditor) maybeAdvance() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	next := a.replica.Version() + 1
	w, ok := a.writes[next]
	if !ok {
		return false
	}
	if len(a.pending[a.replica.Version()]) > 0 {
		return false
	}
	window := a.cfg.Params.MaxLatency + a.cfg.Params.AuditorSlack
	if a.rt.Now().Sub(w.receivedAt) <= window {
		return false
	}
	op, err := store.DecodeOp(w.opBytes)
	if err != nil {
		delete(a.writes, next)
		return true
	}
	a.replica.ApplyAt(next, op)
	delete(a.writes, next)
	// Results change with the version: drop the query cache (§3.4 cache
	// is per-version query optimization). clear keeps the map's storage,
	// so steady-state version advancement stops allocating.
	clear(a.cache)
	return true
}
