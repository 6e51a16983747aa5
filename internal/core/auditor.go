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
	// MasterPubs is unused: the auditor truncates its broadcast archive
	// without any master's word. bench/replbench/deploy.go, which may not
	// be edited here, still sets it; it goes when bench is unfrozen
	// (ROADMAP item 1).
	MasterPubs []cryptoutil.PublicKey
	// CPU, if non-nil, charges modelled service times. The cost model is
	// where the auditor's advantages live: it never signs, never sends
	// results to clients, and caches repeated queries (§3.4).
	CPU *sim.Resource
	// Seed drives audit sampling.
	Seed int64
}

type bufferedWrite struct {
	opBytes    []byte
	receivedAt time.Time
}

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
	replica  *store.Store                 // guarded by mu
	writes   map[uint64]bufferedWrite     // guarded by mu; pending, by target version
	pending  map[uint64][]Pledge          // guarded by mu; pledges by content version
	backlog  int                          // guarded by mu; pledges in pending, kept as a running count
	cache    map[string]cryptoutil.Digest // guarded by mu
	stats    AuditorStats                 // guarded by mu
	stopped  bool                         // guarded by mu
	masterV  uint64                       // guarded by mu; highest version committed by masters (observed)
	detected map[string]bool              // guarded by mu; slave pubs already reported

	pledges *sigCache // verified-pledge cache (amortizes a repeated lie's VerifySig)
}

// NewAuditor creates the auditor over the initial content replica.
func NewAuditor(cfg AuditorConfig, rt sim.Runtime, dlr rpc.Dialer, initial *store.Store) (*Auditor, error) {
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
		pledges:  newSigCache(pledgeVerifyMemoSize),
		masterV:  initial.Version(), // ordered writes continue from the initial content version
	}
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

// ArchiveLen returns the retained entry count of the auditor's broadcast
// archive.
func (a *Auditor) ArchiveLen() int { return a.bcast.ArchiveLen() }

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
	}
	return nil, fmt.Errorf("core: auditor: unknown method %q", method)
}

// deliver receives the ordered master traffic; the auditor only buffers
// writes (it "is allowed to lag behind when executing write requests",
// §3.4) and ignores membership messages. Buffered writes live in a.writes
// and nothing the auditor keeps reads its broadcast archive, so every
// delivery drops the archive below itself; the member caps that floor at
// the slowest live member's delivered mark, so a peer can still fetch its
// gap.
func (a *Auditor) deliver(seq uint64, msg []byte, _ any) {
	defer a.bcast.TruncateBelow(seq)
	r := wire.NewReader(msg)
	if r.Byte() != bcBatch {
		return
	}
	batch, err := decodeBatchMessage(r)
	if err != nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, opBytes := range batch {
		// Mirror the masters' deterministic skip of undecodable ops so the
		// auditor's version numbering stays aligned.
		if store.ValidateOp(opBytes) != nil {
			continue
		}
		a.masterV++
		a.writes[a.masterV] = bufferedWrite{opBytes: opBytes, receivedAt: a.rt.Now()}
	}
	if lag := a.masterV - a.replica.Version(); lag > a.stats.VersionLagMax {
		a.stats.VersionLagMax = lag
	}
}

// pledgeVouch is the a.pledge reply for a body whose every frame the
// auditor already knows to be right: the frame's version is the replica's
// and the query cache holds the same result hash for it. Any other body
// gets the empty reply. A client that gets exactly this byte holds a
// correct answer, so it need not check who signed it (Client.readOnce).
var pledgeVouch = []byte{0x01}

// handlePledge admits the evidence frames of one accepted read, one per
// slave, back to back: each frame is length-prefixed field by field, so
// they need no separator. Every frame is decoded before any is admitted,
// so the body is admitted or refused whole, in frame order — the order in
// which one frame per call would draw the sampling coin. A body whose every
// frame agrees with the query cache at the replica's version is settled on
// arrival, audited by the probe auditOne would have made, and vouched for;
// any other is admitted frame by frame. The pledges are
// decoded by view and queued as they are, so they keep body alive until
// audited: the handler owns body (a view of its frame's own buffer over
// TCP, the frame the client built under the simulator; nobody writes to
// either again).
func (a *Auditor) handlePledge(body []byte) ([]byte, error) {
	var held [2]Pledge // reads of one or two slaves decode without an allocation
	pledges := held[:0]
	r := wire.NewReader(body)
	for len(pledges) == 0 || r.Remaining() > 0 {
		p, err := decodePledge(r)
		if err != nil {
			return nil, err
		}
		pledges = append(pledges, p)
	}
	a.mu.Lock()
	// A sampling auditor leaves pledges unaudited, so it vouches for none.
	vouch := a.cfg.Params.AuditSampleP >= 1
	cur := a.replica.Version()
	for i := range pledges {
		p := &pledges[i]
		correct, hit := a.cache[string(p.QueryBytes)]
		vouch = vouch && p.Stamp.Version == cur && hit && correct.Equal(p.ResultHash)
	}
	if !vouch {
		for _, p := range pledges {
			a.admitPledgeLocked(p)
		}
		a.mu.Unlock()
		return nil, nil
	}
	n := uint64(len(pledges))
	a.stats.PledgesReceived += n
	a.stats.PledgesAudited += n
	a.stats.CacheHits += n
	a.mu.Unlock()
	chargeCPU(a.cfg.CPU, time.Duration(len(pledges))*a.cfg.Params.Costs.CacheLookup)
	return pledgeVouch, nil
}

// admitPledgeLocked admits one pledge: sample, drop late arrivals, queue
// the rest for the audit worker. Caller holds a.mu.
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
// replica when the version's audit window has closed; idle, it polls once
// per keep-alive interval.
func (a *Auditor) auditLoop() {
	for {
		n, stopped := a.auditPending()
		if stopped {
			return
		}
		if !a.maybeAdvance() && n == 0 && a.rt.Sleep(a.cfg.Params.KeepAliveEvery) != nil {
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
