package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/broadcast"
	"repro/internal/cryptoutil"
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
	PledgesLate     uint64 // at a version the auditor holds no content for: not a batch boundary, or its window closed; or ahead of delivery while maxHeldFrames frames were held
	PledgesBadSig   uint64 // disagreed with the content at their version, or were ahead of delivery, under a slave signature (or, ahead, a master stamp) that does not verify
	PledgesVouched  uint64 // audited right in a body answered with the vouch (counted in PledgesAudited too)
	CacheHits       uint64 // audited pledges whose answer the view's cache already held
	Mismatches      uint64 // lies detected: audited pledges the slave signed and the content at their version contradicts
	ReportsSent     uint64
	VersionLagMax   uint64 // widest span of versions held as views at once
	BacklogMax      int    // max frames seen waiting for their version's delivery
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
	// MasterPubs are the masters whose stamp lets a frame ahead of delivery
	// be held (settleEvidenceLocked).
	MasterPubs []cryptoutil.PublicKey
	// CPU, if non-nil, charges modelled service times. The cost model is
	// where the auditor's advantages live: it never signs, never sends
	// results to clients, and caches repeated queries (§3.4).
	CPU *sim.Resource
	// Seed drives audit sampling.
	Seed int64
}

// maxHeldFrames caps the frames held ahead of delivery, far above what
// honest traffic holds (settleEvidenceLocked; core/doc.go).
const maxHeldFrames = 4096

// view is the content at one batch boundary, the answers found there by
// encoded query, and when the batch that ends at the boundary was
// delivered.
type view struct {
	content *store.Store
	answers map[string]cryptoutil.Digest
	at      time.Time
}

// Auditor re-executes pledged reads against the content at each read's
// own version and reports any slave whose pledge does not match the
// trusted result (§3.4).
type Auditor struct {
	cfg AuditorConfig
	rt  sim.Runtime
	dlr rpc.Dialer
	rng *rand.Rand

	bcast  *broadcast.Member
	meter  *cryptoutil.Meter
	stamps *sigCache // master stamps verified on frames ahead of delivery

	mu       sync.Mutex
	views    []view          // guarded by mu; by version; the last is the newest content delivered
	pending  []Pledge        // guarded by mu; frames at stamped versions not delivered yet, in arrival order
	stats    AuditorStats    // guarded by mu
	detected map[string]bool // guarded by mu; slave pubs reported and not refused by every master
}

// NewAuditor creates the auditor over the initial content replica.
func NewAuditor(cfg AuditorConfig, rt sim.Runtime, dlr rpc.Dialer, initial *store.Store) (*Auditor, error) {
	a := &Auditor{
		cfg:      cfg,
		rt:       rt,
		dlr:      dlr,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		views:    []view{{content: initial.Clone(), answers: make(map[string]cryptoutil.Digest)}},
		detected: make(map[string]bool),
		meter:    cryptoutil.NewMeter(cfg.CPU, cfg.Params.Costs),
		stamps:   newSigCache(stampMemoSize),
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

// Start launches the broadcast member. The auditor runs no loop of its
// own: delivery is its only clock (deliver).
func (a *Auditor) Start() { a.bcast.Start() }

// Stop halts the broadcast member.
func (a *Auditor) Stop() { a.bcast.Stop() }

// Stats returns a snapshot of the auditor's counters.
func (a *Auditor) Stats() AuditorStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Version returns the version of the newest content the auditor was
// delivered.
func (a *Auditor) Version() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.headLocked().Version()
}

// Backlog returns the number of frames waiting for their version's
// delivery.
func (a *Auditor) Backlog() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.pending)
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

// deliver receives the ordered master traffic and is the auditor's only
// clock. Every delivered message first drops the views whose window has
// closed. Each batch that decodeBatchMessage admits, under the same rule
// as every master, is then applied onto an O(1) clone of the newest view,
// which becomes a view of its own; membership messages apply nothing.
// Then the held frames the newest view reached are settled in arrival
// order (their stamps and signatures were verified when they were held),
// paid after the unlock. Nothing the auditor keeps reads its broadcast
// archive, so every delivery drops the archive below itself; the member
// caps that floor at the slowest live member's delivered mark, so a peer
// can still fetch its gap.
func (a *Auditor) deliver(seq uint64, msg []byte, _ any) {
	defer a.bcast.TruncateBelow(seq)
	var ops []store.Op // nil unless msg is a batch decodeBatchMessage admits
	if r := wire.NewReader(msg); r.Byte() == bcBatch {
		_, ops, _ = decodeBatchMessage(r)
	}
	tab := a.meter.Tab()
	a.mu.Lock()
	now := a.rt.Now()
	for len(a.views) > 1 && a.closedLocked(0, now) {
		a.views[0] = view{}
		a.views = a.views[1:]
	}
	if len(ops) > 0 {
		next := a.headLocked().Clone()
		for _, op := range ops {
			next.Apply(op)
		}
		a.views = append(a.views, view{content: next, answers: make(map[string]cryptoutil.Digest), at: now})
		a.stats.VersionLagMax = max(a.stats.VersionLagMax, next.Version()-a.views[0].content.Version())
	}
	head := a.headLocked().Version()
	a.pending = slices.DeleteFunc(a.pending, func(p Pledge) bool {
		if p.Stamp.Version > head {
			return false
		}
		a.settleLocked(&p, now, tab, true)
		return true
	})
	a.mu.Unlock()
	tab.Pay()
}

// The a.pledge body is byte form ‖ frames, one frame per slave, back to
// back: each frame is length-prefixed field by field, so they need no
// separator. A client sends statement frames first (Pledge.appendStatement:
// no key, no signature), and the evidence frames of the same read, each
// Pledge.Encode ‖ its stamp, only when the auditor asks for them.
const (
	pledgeFormStatement byte = 0
	pledgeFormEvidence  byte = 1
)

// The a.pledge replies besides the empty one. pledgeVouch answers a body
// whose every frame the auditor audited on arrival and found right: a
// client that gets exactly this byte holds a correct answer, so it need
// not check who signed it (Client.readOnce). pledgeEvidence answers a
// statement body with a frame that disagrees with the auditor's view or is
// ahead of delivery: the only frames it reads a key and a signature for,
// to convict a lie or to hold the frame. Every other body gets the empty
// reply.
var (
	pledgeVouch    = []byte{0x01}
	pledgeEvidence = []byte{0x02}
)

// handlePledge settles the frames of one accepted read, one per slave.
// Every frame is decoded before any is admitted, so the body is admitted
// or refused whole, in frame order — the order in which one frame per call
// would draw the sampling coin. A statement body is answered in one
// critical section (settleStatementsLocked), an evidence body in another
// (settleEvidenceLocked); the work is paid after the unlock. A waiting
// pledge is a view of body, which the handler owns (nobody writes to it
// again).
func (a *Auditor) handlePledge(body []byte) ([]byte, error) {
	var held [2]Pledge // reads of one or two slaves decode without an allocation
	pledges := held[:0]
	r := wire.NewReader(body)
	form := r.Byte()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if form != pledgeFormStatement && form != pledgeFormEvidence {
		return nil, fmt.Errorf("core: a.pledge: unknown form %d", form)
	}
	for len(pledges) == 0 || r.Remaining() > 0 {
		p, err := decodeStatement(r)
		if err == nil && form == pledgeFormEvidence {
			err = decodeStampedEvidence(r, &p)
		}
		if err != nil {
			return nil, err
		}
		pledges = append(pledges, p)
	}
	tab := a.meter.Tab()
	a.mu.Lock()
	var ack []byte
	if form == pledgeFormStatement {
		ack = a.settleStatementsLocked(pledges, a.rt.Now(), tab)
	} else {
		ack = a.settleEvidenceLocked(pledges, a.rt.Now(), tab)
	}
	a.mu.Unlock()
	tab.Pay()
	return ack, nil
}

// decodeStampedEvidence reads what an evidence-form frame carries after
// its statement, the slave's key and signature and the master stamp, into
// p as views of r's buffer. A stamp for another version does not decode.
func decodeStampedEvidence(r *wire.Reader, p *Pledge) error {
	v := p.Stamp.Version
	err := decodeEvidenceTail(r, p)
	if err == nil {
		p.Stamp, err = decodeStamp(r)
	}
	if err == nil && p.Stamp.Version != v {
		err = fmt.Errorf("core: a.pledge: stamp at version %d on a frame at %d", p.Stamp.Version, v)
	}
	return err
}

// settleStatementsLocked answers a statement body. Each frame draws the
// sampling coin, and one not sampled out is judged at its version. A
// frame ahead of delivery or one that disagrees with the content there
// has nothing to be held or convicted by, so the body is answered
// pledgeEvidence and counts nothing: its frames are counted when their
// evidence arrives. Otherwise every frame is counted as sampled, late or
// audited right, and the body is vouched for exactly when every frame was
// audited. Caller holds a.mu.
func (a *Auditor) settleStatementsLocked(pledges []Pledge, now time.Time, tab *cryptoutil.Meter) []byte {
	var held [2]verdict
	verdicts := held[:0]
	hits := uint64(0)
	for i := range pledges {
		v := verdictSampled
		if a.cfg.Params.AuditSampleP >= 1 || a.rng.Float64() < a.cfg.Params.AuditSampleP {
			if pledges[i].Stamp.Version > a.headLocked().Version() {
				return pledgeEvidence
			}
			var hit bool
			if v, hit = a.judgeLocked(&pledges[i], now, tab); v == verdictWrong {
				return pledgeEvidence
			}
			if hit {
				hits++
			}
		}
		verdicts = append(verdicts, v)
	}
	a.stats.PledgesReceived += uint64(len(pledges))
	a.stats.CacheHits += hits
	vouch := true
	for _, v := range verdicts {
		a.countLocked(v)
		vouch = vouch && v == verdictRight
	}
	if !vouch {
		return nil
	}
	a.stats.PledgesVouched += uint64(len(pledges))
	return pledgeVouch
}

// settleEvidenceLocked settles an evidence body, the one a client sends
// when its statement body was answered pledgeEvidence. No sampling coin
// is drawn. A frame at a delivered version is settled (settleLocked). One
// ahead of delivery waits in pending until deliver reaches its version,
// however long that takes, once its master stamp verifies (so no frame is
// held at a version no master stamped) and then its slave signature; it
// is a bad signature if either fails, and late if maxHeldFrames are held.
// The body is vouched for exactly when every frame was audited right.
// Caller holds a.mu.
func (a *Auditor) settleEvidenceLocked(pledges []Pledge, now time.Time, tab *cryptoutil.Meter) []byte {
	vouch := true
	for i := range pledges {
		p := &pledges[i]
		a.stats.PledgesReceived++
		if p.Stamp.Version <= a.headLocked().Version() {
			vouch = a.settleLocked(p, now, tab, false) && vouch
			continue
		}
		vouch = false
		if a.stamps.verifyStamp(&p.Stamp, a.cfg.MasterPubs, tab) != nil {
			a.stats.PledgesBadSig++
			continue
		}
		tab.Verify()
		switch {
		case p.VerifySig() != nil:
			a.stats.PledgesBadSig++
		case len(a.pending) >= maxHeldFrames:
			a.stats.PledgesLate++
		default:
			a.pending = append(a.pending, *p)
			a.stats.BacklogMax = max(a.stats.BacklogMax, len(a.pending))
		}
	}
	if !vouch {
		return nil
	}
	a.stats.PledgesVouched += uint64(len(pledges))
	return pledgeVouch
}

// verdict is what the auditor found of a frame it did not hold: sampled
// out, late, or right or wrong at its version.
type verdict uint8

const (
	verdictSampled verdict = iota
	verdictLate
	verdictRight
	verdictWrong
)

// judgeLocked judges a frame at a delivered version V against the content
// at exactly V, prices the work on tab, and reports whether the view's
// cache held the answer; with no view at V the frame is late. A query
// that does not decode or execute is wrong: an honest slave would have
// returned the error, not a signed result. Caller holds a.mu.
func (a *Auditor) judgeLocked(p *Pledge, now time.Time, tab *cryptoutil.Meter) (v verdict, hit bool) {
	w := a.viewLocked(p.Stamp.Version, now)
	if w == nil {
		return verdictLate, false
	}
	correct, hit, ok := w.answer(p.QueryBytes, tab)
	if ok && correct.Equal(p.ResultHash) {
		return verdictRight, hit
	}
	return verdictWrong, hit
}

// countLocked counts a frame in the bucket its verdict puts it in; a
// wrong frame's bucket is its signature's to decide. Caller holds a.mu.
func (a *Auditor) countLocked(v verdict) {
	switch v {
	case verdictSampled:
		a.stats.PledgesSampled++
	case verdictLate:
		a.stats.PledgesLate++
	case verdictRight:
		a.stats.PledgesAudited++
	}
}

// settleLocked settles an evidence frame at a delivered version
// (judgeLocked) and reports whether it was right, pricing the work on
// tab. A right pledge is never presented to anyone, so nobody checks who
// signed it. One that is wrong has its signature verified, unless it was
// verified before it was held (sigChecked): a forged one can frame nobody
// and is dropped; a signed one is a lie, and the first of each slave is
// marked detected, and reported on a task of its own, so no a.pledge
// reply waits on the report's RPC. Caller holds a.mu.
func (a *Auditor) settleLocked(p *Pledge, now time.Time, tab *cryptoutil.Meter, sigChecked bool) bool {
	v, hit := a.judgeLocked(p, now, tab)
	if hit {
		a.stats.CacheHits++
	}
	if v != verdictWrong {
		a.countLocked(v)
		return v == verdictRight
	}
	if !sigChecked {
		tab.Verify()
		if err := p.VerifySig(); err != nil {
			a.stats.PledgesBadSig++
			return false
		}
	}
	a.stats.PledgesAudited++
	a.stats.Mismatches++
	if !a.detected[string(p.SlavePub)] {
		a.detected[string(p.SlavePub)] = true
		a.stats.ReportsSent++
		proven := provenPledge{*p}
		a.rt.Spawn(func() { a.report(proven) })
	}
	return false
}

// answer returns the view's result hash for a pledged query, from its
// cache or by executing and caching it, and prices that on tab; ok is
// false for a query that does not decode or execute. Unlike a slave, the
// auditor signs nothing and replies to no client (§3.4).
func (w *view) answer(queryBytes []byte, tab *cryptoutil.Meter) (correct cryptoutil.Digest, hit bool, ok bool) {
	if correct, hit = w.answers[string(queryBytes)]; hit {
		tab.MemoHit()
		return correct, true, true
	}
	if correct, ok = executeQuery(queryBytes, w.content, tab); ok {
		w.answers[string(queryBytes)] = correct
	}
	return correct, false, ok
}

// headLocked returns the newest content delivered. Caller holds a.mu.
func (a *Auditor) headLocked() *store.Store { return a.views[len(a.views)-1].content }

// viewLocked returns the view at exactly version v, or nil when v is no
// batch boundary the auditor holds or its window has closed. Caller holds
// a.mu.
func (a *Auditor) viewLocked(v uint64, now time.Time) *view {
	i, ok := slices.BinarySearchFunc(a.views, v, func(w view, v uint64) int { return cmp.Compare(w.content.Version(), v) })
	if !ok || a.closedLocked(i, now) {
		return nil
	}
	return &a.views[i]
}

// window is how long the auditor keeps a view past the delivery of the
// batch after it, as a read at its version may still need it. It is
// max_latency + slack.
func (a *Auditor) window() time.Duration {
	return a.cfg.Params.MaxLatency + a.cfg.Params.AuditorSlack
}

// closedLocked reports whether the window has passed since the batch
// after view i was delivered: no client accepts a read at its version any
// more. Caller holds a.mu.
func (a *Auditor) closedLocked(i int, now time.Time) bool {
	return i+1 < len(a.views) && now.Sub(a.views[i+1].at) > a.window()
}

// provenPledge is a pledge the content at its version contradicts and
// whose slave signature this auditor has verified. Only settleLocked
// makes one, and report takes nothing else: no path signs and ships a
// pledge whose signature was not checked.
type provenPledge struct{ p Pledge }

// report forwards the incriminating pledge to a master (§3.5 delayed
// discovery path), signed by the auditor so masters can trust it without
// being at the pledge's (old) content version. When every master refuses
// it or cannot be reached, the slave is no longer marked detected, so its
// next lie is reported again.
func (a *Auditor) report(proven provenPledge) {
	pledgeBytes := EncodePledge(proven.p)
	a.meter.Sign() // the one signature the auditor ever makes
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
	a.mu.Lock()
	delete(a.detected, string(proven.p.SlavePub))
	a.mu.Unlock()
}
