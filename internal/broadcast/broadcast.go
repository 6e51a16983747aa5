// Sequencer-based ordered broadcast: member state machine, takeover, gap
// fetch, and archive truncation. See doc.go for the package overview.
package broadcast

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Method names handled by Member.Handle. A node hosting a member must
// route these to it.
const (
	MethodSubmit = "b.submit"
	MethodCommit = "b.commit"
	MethodFetch  = "b.fetch"
	MethodStatus = "b.status"
	MethodHello  = "b.hello"
)

// Errors.
var (
	ErrNoSequencer = errors.New("broadcast: no reachable sequencer")
	ErrStopped     = errors.New("broadcast: member stopped")
)

// Config parametrizes a member.
type Config struct {
	// Self is this member's address; it must appear in Peers.
	Self string
	// Peers is the full member set in priority order (index 0 is the
	// initial sequencer). All members must use the same order.
	Peers []string
	// Deliver is invoked for every message, in sequence order and never
	// concurrently with itself, from the member's drainer task. While it
	// blocks this member delivers nothing; the others are not held up.
	// local is what this member's own Broadcast of the message was handed;
	// it is nil on every other member and after a restart (see Broadcast).
	Deliver func(seq uint64, msg []byte, local any)
	// CallTimeout bounds each RPC before the callee is suspected.
	CallTimeout time.Duration
	// HeartbeatEvery is the sequencer's heartbeat period.
	HeartbeatEvery time.Duration
	// TakeoverAfter is how long a member waits without hearing from the
	// sequencer before starting a takeover.
	TakeoverAfter time.Duration
}

func (c *Config) fill() {
	if c.CallTimeout == 0 {
		c.CallTimeout = 500 * time.Millisecond
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 200 * time.Millisecond
	}
	if c.TakeoverAfter == 0 {
		c.TakeoverAfter = 3 * c.HeartbeatEvery
	}
}

// Member is one participant in the broadcast group.
type Member struct {
	cfg    Config
	rt     sim.Runtime
	dialer rpc.Dialer
	self   uint64 // index of cfg.Self in cfg.Peers

	mu            sync.Mutex
	log           map[uint64]entry    // guarded by mu; received-but-undelivered slots and the archive
	slotOf        map[submitID]uint64 // guarded by mu; the slot of every submit in log (see sequence)
	nextSubmit    uint64              // guarded by mu; origin: sequence number of the next Broadcast
	waiting       map[uint64]any      // guarded by mu; origin: each Broadcast's local, by submit number, until Deliver takes it or the call fails
	nextSeq       uint64              // guarded by mu; sequencer: next slot to assign
	collecting    map[uint64]bool     // guarded by mu; sequencer: slots whose receipt round is still open
	known         uint64              // guarded by mu; every slot up to here has closed its receipt round (b.commit, b.hello)
	delivered     uint64              // guarded by mu; highest contiguously delivered seq
	delivering    bool                // guarded by mu; the drainer task is running
	truncated     uint64              // guarded by mu; archive floor: seqs below this were dropped
	peerDelivered map[string]uint64   // guarded by mu; sequencer: peers' delivered marks (Hello replies)
	stableSeq     uint64              // guarded by mu; min delivered across live members (via Hello)
	view          int                 // guarded by mu; index into Peers of the current sequencer
	suspected     map[string]bool     // guarded by mu
	lastHB        time.Time           // guarded by mu
	stopped       bool                // guarded by mu

	// deliveries counts messages handed to Deliver (stats/tests);
	// guarded by mu.
	deliveries uint64
}

// submitID names one Broadcast call: the member that made it (its index
// in Peers) and that member's own count of calls. It travels with the
// message — in b.submit, in b.commit, in b.fetch and in every member's
// log — so whoever is sequencer can tell a retried submit from a new one.
type submitID struct {
	origin uint64
	n      uint64
}

// entry is one sequenced message as the log holds it and as b.submit,
// b.commit and b.fetch carry it.
type entry struct {
	id  submitID
	msg []byte
}

func (e entry) encode(w *wire.Writer) {
	w.Uvarint(e.id.origin)
	w.Uvarint(e.id.n)
	w.Bytes_(e.msg)
}

func decodeEntry(r *wire.Reader) entry {
	return entry{id: submitID{origin: r.Uvarint(), n: r.Uvarint()}, msg: r.Bytes()}
}

// New creates a member. Call Start to launch its background loops.
func New(cfg Config, rt sim.Runtime, dialer rpc.Dialer) (*Member, error) {
	cfg.fill()
	self := -1
	for i, p := range cfg.Peers {
		if p == cfg.Self {
			self = i
		}
	}
	if self < 0 {
		return nil, fmt.Errorf("broadcast: self %q not in peer list", cfg.Self)
	}
	if cfg.Deliver == nil {
		return nil, errors.New("broadcast: Deliver callback is required")
	}
	return &Member{
		cfg:    cfg,
		rt:     rt,
		dialer: dialer,
		self:   uint64(self),
		log:    make(map[uint64]entry),
		slotOf: make(map[submitID]uint64),
		// Submit numbers start at the clock, not at 1: a member that
		// restarts must not reuse a number its previous life used, or the
		// sequencer would answer its new message as a replay of an old one.
		nextSubmit:    uint64(rt.Now().UnixNano()),
		waiting:       make(map[uint64]any),
		nextSeq:       1,
		collecting:    make(map[uint64]bool),
		suspected:     make(map[string]bool),
		peerDelivered: make(map[string]uint64),
	}, nil
}

// Start launches the failure-detection and heartbeat loops.
func (m *Member) Start() {
	m.mu.Lock()
	m.lastHB = m.rt.Now()
	m.mu.Unlock()
	m.rt.Spawn(m.heartbeatLoop)
	m.rt.Spawn(m.monitorLoop)
}

// Stop halts the member's loops.
func (m *Member) Stop() {
	m.mu.Lock()
	m.stopped = true
	m.mu.Unlock()
}

// Delivered returns the highest contiguously delivered sequence number.
func (m *Member) Delivered() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.delivered
}

// ResumeAt tells a freshly constructed member that the hosting node has
// already applied every message up to and including seq (recovered from
// durable state), so delivery resumes at seq+1 and sequence assignment
// after a takeover starts above it. Entries at or below seq are not in
// this member's archive, so the floor is marked truncated. Call before
// Start, or after replacing the hosting node's state wholesale during a
// catch-up sync.
func (m *Member) ResumeAt(seq uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if seq > m.delivered {
		m.delivered = seq
	}
	if seq+1 > m.nextSeq {
		m.nextSeq = seq + 1
	}
	if seq+1 > m.truncated {
		m.truncated = seq + 1
	}
	for s := range m.log {
		if s <= m.delivered {
			m.dropLocked(s)
		}
	}
}

// Sequencer returns the address this member currently believes is the
// sequencer.
func (m *Member) Sequencer() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cfg.Peers[m.view]
}

// SuspectedPeers returns the peers this member currently believes have
// crashed. The hosting master uses it to drive slave-set redistribution.
func (m *Member) SuspectedPeers() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.suspected))
	for _, p := range m.cfg.Peers {
		if m.suspected[p] {
			out = append(out, p)
		}
	}
	return out
}

// Suspect marks a peer as crashed without waiting for a timeout; hosting
// nodes call it when they observe a failure through another channel.
func (m *Member) Suspect(peer string) {
	if peer == m.cfg.Self {
		return
	}
	m.mu.Lock()
	cur := m.cfg.Peers[m.view]
	m.mu.Unlock()
	if cur == peer {
		m.advanceView(peer)
		return
	}
	m.mu.Lock()
	m.suspected[peer] = true
	m.mu.Unlock()
}

func (m *Member) isSequencer() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cfg.Peers[m.view] == m.cfg.Self
}

// Broadcast submits msg for total ordering and blocks until the message
// has been assigned a slot and every member not suspected as crashed
// holds it in its log; delivery follows on each member's own drainer. It
// retries across lost messages and sequencer failures under one submit
// identity, so however many tries arrive the message takes one slot.
// local stays on this member and comes back with the slot that carries
// this call's identity: Deliver receives it, or Broadcast returns an
// error, never both (doc.go, "The origin's local value").
func (m *Member) Broadcast(msg []byte, local any) (err error) {
	m.mu.Lock()
	e := entry{id: submitID{origin: m.self, n: m.nextSubmit}, msg: msg}
	m.nextSubmit++
	m.waiting[e.id.n] = local
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		if _, held := m.waiting[e.id.n]; !held {
			err = nil // delivered: Deliver had local
		} else if err != nil {
			delete(m.waiting, e.id.n)
		}
		m.mu.Unlock()
	}()
	var frame []byte // the b.submit body, built when a try first needs it
	for attempt := 0; attempt < len(m.cfg.Peers)+2; attempt++ {
		m.mu.Lock()
		if m.stopped {
			m.mu.Unlock()
			return ErrStopped
		}
		seqAddr := m.cfg.Peers[m.view]
		m.mu.Unlock()

		if seqAddr == m.cfg.Self {
			return m.sequence(e)
		}
		if frame == nil {
			w := wire.NewWriter(len(msg) + 24)
			e.encode(w)
			frame = w.Bytes()
		}
		// Retry the submit before declaring the sequencer dead: a view
		// change is disruptive (a takeover that itself hits message loss
		// can reassign slots), so one dropped round trip must not force
		// it.
		var err error
		for try := 0; try < 3; try++ {
			_, err = m.dialer.CallTimeout(seqAddr, MethodSubmit, frame, m.cfg.CallTimeout)
			if err == nil || rpc.IsRemote(err) {
				break
			}
		}
		if err == nil {
			return nil
		}
		// A remote error means the callee no longer believes it is the
		// sequencer; a transport failure means it is gone. Either way move
		// the view on, taking over if we are next in line, and try again.
		m.advanceView(seqAddr)
	}
	return ErrNoSequencer
}

// advanceView suspects the given sequencer and moves to the next
// candidate; if that candidate is this member, it performs takeover.
func (m *Member) advanceView(failed string) {
	m.mu.Lock()
	if m.cfg.Peers[m.view] != failed {
		m.mu.Unlock()
		return // someone already moved the view
	}
	m.suspected[failed] = true
	next := m.view
	for i := 0; i < len(m.cfg.Peers); i++ {
		cand := (m.view + 1 + i) % len(m.cfg.Peers)
		if !m.suspected[m.cfg.Peers[cand]] {
			next = cand
			break
		}
	}
	m.view = next
	self := m.cfg.Peers[next] == m.cfg.Self
	m.mu.Unlock()
	if self {
		m.takeover()
	}
}

// takeover makes this member the sequencer: it syncs the log from every
// reachable member so that no committed message is lost, then resumes
// assignment after the highest sequence number seen anywhere. The fetched
// entries carry their submit identities, so a submit the old sequencer
// had already given a slot is recognised when its origin retries it here.
func (m *Member) takeover() {
	maxSeq := m.maxKnown()
	for _, p := range m.cfg.Peers {
		if p == m.cfg.Self {
			continue
		}
		body, err := m.dialer.CallTimeout(p, MethodStatus, nil, m.cfg.CallTimeout)
		if err != nil {
			continue
		}
		r := wire.NewReader(body)
		theirMax := r.Uvarint()
		if r.Err() != nil {
			continue
		}
		if theirMax > maxSeq {
			maxSeq = theirMax
		}
		m.fetchRange(p, theirMax)
	}
	m.mu.Lock()
	if m.nextSeq <= maxSeq {
		m.nextSeq = maxSeq + 1
	}
	m.mu.Unlock()
	m.kickDrain()
}

func (m *Member) maxKnown() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	max := m.delivered
	for s := range m.log {
		if s > max {
			max = s
		}
	}
	return max
}

// sequence gives e a slot (this member is the sequencer), sends it to
// every non-suspected member at once and returns when each has
// acknowledged holding it. Only then may this member deliver the slot
// itself (doc.go: a sequencer must never apply a slot nobody else holds);
// peers deliver as soon as they hold it, so all members apply it at the
// same time.
//
// A submit whose identity is already in the log — a retry whose first try
// was slow or whose reply was lost, or one an earlier sequencer had
// sequenced before the view changed — keeps its slot: the round is run
// again for that slot, which costs the bytes once more and leaves every
// member holding the one entry.
func (m *Member) sequence(e entry) error {
	m.mu.Lock()
	seq, replay := m.slotOf[e.id]
	if replay {
		e = m.log[seq]
	} else {
		seq = m.nextSeq
		m.nextSeq++
		m.insertLocked(seq, e)
		m.collecting[seq] = true
	}
	view, closed := m.view, m.closedLocked()
	var targets []string
	for _, p := range m.cfg.Peers {
		if p != m.cfg.Self && !m.suspected[p] {
			targets = append(targets, p)
		}
	}
	m.mu.Unlock()

	w := wire.NewWriter(len(e.msg) + 48)
	w.Uvarint(uint64(view))
	w.Uvarint(seq)
	w.Uvarint(closed)
	e.encode(w)
	frame := w.Bytes()

	round := sim.NewGroup(m.rt)
	for _, p := range targets {
		round.Go(func() { m.sendCommit(p, frame) })
	}
	round.Wait()

	if !replay {
		m.mu.Lock()
		delete(m.collecting, seq)
		m.mu.Unlock()
		m.kickDrain()
	}
	return nil
}

// sendCommit hands one slot to one peer. It retries a bounded number of
// times before suspecting the peer, which will recover missing entries by
// fetching when it returns. A remote error counts as an answer.
func (m *Member) sendCommit(peer string, frame []byte) {
	for try := 0; try < 2; try++ {
		_, err := m.dialer.CallTimeout(peer, MethodCommit, frame, m.cfg.CallTimeout)
		if err == nil || rpc.IsRemote(err) {
			return
		}
	}
	m.mu.Lock()
	m.suspected[peer] = true
	m.mu.Unlock()
}

// closedLocked returns the highest slot such that it and every slot below
// it has finished its receipt round. A member missing a slot at or below
// this mark will not be sent it again and has to fetch it; a slot above
// may simply still be on the wire. Caller holds m.mu.
func (m *Member) closedLocked() uint64 {
	closed := m.nextSeq - 1
	for s := range m.collecting {
		if s <= closed {
			closed = s - 1
		}
	}
	return closed
}

// insertLocked and dropLocked are the only writers of log, so slotOf
// indexes exactly the entries log holds and is bounded with it. Caller
// holds m.mu.
func (m *Member) insertLocked(seq uint64, e entry) {
	m.log[seq] = e
	m.slotOf[e.id] = seq
}

func (m *Member) dropLocked(seq uint64) {
	if id := m.log[seq].id; m.slotOf[id] == seq {
		delete(m.slotOf, id)
	}
	delete(m.log, seq)
}

// Handle routes broadcast RPCs; the hosting node must call it for the
// Method* method names. No handler makes an outgoing call of its own
// except b.submit, whose job is the receipt round: b.commit and b.hello
// record what arrived and leave delivery and gap repair to the drainer.
func (m *Member) Handle(from, method string, body []byte) ([]byte, error) {
	switch method {
	case MethodSubmit:
		r := wire.NewReader(body)
		e := decodeEntry(r)
		if err := r.Done(); err != nil {
			return nil, err
		}
		if !m.isSequencer() {
			return nil, fmt.Errorf("not sequencer; current view %s", m.Sequencer())
		}
		return nil, m.sequence(e)

	case MethodCommit:
		r := wire.NewReader(body)
		view := r.Uvarint()
		seq := r.Uvarint()
		closed := r.Uvarint()
		e := decodeEntry(r)
		if err := r.Done(); err != nil {
			return nil, err
		}
		if err := m.checkView(view); err != nil {
			return nil, err
		}
		m.acceptCommit(int(view), seq, closed, e)
		return nil, nil

	case MethodFetch:
		r := wire.NewReader(body)
		lo := r.Uvarint()
		hi := r.Uvarint()
		if err := r.Done(); err != nil {
			return nil, err
		}
		return m.serveFetch(lo, hi), nil

	case MethodStatus:
		// The reply is the log high-water mark, then the archive floor,
		// which a restarted member uses to detect that its gap was
		// truncated and must be closed by state sync instead of fetch.
		w := wire.NewWriter(16)
		w.Uvarint(m.maxKnown())
		w.Uvarint(m.Truncated())
		return w.Bytes(), nil

	case MethodHello:
		r := wire.NewReader(body)
		view := r.Uvarint()
		maxSeq := r.Uvarint()
		stable := r.Uvarint()
		if err := r.Done(); err != nil {
			return nil, err
		}
		if err := m.checkView(view); err != nil {
			return nil, err
		}
		m.acceptHello(int(view), maxSeq, stable)
		// Reply with our delivered mark: the sequencer aggregates these
		// into the stability floor that gates archive truncation.
		w := wire.NewWriter(8)
		w.Uvarint(m.Delivered())
		return w.Bytes(), nil
	}
	return nil, fmt.Errorf("broadcast: unknown method %q", method)
}

// checkView rejects a sender's view number that does not index Peers. It
// comes off an unauthenticated wire, so this runs before anything stores
// it or indexes with it.
func (m *Member) checkView(view uint64) error {
	if view >= uint64(len(m.cfg.Peers)) {
		return fmt.Errorf("broadcast: view %d outside the %d-member peer list", view, len(m.cfg.Peers))
	}
	return nil
}

// acceptCommit and acceptHello take the sender from the view, not from
// the transport: both messages come from the sequencer Peers[view], while
// the RPC's from is, over TCP, the caller's ephemeral source port — an
// address nobody listens on. Both return as soon as the message is
// recorded: the reply to b.commit is the receipt the sequencer is
// waiting for, and it says "held", not "applied".
func (m *Member) acceptCommit(view int, seq, closed uint64, e entry) {
	m.mu.Lock()
	if view > m.view {
		m.view = view
		delete(m.suspected, m.cfg.Peers[view])
	}
	if view >= m.view {
		m.lastHB = m.rt.Now()
	}
	if _, dup := m.log[seq]; !dup && seq > m.delivered {
		m.insertLocked(seq, e)
	}
	if closed > m.known {
		m.known = closed
	}
	m.mu.Unlock()
	m.kickDrain()
}

func (m *Member) acceptHello(view int, maxSeq uint64, stable uint64) {
	m.mu.Lock()
	if view >= m.view {
		if view > m.view {
			m.view = view
		}
		m.lastHB = m.rt.Now()
		delete(m.suspected, m.cfg.Peers[view])
		if stable > m.stableSeq {
			m.stableSeq = stable
		}
	}
	// The sequencer delivers a slot only after its receipt round, so
	// everything up to its delivered mark is closed.
	if maxSeq > m.known {
		m.known = maxSeq
	}
	m.mu.Unlock()
	m.kickDrain()
}

// fetchRange pulls any entries in (delivered, hi] that we are missing
// from the given peer.
func (m *Member) fetchRange(from string, hi uint64) {
	m.mu.Lock()
	lo := m.delivered + 1
	m.mu.Unlock()
	if lo > hi {
		return
	}
	w := wire.NewWriter(16)
	w.Uvarint(lo)
	w.Uvarint(hi)
	body, err := m.dialer.CallTimeout(from, MethodFetch, w.Bytes(), m.cfg.CallTimeout)
	if err != nil {
		return
	}
	r := wire.NewReader(body)
	n := r.Uvarint()
	m.mu.Lock()
	for i := uint64(0); i < n; i++ {
		seq := r.Uvarint()
		e := decodeEntry(r)
		if r.Err() != nil {
			break
		}
		if _, dup := m.log[seq]; !dup && seq > m.delivered {
			m.insertLocked(seq, e)
		}
	}
	m.mu.Unlock()
}

// serveFetch answers b.fetch with every entry the log holds in [lo, hi],
// in slot order. The range comes off an unauthenticated wire, so it walks
// the entries held, never the slots named: [1, 2^64-1] would otherwise
// hold m.mu for good.
func (m *Member) serveFetch(lo, hi uint64) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	var held []uint64
	for s := range m.log {
		if lo <= s && s <= hi {
			held = append(held, s)
		}
	}
	slices.Sort(held)
	w := wire.NewWriter(256)
	w.Uvarint(uint64(len(held)))
	for _, s := range held {
		w.Uvarint(s)
		m.log[s].encode(w)
	}
	return w.Bytes()
}

// kickDrain starts the drainer task unless one is running or there is
// nothing for it to do. Everything that can make the next slot
// deliverable — an entry arriving, a receipt round closing, a heartbeat
// moving the closed mark — ends with it.
func (m *Member) kickDrain() {
	m.mu.Lock()
	deliver, fetch := m.nextLocked()
	start := !m.delivering && (deliver || fetch)
	if start {
		m.delivering = true
	}
	m.mu.Unlock()
	if start {
		m.rt.Spawn(m.drain)
	}
}

// nextLocked says what the drainer can do about slot delivered+1: hand
// it to Deliver, if the log holds it and — on the sequencer — its receipt
// round has closed; or fetch it, if the log does not hold it although the
// sequencer has said its round closed, so no b.commit will bring it. A
// missing slot above the closed mark has merely been overtaken on the
// wire. Caller holds m.mu.
func (m *Member) nextLocked() (deliver, fetch bool) {
	next := m.delivered + 1
	if _, ok := m.log[next]; ok {
		return !m.collecting[next], false
	}
	return false, next <= m.known && m.cfg.Peers[m.view] != m.cfg.Self
}

// drain is the member's one drainer task: it hands contiguous log
// entries to the Deliver callback and repairs gaps. At most one runs at a
// time (the delivering flag), so Deliver is invoked strictly in sequence
// order and never concurrently with itself. The flag is cleared under
// the same lock that checks for the next entry, so an entry inserted
// while the drainer exits is never stranded: its kickDrain starts a new
// one. Delivered entries stay in the log as the archive that serves
// fetches, until the hosting node truncates them after stability
// (TruncateBelow).
func (m *Member) drain() {
	fetched := false // one fetch per missing slot: a second would bring the same nothing
	m.mu.Lock()
	for {
		deliver, fetch := m.nextLocked()
		switch {
		case deliver:
			next := m.delivered + 1
			e := m.log[next]
			var local any
			if e.id.origin == m.self {
				local = m.waiting[e.id.n]
				delete(m.waiting, e.id.n)
				if e.id.n >= m.nextSubmit {
					// An identity this member has yet to issue: a forged
					// submit predicted it. Never issue it, or its Broadcast
					// would be answered as a replay of this slot.
					m.nextSubmit = e.id.n + 1
				}
			}
			m.delivered = next
			m.deliveries++
			if next < m.truncated {
				m.dropLocked(next)
			}
			m.mu.Unlock()
			m.cfg.Deliver(next, e.msg, local)
			fetched = false
			m.mu.Lock()
		case fetch && !fetched:
			from, hi := m.cfg.Peers[m.view], m.known
			m.mu.Unlock()
			m.fetchRange(from, hi)
			fetched = true
			m.mu.Lock()
		default:
			m.delivering = false
			m.mu.Unlock()
			return
		}
	}
}

// TruncateBelow drops archived (already delivered) entries with sequence
// numbers below floor, bounding the archive's memory. The hosting node
// calls it once history below floor has become stable at the application
// layer; the member additionally caps the floor at the broadcast-layer
// stability point — the lowest delivered mark among live (non-suspected)
// members, learned through heartbeats — so a merely-slow member can
// always still fetch its gap. Only a member suspected as crashed can
// find its history truncated on return; it closes the gap with an
// application-layer state sync and rejoins via ResumeAt (a master
// restarting from its data directory does exactly this).
func (m *Member) TruncateBelow(floor uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if max := m.stableSeq + 1; floor > max {
		floor = max
	}
	if floor > m.truncated {
		m.truncated = floor
	}
	for s := range m.log {
		if s < m.truncated && s <= m.delivered {
			m.dropLocked(s)
		}
	}
}

// stableSeqLocked computes the sequencer's view of broadcast-layer
// stability: the lowest delivered sequence number among this member and
// every non-suspected peer (0 while any live peer has not reported yet).
// Caller holds m.mu.
func (m *Member) stableSeqLocked() uint64 {
	stable := m.delivered
	for _, p := range m.cfg.Peers {
		if p == m.cfg.Self || m.suspected[p] {
			continue
		}
		if d := m.peerDelivered[p]; d < stable {
			stable = d
		}
	}
	return stable
}

// Truncated returns the current archive floor: the lowest sequence number
// this member still retains (0 = nothing truncated yet).
func (m *Member) Truncated() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.truncated
}

// ArchiveLen returns the number of retained log/archive entries.
func (m *Member) ArchiveLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.log)
}

// ArchiveBytes returns the total message bytes retained in the archive.
func (m *Member) ArchiveBytes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, e := range m.log {
		n += len(e.msg)
	}
	return n
}

// heartbeatLoop makes the sequencer announce liveness and its log high
// water mark; lagging members fetch what they miss.
func (m *Member) heartbeatLoop() {
	for {
		m.mu.Lock()
		stopped := m.stopped
		isSeq := m.cfg.Peers[m.view] == m.cfg.Self
		maxSeq := m.delivered
		view := m.view
		peers := append([]string(nil), m.cfg.Peers...)
		m.mu.Unlock()
		if stopped {
			return
		}
		if isSeq {
			m.mu.Lock()
			stable := m.stableSeqLocked()
			if stable > m.stableSeq {
				m.stableSeq = stable
			}
			m.mu.Unlock()
			w := wire.NewWriter(24)
			w.Uvarint(uint64(view))
			w.Uvarint(maxSeq)
			w.Uvarint(stable)
			frame := w.Bytes()
			for _, p := range peers {
				if p == m.cfg.Self {
					continue
				}
				body, err := m.dialer.CallTimeout(p, MethodHello, frame, m.cfg.CallTimeout)
				if err != nil || len(body) == 0 {
					continue
				}
				br := wire.NewReader(body)
				d := br.Uvarint()
				if br.Done() != nil {
					continue
				}
				m.mu.Lock()
				if m.suspected[p] {
					// A suspected peer that answers a Hello is back: clear
					// the suspicion so it receives commits again, and take
					// its delivered mark as-is — a restarted member resumes
					// below its pre-crash mark, and the stale higher mark
					// would otherwise let truncation race ahead of its
					// recovery.
					delete(m.suspected, p)
					m.peerDelivered[p] = d
				} else if d > m.peerDelivered[p] {
					m.peerDelivered[p] = d
				}
				m.mu.Unlock()
			}
		}
		if m.rt.Sleep(m.cfg.HeartbeatEvery) != nil {
			return
		}
	}
}

// monitorLoop watches for sequencer silence and triggers takeover.
func (m *Member) monitorLoop() {
	for {
		if m.rt.Sleep(m.cfg.TakeoverAfter/2) != nil {
			return
		}
		m.mu.Lock()
		stopped := m.stopped
		isSeq := m.cfg.Peers[m.view] == m.cfg.Self
		silent := m.rt.Now().Sub(m.lastHB) >= m.cfg.TakeoverAfter
		seqAddr := m.cfg.Peers[m.view]
		m.mu.Unlock()
		if stopped {
			return
		}
		if !isSeq && silent {
			m.advanceView(seqAddr)
		}
	}
}
