// Sequencer-based ordered broadcast: member state machine, takeover, gap
// fetch, and archive truncation. See doc.go for the package overview.
package broadcast

import (
	"errors"
	"fmt"
	"sort"
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
	// Deliver is invoked for every message, in sequence order, from the
	// member's internal delivery flow. It must not block for long.
	Deliver func(seq uint64, msg []byte)
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

	mu            sync.Mutex
	log           map[uint64][]byte // guarded by mu
	nextSeq       uint64            // guarded by mu; sequencer: next slot to assign
	delivered     uint64            // guarded by mu; highest contiguously delivered seq
	delivering    bool              // guarded by mu; a drainer is inside tryDeliver's loop
	truncated     uint64            // guarded by mu; archive floor: seqs below this were dropped
	peerDelivered map[string]uint64 // guarded by mu; sequencer: peers' delivered marks (Hello replies)
	stableSeq     uint64            // guarded by mu; min delivered across live members (via Hello)
	view          int               // guarded by mu; index into Peers of the current sequencer
	suspected     map[string]bool   // guarded by mu
	lastHB        time.Time         // guarded by mu
	stopped       bool              // guarded by mu

	// deliveries counts messages handed to Deliver (stats/tests);
	// guarded by mu.
	deliveries uint64
}

// New creates a member. Call Start to launch its background loops.
func New(cfg Config, rt sim.Runtime, dialer rpc.Dialer) (*Member, error) {
	cfg.fill()
	found := false
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("broadcast: self %q not in peer list", cfg.Self)
	}
	if cfg.Deliver == nil {
		return nil, errors.New("broadcast: Deliver callback is required")
	}
	return &Member{
		cfg:           cfg,
		rt:            rt,
		dialer:        dialer,
		log:           make(map[uint64][]byte),
		delivered:     0,
		nextSeq:       1,
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
			delete(m.log, s)
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

func (m *Member) selfIndex() int {
	for i, p := range m.cfg.Peers {
		if p == m.cfg.Self {
			return i
		}
	}
	return -1
}

func (m *Member) isSequencer() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cfg.Peers[m.view] == m.cfg.Self
}

// Broadcast submits msg for total ordering and blocks until the message
// has been assigned a slot and replicated. It retries across sequencer
// failures.
func (m *Member) Broadcast(msg []byte) error {
	for attempt := 0; attempt < len(m.cfg.Peers)+2; attempt++ {
		m.mu.Lock()
		if m.stopped {
			m.mu.Unlock()
			return ErrStopped
		}
		seqAddr := m.cfg.Peers[m.view]
		m.mu.Unlock()

		if seqAddr == m.cfg.Self {
			return m.sequence(msg)
		}
		w := wire.NewWriter(len(msg) + 8)
		w.Bytes_(msg)
		// Retry the submit before declaring the sequencer dead: a view
		// change is disruptive (a takeover that itself hits message loss
		// can reassign slots), so one dropped round trip must not force
		// it. Note a retried submit can be sequenced twice if only the
		// replies were lost — same at-least-once contract as before.
		var err error
		for try := 0; try < 3; try++ {
			_, err = m.dialer.CallTimeout(seqAddr, MethodSubmit, w.Bytes(), m.cfg.CallTimeout)
			if err == nil || rpc.IsRemote(err) {
				break
			}
		}
		if err == nil {
			return nil
		}
		if rpc.IsRemote(err) {
			// The callee no longer believes it is the sequencer; refresh
			// our view and retry.
			m.advanceView(seqAddr)
			continue
		}
		// Transport failure: suspect the sequencer and take over if we
		// are next in line.
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
// assignment after the highest sequence number seen anywhere.
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
	m.tryDeliver()
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

// sequence assigns the next slot (this member is the sequencer) and
// replicates to all non-suspected members.
func (m *Member) sequence(msg []byte) error {
	m.mu.Lock()
	seq := m.nextSeq
	m.nextSeq++
	view := m.view
	m.log[seq] = msg
	peers := append([]string(nil), m.cfg.Peers...)
	m.mu.Unlock()

	w := wire.NewWriter(len(msg) + 16)
	w.Uvarint(uint64(view))
	w.Uvarint(seq)
	w.Bytes_(msg)
	frame := w.Bytes()

	for _, p := range peers {
		if p == m.cfg.Self {
			continue
		}
		m.mu.Lock()
		skip := m.suspected[p]
		m.mu.Unlock()
		if skip {
			continue
		}
		// Retry a bounded number of times before suspecting the peer;
		// it will recover missing entries by fetching when it returns.
		var err error
		for try := 0; try < 2; try++ {
			_, err = m.dialer.CallTimeout(p, MethodCommit, frame, m.cfg.CallTimeout)
			if err == nil || rpc.IsRemote(err) {
				break
			}
		}
		if err != nil && !rpc.IsRemote(err) {
			m.mu.Lock()
			m.suspected[p] = true
			m.mu.Unlock()
		}
	}
	m.tryDeliver()
	return nil
}

// Handle routes broadcast RPCs; the hosting node must call it for the
// Method* method names.
func (m *Member) Handle(from, method string, body []byte) ([]byte, error) {
	switch method {
	case MethodSubmit:
		r := wire.NewReader(body)
		msg := r.Bytes()
		if err := r.Done(); err != nil {
			return nil, err
		}
		if !m.isSequencer() {
			return nil, fmt.Errorf("not sequencer; current view %s", m.Sequencer())
		}
		return nil, m.sequence(msg)

	case MethodCommit:
		r := wire.NewReader(body)
		view := r.Uvarint()
		seq := r.Uvarint()
		msg := r.Bytes()
		if err := r.Done(); err != nil {
			return nil, err
		}
		if err := m.checkView(view); err != nil {
			return nil, err
		}
		m.acceptCommit(int(view), seq, msg)
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
		// The reply leads with the log high-water mark (all old readers
		// parse just that and tolerate the rest) and appends the archive
		// floor, which a restarted member uses to detect that its gap was
		// truncated and must be closed by state sync instead of fetch.
		w := wire.NewWriter(16)
		w.Uvarint(m.maxKnown())
		w.Uvarint(m.Truncated())
		return w.Bytes(), nil

	case MethodHello:
		r := wire.NewReader(body)
		view := r.Uvarint()
		maxSeq := r.Uvarint()
		var stable uint64
		if r.Remaining() > 0 {
			stable = r.Uvarint()
		}
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
// address nobody listens on.
func (m *Member) acceptCommit(view int, seq uint64, msg []byte) {
	m.mu.Lock()
	if view > m.view {
		m.view = view
		delete(m.suspected, m.cfg.Peers[view])
	}
	if view >= m.view {
		m.lastHB = m.rt.Now()
	}
	if _, dup := m.log[seq]; !dup && seq > m.delivered {
		m.log[seq] = msg
	}
	gap := m.delivered+1 < seq && m.missingBelowLocked(seq)
	m.mu.Unlock()
	if gap {
		m.fetchRange(m.cfg.Peers[view], seq)
	}
	m.tryDeliver()
}

func (m *Member) missingBelowLocked(seq uint64) bool {
	for s := m.delivered + 1; s < seq; s++ {
		if _, ok := m.log[s]; !ok {
			return true
		}
	}
	return false
}

func (m *Member) acceptHello(view int, maxSeq uint64, stable uint64) {
	from := m.cfg.Peers[view]
	m.mu.Lock()
	if view >= m.view {
		if view > m.view {
			m.view = view
		}
		m.lastHB = m.rt.Now()
		delete(m.suspected, from)
		if stable > m.stableSeq {
			m.stableSeq = stable
		}
	}
	behind := m.delivered < maxSeq
	m.mu.Unlock()
	if behind {
		m.fetchRange(from, maxSeq)
		m.tryDeliver()
	}
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
		msg := r.Bytes()
		if r.Err() != nil {
			break
		}
		if _, dup := m.log[seq]; !dup && seq > m.delivered {
			m.log[seq] = msg
		}
	}
	m.mu.Unlock()
}

func (m *Member) serveFetch(lo, hi uint64) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	type entry struct {
		seq uint64
		msg []byte
	}
	var entries []entry
	for s := lo; s <= hi; s++ {
		if msg, ok := m.log[s]; ok {
			entries = append(entries, entry{s, msg})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	w := wire.NewWriter(256)
	w.Uvarint(uint64(len(entries)))
	for _, e := range entries {
		w.Uvarint(e.seq)
		w.Bytes_(e.msg)
	}
	return w.Bytes()
}

// tryDeliver hands contiguous log entries to the Deliver callback.
// Exactly one drainer runs the loop at a time: concurrent callers whose
// entries are already in the log return immediately and the active
// drainer picks their entries up, so Deliver is invoked strictly in
// sequence order and never concurrently — racing callers could
// otherwise invoke Deliver(n+1) before Deliver(n) returned. The flag is
// cleared under the same lock that checks for the next entry, so an
// entry inserted while the drainer exits is never stranded.
func (m *Member) tryDeliver() {
	m.mu.Lock()
	if m.delivering {
		m.mu.Unlock()
		return
	}
	m.delivering = true
	for {
		next := m.delivered + 1
		msg, ok := m.log[next]
		if !ok {
			m.delivering = false
			m.mu.Unlock()
			return
		}
		m.delivered = next
		m.deliveries++
		delete(m.log, next) // delivered entries are retained by the app
		// Keep a copy for serving fetches to lagging peers.
		m.archiveLocked(next, msg)
		m.mu.Unlock()
		m.cfg.Deliver(next, msg)
		m.mu.Lock()
	}
}

// archiveLocked keeps delivered messages for gap recovery. Entries are
// kept in the log map under their sequence number (re-inserted after
// delivery bookkeeping) until the hosting node truncates them after
// stability (TruncateBelow). Caller holds m.mu.
func (m *Member) archiveLocked(seq uint64, msg []byte) {
	if seq < m.truncated {
		return
	}
	m.log[seq] = msg
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
			delete(m.log, s)
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
	for _, msg := range m.log {
		n += len(msg)
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
