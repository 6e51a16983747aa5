package cryptoutil

import (
	"time"

	"repro/internal/sim"
)

// Meter prices one node's work on its simulated CPU under a CostModel.
// A node calls it where it signs, verifies, hashes, executes a query,
// applies an op or sends a reply, by the kind of work, and never handles
// a duration: the meter is the one reader of the cost model. A charge
// parks the calling sim task until the CPU has done the work, which sets
// two rules:
//   - nothing is charged while a mutex is held: work done under one is
//     priced on a Tab and paid after the unlock;
//   - nothing is charged outside a sim task: code that runs before any
//     task starts (a master's WAL replay) is given a nil meter.
//
// A nil *Meter is free, and a node without a CPU gets one: a real
// deployment pays real CPU instead.
type Meter struct {
	cpu   *sim.Resource
	costs CostModel
	tab   bool          // charges add up in owed until Pay
	owed  time.Duration // a tab belongs to the one task that pays it
}

// NewMeter returns the meter that charges cpu under costs; nil when cpu
// is nil.
func NewMeter(cpu *sim.Resource, costs CostModel) *Meter {
	if cpu == nil {
		return nil
	}
	return &Meter{cpu: cpu, costs: costs}
}

var free CostModel // what a nil meter prices work at

func (m *Meter) model() *CostModel {
	if m == nil {
		return &free
	}
	return &m.costs
}

// charge runs d of work as one job on the CPU, or adds it to the tab.
func (m *Meter) charge(d time.Duration) {
	switch {
	case m == nil || d <= 0:
	case m.tab:
		m.owed += d
	default:
		m.cpu.Use(d)
	}
}

// Sign prices one signature made.
func (m *Meter) Sign() { m.charge(m.model().Sign) }

// Verify prices one signature checked, whatever its verdict.
func (m *Meter) Verify() { m.charge(m.model().VerifySig) }

// MemoHit prices a memo lookup that stood in for a signature, a verify or
// a query's scan.
func (m *Meter) MemoHit() { m.charge(m.model().CacheLookup) }

// Memoised prices work a memo can spare: a hit, or the work itself
// (full, one of the methods above).
func (m *Meter) Memoised(hit bool, full func()) {
	if hit {
		m.MemoHit()
	} else {
		full()
	}
}

// Hash prices hashing n bytes.
func (m *Meter) Hash(n int) { m.charge(m.model().HashCost(n)) }

// Exec prices one query: executed over scanned bytes of content, or
// answered from a result memo (hit).
func (m *Meter) Exec(scanned int, hit bool) {
	if hit {
		m.MemoHit()
		return
	}
	m.charge(m.model().QueryCost(scanned))
}

// Apply prices n ops applied to a replica, one job each.
func (m *Meter) Apply(n int) {
	for range n {
		m.charge(m.model().QueryBase)
	}
}

// Reply prices serializing and sending one reply.
func (m *Meter) Reply() { m.charge(m.model().SendReply) }

// Tab returns a meter for one task that adds up what it is charged
// instead of charging it; Pay charges the sum as one job. A nil meter's
// tab is nil.
func (m *Meter) Tab() *Meter {
	if m == nil {
		return nil
	}
	return &Meter{cpu: m.cpu, costs: m.costs, tab: true}
}

// Pay charges what the tab has added up, and clears it.
func (m *Meter) Pay() {
	if m != nil && m.tab && m.owed > 0 {
		owed := m.owed
		m.owed = 0
		m.cpu.Use(owed)
	}
}
