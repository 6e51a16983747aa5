package core

import "time"

// greedyDropFrac is the fraction of a flagged client's double-checks the
// master ignores (§3.3: "ignoring a large fraction").
const greedyDropFrac = 0.9

// greedyTracker implements the paper's greedy-client policing (§3.3): a
// client is only supposed to double-check a small random fraction of its
// reads; one that double-checks (nearly) everything shifts read load back
// onto the trusted masters. Masters keep per-client counts of
// double-check requests over a sliding window and flag clients whose
// count is statistically anomalous — far above the per-client mean. The
// master then ignores a large fraction of the flagged client's
// double-checks.
type greedyTracker struct {
	params Params
	window time.Duration
	counts map[string][]time.Time // in-window double-checks per client key; no empty window
}

func newGreedyTracker(p Params) *greedyTracker {
	return &greedyTracker{params: p, window: p.GreedyWindow, counts: make(map[string][]time.Time)}
}

// record notes one double-check from the client and reports whether the
// client is currently flagged as greedy. Callers throttle flagged clients
// probabilistically (greedyDropFrac).
func (g *greedyTracker) record(client string, now time.Time) bool {
	cutoff := now.Add(-g.window)
	g.counts[client] = append(g.counts[client], now)
	// One walk drops every entry older than the window and every client
	// whose window is then empty — the key is an unauthenticated field of
	// m.check, so none may outlive its window — and counts the rest.
	total := 0
	for c, ts := range g.counts {
		i := 0
		for i < len(ts) && ts[i].Before(cutoff) {
			i++
		}
		if i == len(ts) {
			delete(g.counts, c)
			continue
		}
		g.counts[c] = ts[i:]
		total += len(ts) - i
	}
	active := len(g.counts)

	// Flag when this client's in-window count exceeds GreedyFactor times
	// the mean across all active clients, beyond a minimum burst.
	mine := len(g.counts[client])
	if mine < g.params.GreedyMinBurst {
		return false
	}
	if active <= 1 {
		// A single client with a large burst is flagged on burst alone.
		return mine >= g.params.GreedyMinBurst*2
	}
	// Compare against the mean of the *other* clients so a heavy abuser
	// does not dilute its own baseline.
	meanOthers := float64(total-mine) / float64(active-1)
	return float64(mine) > g.params.GreedyFactor*meanOthers+1
}
