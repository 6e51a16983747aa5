package core

import (
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/pki"
	"repro/internal/sim"
)

// RPC method names used by the protocol. Masters additionally route the
// broadcast package's method names to their broadcast member.
const (
	// Master methods.
	MethodWriteMulti = "m.writemulti" // client -> master: wave of writes (one or more), one frame
	MethodGetSlave   = "m.getslave"   // client -> master: slave assignment (setup)
	MethodCheck      = "m.check"      // client -> master: double-check a read
	MethodReport     = "m.report"     // client/auditor -> master: incriminating pledge
	MethodSync       = "m.sync"       // slave/master -> master: state transfer (missed updates, bootstrap, recovery)

	// Slave methods.
	MethodKeepAlive = "s.keepalive" // master -> slave: stamp heartbeat, and each batch's announce
	MethodRead      = "s.read"      // client -> slave: execute a query

	// Auditor methods.
	MethodPledge = "a.pledge" // client -> auditor: an accepted read's evidence frames, back to back

	// Client methods.
	MethodNotify = "c.notify" // master -> client: slave excluded, reassignment
)

// Params are the protocol's tunables. The zero value is not valid; use
// DefaultParams as a base.
type Params struct {
	// MaxLatency bounds the inconsistency window for writes (§3): once
	// MaxLatency has elapsed after a commit, no client accepts a read
	// that does not reflect the write. It also paces writes: two writes
	// cannot commit closer than MaxLatency apart (§3.1). A client checks
	// freshness against its own copy, so a client on a slow link can set
	// a looser bound than the masters pace by (§3.2 variant).
	MaxLatency time.Duration
	// KeepAliveEvery is how often masters send signed stamps to slaves
	// even without writes (§3.1). Must be well below MaxLatency.
	KeepAliveEvery time.Duration
	// DoubleCheckP is the probability a client double-checks a read with
	// its master (§3.3); a greedy client sets its own to 1.
	DoubleCheckP float64
	// AuditorSlack is how long past MaxLatency the auditor waits before
	// moving to the next content version (§3.4: "a sufficiently large
	// time interval (more than max_latency)").
	AuditorSlack time.Duration
	// AuditSampleP is the fraction of pledges the auditor verifies
	// (§3.4: an over-used auditor can "weaken the security guarantees by
	// verifying only a randomly chosen fraction of all reads"). 1 = all.
	AuditSampleP float64
	// ReadTimeout bounds a client's wait for any single RPC.
	ReadTimeout time.Duration
	// MaxReadRetries bounds how often a client retries a stale or failed
	// read before giving up.
	MaxReadRetries int

	// GreedyWindow is the sliding window for double-check accounting at
	// masters (§3.3 greedy-client detection).
	GreedyWindow time.Duration
	// GreedyFactor flags a client as greedy when its double-check count
	// exceeds GreedyFactor x the per-client mean, beyond GreedyMinBurst.
	GreedyFactor float64
	// GreedyMinBurst is the minimum count before a client can be flagged.
	GreedyMinBurst int

	// Costs model CPU time charged on node resources (simulation only).
	Costs cryptoutil.CostModel
}

// DefaultParams returns the parameter set used throughout the experiments
// unless a sweep overrides specific fields.
func DefaultParams() Params {
	return Params{
		MaxLatency:     2 * time.Second,
		KeepAliveEvery: 500 * time.Millisecond,
		DoubleCheckP:   0.05,
		AuditorSlack:   500 * time.Millisecond,
		AuditSampleP:   1.0,
		ReadTimeout:    10 * time.Second,
		MaxReadRetries: 4,
		GreedyWindow:   30 * time.Second,
		GreedyFactor:   8,
		GreedyMinBurst: 20,
		Costs:          cryptoutil.DefaultCosts(),
	}
}

// chargeCPU runs d of work on the node's CPU resource, if one is
// configured (simulation); otherwise it is free (real deployments pay
// real CPU instead).
func chargeCPU(cpu *sim.Resource, d time.Duration) {
	if cpu != nil && d > 0 {
		cpu.Use(d)
	}
}

// chargeMemoised charges work a memo can spare (a signature operation, a
// query's scan): full, or a cache lookup when a hit made it unnecessary.
func chargeMemoised(cpu *sim.Resource, costs cryptoutil.CostModel, full time.Duration, hit bool) {
	if hit {
		full = costs.CacheLookup
	}
	chargeCPU(cpu, full)
}

// DirectoryService is the slice of pki.Directory behaviour the protocol
// needs, bound to one content key. In simulations the directory object is
// shared in-process; over TCP cmd/replnode serves it remotely. Every
// method that can cross a network reports failure: callers must never
// mistake an unreachable directory for an empty answer. The directory is
// untrusted: every answer is raw directory state, and callers verify
// certificates and shard tables against the content key before trusting
// them (verifiedMasters, and Client.fetchShardMap for the table).
type DirectoryService interface {
	// ShardMap returns the published shard table and every published
	// certificate (all roles). pki.ErrNoShardTable, with the certificates
	// beside it, means the deployment is unsharded.
	ShardMap() (pki.ShardTable, []pki.Certificate, error)
	RecordExclusion(e pki.Exclusion) error
	// Retract withdraws a certificate or lifts an exclusion; the directory
	// acts only on a retraction a certified master signed.
	Retract(r pki.Retraction) error
}

// BoundDirectory adapts a *pki.Directory to DirectoryService for one
// content key.
type BoundDirectory struct {
	Dir        *pki.Directory
	ContentKey cryptoutil.PublicKey
}

// ShardMap implements DirectoryService, answering what dirsrv serves for
// the same state: no certificates is an empty list, not an error.
func (b BoundDirectory) ShardMap() (pki.ShardTable, []pki.Certificate, error) {
	certs, _ := b.Dir.Lookup(b.ContentKey)
	table, err := b.Dir.ShardTableFor(b.ContentKey)
	return table, certs, err
}

// verifiedMasters keeps the master certificates that verify under the
// content key. Every master key a client or master checks a stamp or a
// slave certificate against comes from the untrusted directory through
// here or through Client.fetchShardMap.
func verifiedMasters(certs []pki.Certificate, contentKey cryptoutil.PublicKey) []pki.Certificate {
	var out []pki.Certificate
	for _, c := range certs {
		if c.Role == pki.RoleMaster && c.Verify(contentKey) == nil {
			out = append(out, c)
		}
	}
	return out
}

// subjects returns the certified keys, in certificate order.
func subjects(certs []pki.Certificate) []cryptoutil.PublicKey {
	pubs := make([]cryptoutil.PublicKey, len(certs))
	for i, c := range certs {
		pubs[i] = c.Subject
	}
	return pubs
}

// RecordExclusion implements DirectoryService.
func (b BoundDirectory) RecordExclusion(e pki.Exclusion) error {
	b.Dir.RecordExclusion(b.ContentKey, e)
	return nil
}

// Retract implements DirectoryService.
func (b BoundDirectory) Retract(r pki.Retraction) error {
	return b.Dir.Retract(b.ContentKey, r)
}
