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
	MethodUpdateBatch = "s.updatebatch" // master -> slave: one commit (a batch of one or more) + batch stamp
	MethodKeepAlive   = "s.keepalive"   // master -> slave: stamp heartbeat
	MethodRead        = "s.read"        // client -> slave: execute a query

	// Auditor methods.
	MethodPledge      = "a.pledge"      // client -> auditor: forward accepted pledge
	MethodPledgeMulti = "a.pledgemulti" // client -> auditor: wave of pledges, one frame

	// Client methods.
	MethodNotify = "c.notify" // master -> client: slave excluded, reassignment
)

// No node routes these: a write is a wave of one (m.writemulti), an update
// a batch of one (s.updatebatch), a bootstrap an m.sync from version 0.
// bench/replbench/instrument.go, which this repository's PRs may not edit
// (BENCHMARK.json), still names them; they go when it is unfrozen
// (ROADMAP item 1).
const (
	MethodWrite    = "m.write"
	MethodUpdate   = "s.update"
	MethodSnapshot = "m.snapshot"
)

// Params are the protocol's tunables. The zero value is not valid; use
// DefaultParams as a base.
type Params struct {
	// MaxLatency bounds the inconsistency window for writes (§3): once
	// MaxLatency has elapsed after a commit, no client accepts a read
	// that does not reflect the write. It also paces writes: two writes
	// cannot commit closer than MaxLatency apart (§3.1).
	MaxLatency time.Duration
	// KeepAliveEvery is how often masters push signed stamps to slaves
	// even without writes (§3.1). Must be well below MaxLatency.
	KeepAliveEvery time.Duration
	// DoubleCheckP is the probability a client double-checks a read with
	// its master (§3.3).
	DoubleCheckP float64
	// AuditorSlack is how long past MaxLatency the auditor waits before
	// moving to the next content version (§3.4: "a sufficiently large
	// time interval (more than max_latency)").
	AuditorSlack time.Duration
	// AuditSampleP is the fraction of pledges the auditor verifies
	// (§3.4: an over-used auditor can "weaken the security guarantees by
	// verifying only a randomly chosen fraction of all reads"). 1 = all.
	AuditSampleP float64
	// ClientMaxLatency, if nonzero, overrides MaxLatency on the client
	// side (§3.2 variant: clients with slow connections set their own
	// freshness bound).
	ClientMaxLatency time.Duration
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
	// GreedyDropFrac is the fraction of a greedy client's double-checks
	// the master ignores (§3.3: "ignoring a large fraction").
	GreedyDropFrac float64

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
		GreedyDropFrac: 0.9,
		Costs:          cryptoutil.DefaultCosts(),
	}
}

// EffectiveClientMaxLatency returns the freshness bound the client
// enforces.
func (p Params) EffectiveClientMaxLatency() time.Duration {
	if p.ClientMaxLatency > 0 {
		return p.ClientMaxLatency
	}
	return p.MaxLatency
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
// query's scan): its full cost, or a cache lookup when a hit made it
// unnecessary.
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
// mistake an unreachable directory for an empty answer (in particular,
// IsExcluded fails closed — an RPC failure is an error, not "not
// excluded"). Certificates and shard tables returned by ShardMap are raw
// directory state; callers verify them against the content key before
// trusting them.
type DirectoryService interface {
	VerifiedMasters() ([]pki.Certificate, error)
	// ShardMap returns the published shard table and every published
	// certificate (all roles). pki.ErrNoShardTable means the deployment
	// is unsharded.
	ShardMap() (pki.ShardTable, []pki.Certificate, error)
	Publish(cert pki.Certificate) error
	Withdraw(subject cryptoutil.PublicKey) error
	RecordExclusion(e pki.Exclusion) error
	IsExcluded(subject cryptoutil.PublicKey) (bool, error)
	ClearExclusion(subject cryptoutil.PublicKey) error
}

// BoundDirectory adapts a *pki.Directory to DirectoryService for one
// content key.
type BoundDirectory struct {
	Dir        *pki.Directory
	ContentKey cryptoutil.PublicKey
}

// VerifiedMasters implements DirectoryService.
func (b BoundDirectory) VerifiedMasters() ([]pki.Certificate, error) {
	return b.Dir.VerifiedMasters(b.ContentKey)
}

// ShardMap implements DirectoryService.
func (b BoundDirectory) ShardMap() (pki.ShardTable, []pki.Certificate, error) {
	table, err := b.Dir.ShardTableFor(b.ContentKey)
	if err != nil {
		return pki.ShardTable{}, nil, err
	}
	certs, err := b.Dir.Lookup(b.ContentKey)
	if err != nil {
		return pki.ShardTable{}, nil, err
	}
	return table, certs, nil
}

// Publish implements DirectoryService.
func (b BoundDirectory) Publish(cert pki.Certificate) error {
	b.Dir.Publish(b.ContentKey, cert)
	return nil
}

// Withdraw implements DirectoryService.
func (b BoundDirectory) Withdraw(subject cryptoutil.PublicKey) error {
	b.Dir.Withdraw(b.ContentKey, subject)
	return nil
}

// RecordExclusion implements DirectoryService.
func (b BoundDirectory) RecordExclusion(e pki.Exclusion) error {
	b.Dir.RecordExclusion(b.ContentKey, e)
	return nil
}

// IsExcluded implements DirectoryService.
func (b BoundDirectory) IsExcluded(subject cryptoutil.PublicKey) (bool, error) {
	return b.Dir.IsExcluded(b.ContentKey, subject), nil
}

// ClearExclusion implements DirectoryService.
func (b BoundDirectory) ClearExclusion(subject cryptoutil.PublicKey) error {
	b.Dir.ClearExclusion(b.ContentKey, subject)
	return nil
}
