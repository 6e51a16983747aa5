package core

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"repro/internal/cryptoutil"
	"repro/internal/pki"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

// ClientStats counts a client's protocol activity.
type ClientStats struct {
	ReadsAccepted   uint64
	LiesAccepted    uint64 // ground truth: accepted answers that were falsified
	ReadsFailed     uint64
	StaleRejects    uint64 // answers rejected for freshness (§3.2)
	SlaveStale      uint64 // slave refused: its own stamp was stale
	BadPledges      uint64 // replies whose pledge or stamp does not verify (a wrong payload, slave or query included)
	Retries         uint64
	DoubleChecks    uint64
	DoubleThrottled uint64
	CaughtImmediate uint64 // lies caught red-handed by double-check (§3.5)
	ReportsFiled    uint64
	PledgesSent     uint64
	Reassignments   uint64 // slave replaced after exclusion notice
	Resetups        uint64 // a group's setup redone (master crash)
	Redirects       uint64 // wrong-shard rejections that made the client re-read the shard table
	WritesOK        uint64
	WritesFailed    uint64
	KMismatch       uint64 // k-slave variant: answers disagreed (§4)
	// StampCacheHits counts replies completed from the stamp the client
	// held from that slave, StampCacheMisses replies that carried their
	// stamp whole, each verified: between keep-alives a slave's replies
	// name the stamp its client already holds.
	StampCacheHits   uint64
	StampCacheMisses uint64
	// PledgesVerified counts slave signature checks: one per pledge of an
	// answer the auditor did not vouch for, and one per pledge about to be
	// reported.
	PledgesVerified uint64
}

// ClientConfig configures a client.
type ClientConfig struct {
	Addr   string
	Keys   *cryptoutil.KeyPair
	Params Params
	// ContentKey names the content and verifies the shard table and every
	// certificate the directory serves.
	ContentKey cryptoutil.PublicKey
	// Directory is the public directory (setup, §2).
	Directory DirectoryService
	// AuditorAddr receives pledge forwards (§3.4) for every group whose
	// auditor the directory does not publish.
	AuditorAddr string
	// PreferredMaster, if >= 0, picks that index from each group's master
	// list ("the closest one for example"); otherwise random.
	PreferredMaster int
	// KSlaves > 1 enables the §4 variant: each read goes to K slaves and
	// answers must agree.
	KSlaves int
	// Seed drives the double-check coin flips and random master picks.
	Seed int64
}

// ErrUnroutableQuery is returned for a read that is not a point read when
// the shard table has more than one range: only a Get names the one group
// that can answer it.
var ErrUnroutableQuery = errors.New("core: query spans shards (only point reads are routed)")

// shardRedirectAttempts bounds the re-read/re-send loop after wrong-shard
// rejections. Rejection happens at admission — before any commit — so a
// re-send can never duplicate a write.
const shardRedirectAttempts = 3

// slaveAssignment is one slave a group's master assigned, with the stamp
// the client last verified from it: an s.read names that stamp, and a
// reply that leaves it out is completed from it. Client.mu covers stamp; a
// stored stamp is never modified, and an assignment that replaces this one
// starts without a stamp.
type slaveAssignment struct {
	addr  string
	pub   cryptoutil.PublicKey
	stamp *VersionStamp
}

// group is the client's view of one master group, the owner of one range
// of the shard table: the masters certified for its shard, the one the
// client talks to, the slaves that master assigned, and the auditor that
// takes its pledges. id and auditor are fixed at setup; Client.mu covers
// the rest.
type group struct {
	id         uint32
	auditor    string
	masters    []pki.Certificate
	masterAddr string
	masterPub  cryptoutil.PublicKey   // our master (slave cert check)
	masterPubs []cryptoutil.PublicKey // the group's masters (stamp check); replaced, never mutated in place
	slaves     []*slaveAssignment
}

// Client performs reads against its assigned slaves and writes against its
// assigned masters, verifying pledges, enforcing freshness, double-checking
// probabilistically, and forwarding pledges to the auditor before
// accepting (§3.2–§3.4). It routes every operation by the owner-signed
// shard table: a key goes to the group whose range holds it, and a
// deployment the directory publishes no table for is one full-range group.
type Client struct {
	cfg ClientConfig
	rt  sim.Runtime
	dlr rpc.Dialer

	mu     sync.Mutex
	rng    *rand.Rand        // guarded by mu; reads and re-setups draw from it
	table  pki.ShardTable    // verified, or the one full range
	stale  bool              // a wrong-shard rejection outdated table
	groups map[uint32]*group // shard id -> group; nil before Setup
	stats  ClientStats
}

// NewClient creates a client; call Setup before reads or writes.
func NewClient(cfg ClientConfig, rt sim.Runtime, dlr rpc.Dialer) *Client {
	if cfg.KSlaves < 1 {
		cfg.KSlaves = 1
	}
	return &Client{
		cfg: cfg,
		rt:  rt,
		dlr: dlr,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Addr returns the client's address (where it receives notifications).
func (c *Client) Addr() string { return c.cfg.Addr }

// PublicKey returns the client's public key.
func (c *Client) PublicKey() cryptoutil.PublicKey { return c.cfg.Keys.Public }

// SlaveAddr returns the primary slave of the group owning the table's
// first range (the only group of an unsharded deployment).
func (c *Client) SlaveAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g := c.firstGroupLocked(); g != nil && len(g.slaves) > 0 {
		return g.slaves[0].addr
	}
	return ""
}

// MasterAddr returns the master of the group owning the table's first
// range.
func (c *Client) MasterAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g := c.firstGroupLocked(); g != nil {
		return g.masterAddr
	}
	return ""
}

func (c *Client) firstGroupLocked() *group {
	if len(c.table.Shards) == 0 {
		return nil
	}
	return c.groups[c.table.Shards[0].ID]
}

// Setup performs the client setup phase (§2): read the shard table and the
// certificates beside it from the directory, keep what the content owner
// signed, and in every group select a master and obtain slave assignments
// from it.
func (c *Client) Setup() error {
	return c.refresh(false)
}

// refresh re-reads the shard map and installs it. With keep, a group whose
// shard is still in the table keeps its master and slaves; every other
// group is set up afresh, in shard-id order: a master by PreferredMaster
// (else the rng), then one m.getslave.
func (c *Client) refresh(keep bool) error {
	table, groups, err := c.fetchShardMap()
	if err != nil {
		return fmt.Errorf("core: client setup: %w", err)
	}
	for _, id := range slices.Sorted(maps.Keys(groups)) {
		c.mu.Lock()
		old := c.groups[id]
		c.mu.Unlock()
		if keep && old != nil {
			groups[id] = old
			continue
		}
		g := groups[id]
		if len(g.masters) == 0 {
			return fmt.Errorf("core: client setup: shard %d has no verified masters", id)
		}
		idx := c.cfg.PreferredMaster
		if idx < 0 || idx >= len(g.masters) {
			c.mu.Lock()
			idx = c.rng.Intn(len(g.masters))
			c.mu.Unlock()
		}
		c.adoptMaster(g, g.masters, idx)
		if err := c.requestSlaves(g, nil); err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.table, c.groups, c.stale = table, groups, false
	c.mu.Unlock()
	return nil
}

// fetchShardMap reads the shard table and every certificate beside it in
// one directory call and keeps what the content owner signed: the table
// must verify under the content key, and a certificate joins a group only
// if it verifies too and its signed shard id names a range of the table.
// Without a table the deployment is one full-range group of every master
// verifiedMasters accepts, audited at cfg.AuditorAddr.
func (c *Client) fetchShardMap() (pki.ShardTable, map[uint32]*group, error) {
	table, certs, err := c.cfg.Directory.ShardMap()
	if errors.Is(err, pki.ErrNoShardTable) {
		g := &group{auditor: c.cfg.AuditorAddr, masters: verifiedMasters(certs, c.cfg.ContentKey)}
		return pki.ShardTable{Shards: []wire.ShardRef{{}}}, map[uint32]*group{0: g}, nil
	}
	if err != nil {
		return pki.ShardTable{}, nil, err
	}
	if err := table.Verify(c.cfg.ContentKey); err != nil {
		return pki.ShardTable{}, nil, fmt.Errorf("core: shard table rejected: %w", err)
	}
	groups := make(map[uint32]*group, len(table.Shards))
	for _, s := range table.Shards {
		groups[s.ID] = &group{id: s.ID, auditor: c.cfg.AuditorAddr}
	}
	for _, cert := range certs {
		g := groups[cert.Shard]
		if g == nil || cert.Verify(c.cfg.ContentKey) != nil {
			continue
		}
		switch cert.Role {
		case pki.RoleMaster:
			g.masters = append(g.masters, cert)
		case pki.RoleAuditor:
			g.auditor = cert.Addr
		}
	}
	return table, groups, nil
}

// lockTable locks c.mu over a usable table: one a wrong-shard rejection
// outdated (or that Setup never read) is re-read first. The caller
// unlocks.
func (c *Client) lockTable() error {
	c.mu.Lock()
	if !c.stale && c.groups != nil {
		return nil
	}
	c.mu.Unlock()
	if err := c.refresh(true); err != nil {
		return err
	}
	c.mu.Lock()
	return nil
}

// route returns the group that answers q: a Get goes by its key, any other
// query to the only group of a one-range table.
func (c *Client) route(q query.Query) (*group, error) {
	if err := c.lockTable(); err != nil {
		return nil, err
	}
	defer c.mu.Unlock()
	if get, ok := q.(query.Get); ok {
		return c.groups[c.table.ShardFor(get.Key).ID], nil
	}
	if len(c.table.Shards) > 1 {
		return nil, ErrUnroutableQuery
	}
	return c.groups[c.table.Shards[0].ID], nil
}

// adoptMaster records the group's certified masters and the chosen one.
// masterPubs gets a fresh slice: readers snapshot it under c.mu and use it
// after unlocking.
func (c *Client) adoptMaster(g *group, masters []pki.Certificate, chosen int) {
	pubs := subjects(masters)
	c.mu.Lock()
	g.masters = masters
	g.masterAddr = masters[chosen].Addr
	g.masterPub = masters[chosen].Subject
	g.masterPubs = pubs
	c.mu.Unlock()
}

// requestSlaves (re)fills the group's slave assignment list, excluding the
// given addresses.
func (c *Client) requestSlaves(g *group, exclude []string) error {
	c.mu.Lock()
	masterAddr := g.masterAddr
	masterPub := g.masterPub
	k := c.cfg.KSlaves
	c.mu.Unlock()

	w := wire.NewWriter(128)
	w.String_(c.cfg.Addr)
	w.Bytes_(c.cfg.Keys.Public)
	w.Uvarint(uint64(k))
	w.StringSlice(exclude)
	body, err := c.dlr.CallTimeout(masterAddr, MethodGetSlave, w.Bytes(), c.cfg.Params.ReadTimeout)
	if err != nil {
		return err
	}
	r := wire.NewReader(body)
	n := r.Uvarint()
	var assigns []*slaveAssignment
	for i := uint64(0); i < n; i++ {
		cert, err := pki.DecodeCertificate(r)
		if err != nil {
			return err
		}
		// The slave certificate must be signed by our (trusted) master.
		if err := cert.Verify(masterPub); err != nil {
			return err
		}
		assigns = append(assigns, &slaveAssignment{addr: cert.Addr, pub: cert.Subject})
	}
	if len(assigns) == 0 {
		return ErrNoSlaves
	}
	c.mu.Lock()
	g.slaves = assigns
	c.mu.Unlock()
	return nil
}

// resetup redoes one group's setup after its master failed (§3: "all the
// clients connected to the crashed server will have to go through the
// setup process again"), from a fresh read of the directory.
func (c *Client) resetup(g *group) error {
	c.mu.Lock()
	c.stats.Resetups++
	old := g.masterAddr
	c.mu.Unlock()
	_, groups, err := c.fetchShardMap()
	if err != nil {
		return err
	}
	fresh := groups[g.id]
	if fresh == nil || len(fresh.masters) == 0 {
		return fmt.Errorf("core: shard %d has no verified masters", g.id)
	}
	// Prefer a different master than the one that just failed.
	pick := 0
	for i, m := range fresh.masters {
		if m.Addr != old {
			pick = i
			break
		}
	}
	c.adoptMaster(g, fresh.masters, pick)
	return c.requestSlaves(g, nil)
}

// Handle processes master-initiated notifications (MethodNotify). The
// group whose master signed the replacement's certificate takes it.
func (c *Client) Handle(from, method string, body []byte) ([]byte, error) {
	if method != MethodNotify {
		return nil, fmt.Errorf("core: client: unknown method %q", method)
	}
	r := wire.NewReader(body)
	excl, err := pki.DecodeExclusion(r)
	if err != nil {
		return nil, err
	}
	cert, err := pki.DecodeCertificate(r)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var g *group
	for _, cand := range c.groups {
		if cert.Verify(cand.masterPub) == nil {
			g = cand
			break
		}
	}
	if g == nil {
		return nil, fmt.Errorf("core: client: reassignment not signed by any of our masters")
	}
	// Replace the excluded slave in the group's assignment list.
	replaced := false
	for i := range g.slaves {
		if bytes.Equal(g.slaves[i].pub, excl.Subject) {
			g.slaves[i] = &slaveAssignment{addr: cert.Addr, pub: cert.Subject}
			replaced = true
		}
	}
	if !replaced && len(g.slaves) > 0 {
		g.slaves[0] = &slaveAssignment{addr: cert.Addr, pub: cert.Subject}
	}
	c.stats.Reassignments++
	return nil, nil
}

// Write submits op to the master of the group owning its key and waits
// for commit (§3.1): a wave of one. It returns the new content version.
func (c *Client) Write(op store.Op) (uint64, error) {
	versions, err := c.WriteMulti([]store.Op{op})
	if err != nil {
		return 0, err
	}
	return versions[0], nil
}

// WriteMulti submits a wave of ops and returns the assigned versions in
// submission order. The wave is split by the shard table, and each group's
// part travels in shard-id order as ONE m.writemulti frame under ONE
// client signature (WriteWave): its master verifies the signature and the
// ACL once, validates every op, and admits or refuses the part whole — so
// n writes cost one client signature per group, ~n/BatchSize master
// signatures and one network exchange per group. Each part commits whole,
// in one batch at contiguous versions, or not at all: one that did not
// commit reports version 0 for each of its ops, and WriteMulti returns
// its error without sending the parts after it. A part refused as
// wrong-shard (the table was stale) committed nothing: the client re-reads
// the table and re-sends only that part, at most shardRedirectAttempts
// times.
func (c *Client) WriteMulti(ops []store.Op) ([]uint64, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	versions := make([]uint64, len(ops))
	remaining := make([]int, len(ops))
	for i := range ops {
		remaining[i] = i
	}
	var lastErr error
	for attempt := 0; attempt < shardRedirectAttempts && len(remaining) > 0; attempt++ {
		if err := c.lockTable(); err != nil {
			return nil, err
		}
		parts := make(map[*group][]int)
		for _, i := range remaining {
			g := c.groups[c.table.ShardFor(store.KeyOf(ops[i])).ID]
			parts[g] = append(parts[g], i)
		}
		c.mu.Unlock()

		var redirected []int
		// Shard-id order keeps the simulator's schedule deterministic.
		for _, g := range slices.SortedFunc(maps.Keys(parts), func(a, b *group) int { return cmp.Compare(a.id, b.id) }) {
			idxs := parts[g]
			part := make([]store.Op, len(idxs))
			for j, i := range idxs {
				part[j] = ops[i]
			}
			first, err := c.writeGroup(g, part)
			if IsWrongShard(err) {
				lastErr = err
				c.mu.Lock()
				c.stats.Redirects++
				c.stale = true
				c.mu.Unlock()
				redirected = append(redirected, idxs...)
				continue
			}
			if err != nil {
				return versions, err
			}
			for j, i := range idxs {
				versions[i] = first + uint64(j)
			}
		}
		remaining = redirected
	}
	if len(remaining) > 0 {
		return versions, fmt.Errorf("core: %d wave writes still misrouted after %d redirects: %w",
			len(remaining), shardRedirectAttempts, lastErr)
	}
	return versions, nil
}

// writeGroup sends one group's part of a wave to the group's master and
// returns the version of its first op: the part commits whole, at
// first…first+len(ops)-1, or not at all. A transport failure means the
// master crashed: the group redoes setup and the part is sent once more.
func (c *Client) writeGroup(g *group, ops []store.Op) (first uint64, err error) {
	defer func() {
		c.mu.Lock()
		if err == nil {
			c.stats.WritesOK += uint64(len(ops))
		} else {
			c.stats.WritesFailed += uint64(len(ops))
		}
		c.mu.Unlock()
	}()
	ww := SignWave(c.cfg.Keys, ops)
	reqFrame := wire.EncodeFrame(ww.Encode)

	for attempt := 0; attempt < 2; attempt++ {
		c.mu.Lock()
		masterAddr := g.masterAddr
		c.mu.Unlock()
		// No client-side bound: a wave that timed out here may still
		// commit, and the re-send below would apply it twice (ROADMAP
		// item 3).
		var body []byte
		body, err = c.dlr.CallTimeout(masterAddr, MethodWriteMulti, reqFrame, 0)
		if err == nil {
			r := wire.NewReader(body)
			first = r.Uvarint()
			if err = r.Done(); err == nil && first == 0 {
				err = fmt.Errorf("core: a wave of %d writes was not committed", len(ops))
			}
			return first, err
		}
		if rpc.IsRemote(err) {
			return 0, err
		}
		// Transport failure: master crashed; redo setup and retry once.
		if err = c.resetup(g); err != nil {
			return 0, err
		}
	}
	return 0, rpc.ErrUnreachable
}

// Read executes q through the untrusted read protocol (§3.2) with the
// configured double-check probability.
func (c *Client) Read(q query.Query) ([]byte, error) {
	return c.readWithCheckProb(q, c.cfg.Params.DoubleCheckP)
}

// ReadAtLevel executes q with a security-level-specific double-check
// probability (§4 refinement: "assigns even more security levels ... and
// sets the double-check probability based on the read's security level").
// Probability 1 means "execute only on trusted hosts": the read is served
// by the master directly.
func (c *Client) ReadAtLevel(q query.Query, checkProb float64) ([]byte, error) {
	if checkProb >= 1 {
		return c.ReadSensitive(q)
	}
	return c.readWithCheckProb(q, checkProb)
}

// ReadSensitive executes q on the trusted master only (§4: "'security
// sensitive' reads ... executed only by the trusted servers, which
// guarantees that clients always get correct results").
func (c *Client) ReadSensitive(q query.Query) ([]byte, error) {
	g, err := c.route(q)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	masterAddr := g.masterAddr
	c.mu.Unlock()
	_, _, payload, err := c.masterCheck(masterAddr, query.Encode(q), true)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.stats.ReadsAccepted++
	c.mu.Unlock()
	return payload, nil
}

func (c *Client) readWithCheckProb(q query.Query, checkProb float64) ([]byte, error) {
	g, err := c.route(q)
	if err != nil {
		return nil, err
	}
	queryBytes := query.Encode(q)
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Params.MaxReadRetries; attempt++ {
		if attempt > 0 {
			c.mu.Lock()
			c.stats.Retries++
			c.mu.Unlock()
		}
		payload, err := c.readOnce(g, queryBytes, checkProb)
		if err == nil {
			return payload, nil
		}
		lastErr = err
		if errors.Is(err, errRetry) {
			continue
		}
		break
	}
	c.mu.Lock()
	c.stats.ReadsFailed++
	c.mu.Unlock()
	return nil, lastErr
}

// errRetry marks failures that should be retried (stale answers, slave
// replacement, version races).
var errRetry = errors.New("core: retryable read failure")

// readOnce is one attempt of the read protocol (§3.2–§3.4) against the
// group's assigned slaves — one, or K in the §4 variant. Every slave gets
// the query and every reply's stamp is checked (checkReply). If the
// answers agree the client "proceeds as in the original algorithm" (§4): a
// probabilistic double-check (§3.3), then the pledges go to the auditor
// (§3.4) before the result is accepted. If they disagree the client
// double-checks with the master unconditionally and reports every slave
// whose pledge does not match the trusted hash. A slave signature is
// verified in two places only: after the forward, unless the auditor
// vouched for the answer (pledgeVouch) — the trusted auditor found that
// result hash at that signed, fresh version, so there is no lie to pin on
// anyone, and a lie is never vouched for — and in reportPledge, before any
// report is filed.
func (c *Client) readOnce(g *group, queryBytes []byte, checkProb float64) ([]byte, error) {
	c.mu.Lock()
	assigns := slices.Clone(g.slaves[:min(len(g.slaves), c.cfg.KSlaves)])
	masterPubs := g.masterPubs
	c.mu.Unlock()
	if len(assigns) == 0 {
		return nil, ErrNoSlaves
	}
	replies := make([]ReadReply, len(assigns))
	agree := true
	for i, sl := range assigns {
		reply, held, err := c.callSlaveRead(g, sl, queryBytes)
		if err != nil {
			return nil, err
		}
		if err := c.checkReply(sl, held, masterPubs, queryBytes, &reply); err != nil {
			return nil, err
		}
		replies[i] = reply
		agree = agree && reply.Pledge.ResultHash.Equal(replies[0].Pledge.ResultHash)
	}
	if agree {
		c.mu.Lock()
		check := c.rng.Float64() < checkProb
		c.mu.Unlock()
		if check {
			if err := c.doubleCheck(g, assigns[0].addr, queryBytes, replies[0]); err != nil {
				return nil, err
			}
		}
		vouched, err := c.forwardPledges(g, replies)
		if err != nil {
			return nil, err
		}
		if !vouched {
			for i := range replies {
				if err := c.verifyPledge(&replies[i].Pledge); err != nil {
					return nil, err
				}
			}
		}
		c.mu.Lock()
		c.stats.ReadsAccepted++
		if replies[0].XLie {
			c.stats.LiesAccepted++
		}
		c.mu.Unlock()
		return replies[0].Payload, nil
	}

	// Disagreement: at least one slave is malicious — mandatory check.
	c.mu.Lock()
	c.stats.KMismatch++
	c.stats.DoubleChecks++
	masterAddr := g.masterAddr
	c.mu.Unlock()
	version, digest, _, err := c.masterCheck(masterAddr, queryBytes, false)
	if err != nil {
		return nil, err
	}
	var liars []string
	for i, r := range replies {
		if version == r.Pledge.Stamp.Version && !digest.Equal(r.Pledge.ResultHash) {
			if err := c.reportPledge(g, &r.Pledge); err == nil {
				c.mu.Lock()
				c.stats.ReportsFiled++
				c.stats.CaughtImmediate++
				c.mu.Unlock()
				liars = append(liars, assigns[i].addr)
			}
		}
	}
	if len(liars) > 0 {
		// Request a fresh assignment that avoids the convicted slaves
		// (the master has excluded them; notifications may race this).
		if err := c.requestSlaves(g, liars); err != nil {
			return nil, err
		}
	}
	return nil, errRetry
}

// callSlaveRead performs the slave RPC, replacing the slave if it is
// unreachable and classifying stale refusals as retryable. The request
// names the stamp held from the slave, captured before the call and
// returned with the reply: a reply that leaves its stamp out is completed
// from that one, never from a stamp a concurrent read stored meanwhile.
func (c *Client) callSlaveRead(g *group, sl *slaveAssignment, queryBytes []byte) (_ ReadReply, held *VersionStamp, _ error) {
	c.mu.Lock()
	held = sl.stamp
	c.mu.Unlock()
	body, err := c.dlr.CallTimeout(sl.addr, MethodRead, encodeReadRequest(queryBytes, held), c.cfg.Params.ReadTimeout)
	if err != nil {
		if rpc.IsRemote(err) && strings.Contains(err.Error(), ErrStale.Error()) {
			// Honest slave is out of sync (§3.1); wait a beat and retry.
			c.mu.Lock()
			c.stats.SlaveStale++
			c.mu.Unlock()
			c.rt.Sleep(c.cfg.Params.KeepAliveEvery)
			return ReadReply{}, nil, errRetry
		}
		if !rpc.IsRemote(err) {
			// Slave unreachable: ask the master for a replacement.
			c.mu.Lock()
			c.stats.Reassignments++
			c.mu.Unlock()
			if rerr := c.requestSlaves(g, []string{sl.addr}); rerr != nil {
				return ReadReply{}, nil, rerr
			}
			return ReadReply{}, nil, errRetry
		}
		return ReadReply{}, nil, err
	}
	reply, err := DecodeReadReply(body)
	return reply, held, err
}

// checkReply completes the reply's pledge from what the client holds —
// the stamp held from that slave when the reply leaves it out, the query it
// asked, the hash of the payload it got, the key of the slave it asked —
// and performs the client-side checks of §3.2 that nothing stands in for,
// on every reply: the stamp beside the pledge is from a certified master
// and it is fresh. A stamp that arrives whole is signature-checked before
// its first use and becomes the one held from that slave; a held stamp, or
// a whole one identical to it, was checked when it arrived. A reply that
// leaves out a stamp the request did not name is refused, and a held stamp
// that fails a check is dropped, so the next request names none. Whether
// the slave signed the pledge is verifyPledge's question.
func (c *Client) checkReply(sl *slaveAssignment, held *VersionStamp, masterPubs []cryptoutil.PublicKey, queryBytes []byte, reply *ReadReply) error {
	full := len(reply.Pledge.Stamp.Sig) > 0
	if full {
		// A whole stamp identical to the one held from that slave — a
		// concurrent read stored it after this request named another — was
		// verified when it arrived first: it is taken as the held one.
		c.mu.Lock()
		if sl.stamp != nil && sl.stamp.equal(&reply.Pledge.Stamp) {
			held, full = sl.stamp, false
		}
		c.mu.Unlock()
	}
	if !full && held != nil {
		reply.Pledge.Stamp = *held
	}
	p := reply.completePledge(queryBytes, sl.pub)
	var err error
	switch {
	case full:
		err = p.Stamp.Verify(masterPubs)
	case held == nil:
		err = fmt.Errorf("%w: the reply leaves out a stamp the request did not name", ErrBadStamp)
	case !p.Stamp.certifiedBy(masterPubs):
		err = fmt.Errorf("%w: unknown master key", ErrBadStamp)
	}
	stale := err == nil && !p.Stamp.Fresh(c.rt.Now(), c.cfg.Params.MaxLatency)
	c.mu.Lock()
	defer c.mu.Unlock()
	if full {
		c.stats.StampCacheMisses++
	} else if held != nil {
		c.stats.StampCacheHits++
	}
	switch {
	case err != nil:
		c.stats.BadPledges++
		err = fmt.Errorf("%w: %v", errRetry, err)
	case stale:
		// Fresh when sent, stale on arrival: drop and retry (§3.2).
		c.stats.StaleRejects++
		err = fmt.Errorf("%w: %v", errRetry, ErrStale)
	case full:
		stamp := p.Stamp
		stamp.MasterPub, stamp.Sig = bytes.Clone(stamp.MasterPub), bytes.Clone(stamp.Sig)
		sl.stamp = &stamp
		return nil
	default:
		return nil
	}
	if !full && sl.stamp == held {
		sl.stamp = nil
	}
	return err
}

// verifyPledge checks that the slave signed the pledge checkReply
// completed. A reply whose payload, query or slave is not the one asked
// about fails it. The error is retryable and is ErrBadPledge.
func (c *Client) verifyPledge(p *Pledge) error {
	err := p.VerifySig()
	c.mu.Lock()
	c.stats.PledgesVerified++
	if err != nil {
		c.stats.BadPledges++
		err = fmt.Errorf("%w: %w", errRetry, err)
	}
	c.mu.Unlock()
	return err
}

// masterCheck runs a query on the master; wantPayload selects the
// sensitive-read flavour. Returns (version, hash, payload).
func (c *Client) masterCheck(masterAddr string, queryBytes []byte, wantPayload bool) (uint64, cryptoutil.Digest, []byte, error) {
	w := wire.NewWriter(len(queryBytes) + 64)
	w.Bytes_(c.cfg.Keys.Public)
	w.Bool(wantPayload)
	w.Bytes_(queryBytes)
	body, err := c.dlr.CallTimeout(masterAddr, MethodCheck, w.Bytes(), c.cfg.Params.ReadTimeout)
	if err != nil {
		return 0, cryptoutil.Digest{}, nil, err
	}
	r := wire.NewReader(body)
	version := r.Uvarint()
	var digest cryptoutil.Digest
	h := r.BytesView()
	hasPayload := r.Bool()
	var payload []byte
	if hasPayload {
		payload = r.Bytes()
	}
	if err := r.Done(); err != nil {
		return 0, cryptoutil.Digest{}, nil, fmt.Errorf("%w: m.check reply: %w", errRetry, err)
	}
	// A digest of any other length is no answer: read as the zero digest it
	// would contradict every honest pledge and convict the slave.
	if len(h) != cryptoutil.DigestSize {
		return 0, cryptoutil.Digest{}, nil, fmt.Errorf("%w: m.check reply: a digest of %d bytes", errRetry, len(h))
	}
	copy(digest[:], h)
	return version, digest, payload, nil
}

// doubleCheck compares the pledged hash of the slave at slaveAddr, which
// answered, with the master's own execution (§3.3); on mismatch it reports
// the pledge (§3.5 immediate discovery) and retries the read on the
// replacement slave.
func (c *Client) doubleCheck(g *group, slaveAddr string, queryBytes []byte, reply ReadReply) error {
	c.mu.Lock()
	c.stats.DoubleChecks++
	masterAddr := g.masterAddr
	c.mu.Unlock()
	version, digest, _, err := c.masterCheck(masterAddr, queryBytes, false)
	if err != nil {
		if rpc.IsRemote(err) && strings.Contains(err.Error(), ErrThrottled.Error()) {
			// Master suspects us of being greedy; proceed without the
			// check (the audit still covers this read).
			c.mu.Lock()
			c.stats.DoubleThrottled++
			c.mu.Unlock()
			return nil
		}
		return err
	}
	if version != reply.Pledge.Stamp.Version {
		// A write committed between the slave's answer and our check;
		// inconclusive — retry the read.
		return errRetry
	}
	if digest.Equal(reply.Pledge.ResultHash) {
		return nil
	}
	err = c.reportPledge(g, &reply.Pledge)
	if errors.Is(err, ErrBadPledge) {
		return err // a wrong answer its slave never signed frames nobody
	}
	// Caught red-handed.
	c.mu.Lock()
	c.stats.CaughtImmediate++
	if err == nil {
		c.stats.ReportsFiled++
	}
	c.mu.Unlock()
	// Proactively replace the convicted slave rather than waiting for the
	// master's notification (which may not be deliverable, e.g. clients
	// behind NAT); the master has already excluded it. A notification may
	// have reassigned the slot meanwhile: the slave excluded is the one
	// that answered.
	c.requestSlaves(g, []string{slaveAddr})
	return errRetry
}

// reportPledge verifies the pledge's slave signature and files its
// evidence frame with the group's master, so every report carries a
// verified pledge; a pledge that does not verify is not filed, and the
// error is ErrBadPledge. Client reports are unsigned: the master convicts
// by re-executing the query itself (immediate discovery, §3.5).
func (c *Client) reportPledge(g *group, p *Pledge) error {
	if err := c.verifyPledge(p); err != nil {
		return err
	}
	c.mu.Lock()
	masterAddr := g.masterAddr
	c.mu.Unlock()
	body := wire.EncodeFrame(func(w *wire.Writer) {
		w.Bytes_(EncodePledge(*p))
		w.Bytes_(nil)
	})
	_, err := c.dlr.CallTimeout(masterAddr, MethodReport, body, c.cfg.Params.ReadTimeout)
	return err
}

// forwardPledges sends the group's auditor the evidence frames of an
// accepted read — one per slave, back to back in one a.pledge body — and
// waits for the ack; clients accept results only after this completes
// (§3.4). It reports whether the ack is exactly the auditor's vouch.
func (c *Client) forwardPledges(g *group, replies []ReadReply) (vouched bool, err error) {
	c.mu.Lock()
	c.stats.PledgesSent += uint64(len(replies))
	c.mu.Unlock()
	body := wire.EncodeFrame(func(w *wire.Writer) {
		for i := range replies {
			replies[i].Pledge.Encode(w)
		}
	})
	ack, err := c.dlr.CallTimeout(g.auditor, MethodPledge, body, c.cfg.Params.ReadTimeout)
	return bytes.Equal(ack, pledgeVouch), err
}
