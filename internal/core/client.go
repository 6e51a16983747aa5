package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
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
	HashMismatches  uint64 // payload/pledge hash mismatch (transport-level lie)
	BadPledges      uint64
	Retries         uint64
	DoubleChecks    uint64
	DoubleThrottled uint64
	CaughtImmediate uint64 // lies caught red-handed by double-check (§3.5)
	ReportsFiled    uint64
	PledgesSent     uint64
	Reassignments   uint64 // slave replaced after exclusion notice
	Resetups        uint64 // full setup redone (master crash)
	WritesOK        uint64
	WritesFailed    uint64
	KMismatch       uint64 // k-slave variant: answers disagreed (§4)
	// StampCacheHits/Misses count verified-stamp cache consultations:
	// between content updates every read reply carries the same master
	// stamp, so hits replace full signature verifications.
	StampCacheHits   uint64
	StampCacheMisses uint64
	// PledgeCacheHits/Misses count verified-pledge cache consultations: a
	// repeat of a popular query at the same content version returns the
	// same slave signature, which was already checked.
	PledgeCacheHits   uint64
	PledgeCacheMisses uint64
}

// ClientConfig configures a client.
type ClientConfig struct {
	Addr   string
	Keys   *cryptoutil.KeyPair
	Params Params
	// ContentKey names the content and verifies master certificates.
	ContentKey cryptoutil.PublicKey
	// Directory is the public directory (setup, §2).
	Directory DirectoryService
	// AuditorAddr receives pledge forwards (§3.4).
	AuditorAddr string
	// PreferredMaster, if >= 0, picks that index from the directory's
	// master list ("the closest one for example"); otherwise random.
	PreferredMaster int
	// KSlaves > 1 enables the §4 variant: each read goes to K slaves and
	// answers must agree.
	KSlaves int
	// ForceDoubleCheck makes the client double-check every read — the
	// "greedy client" behaviour of §3.3.
	ForceDoubleCheck bool
	// Seed drives the double-check coin flips.
	Seed int64
}

type slaveAssignment struct {
	addr string
	pub  cryptoutil.PublicKey
}

// Client performs reads against its assigned slave and writes against its
// assigned master, verifying pledges, enforcing freshness, double-checking
// probabilistically, and forwarding pledges to the auditor before
// accepting (§3.2–§3.4).
type Client struct {
	cfg ClientConfig
	rt  sim.Runtime
	dlr rpc.Dialer
	rng *rand.Rand

	mu         sync.Mutex
	masterAddr string
	masterPubs []cryptoutil.PublicKey // all certified masters (stamp check); replaced, never mutated in place
	masterPub  cryptoutil.PublicKey   // our master (slave cert check)
	slaves     []slaveAssignment
	stats      ClientStats

	// stamps and pledges remember verified signatures: the same stamp comes
	// back between keep-alives, the same pledge between content updates.
	stamps, pledges *sigCache
}

// NewClient creates a client; call Setup before reads or writes.
func NewClient(cfg ClientConfig, rt sim.Runtime, dlr rpc.Dialer) *Client {
	if cfg.KSlaves < 1 {
		cfg.KSlaves = 1
	}
	return &Client{
		cfg:     cfg,
		rt:      rt,
		dlr:     dlr,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		stamps:  newSigCache(),
		pledges: newSigCache(),
	}
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.StampCacheHits, st.StampCacheMisses = c.stamps.stats()
	st.PledgeCacheHits, st.PledgeCacheMisses = c.pledges.stats()
	return st
}

// Addr returns the client's address (where it receives notifications).
func (c *Client) Addr() string { return c.cfg.Addr }

// PublicKey returns the client's public key.
func (c *Client) PublicKey() cryptoutil.PublicKey { return c.cfg.Keys.Public }

// SlaveAddr returns the client's current primary slave.
func (c *Client) SlaveAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.slaves) == 0 {
		return ""
	}
	return c.slaves[0].addr
}

// MasterAddr returns the client's current master.
func (c *Client) MasterAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.masterAddr
}

// Setup performs the client setup phase (§2): query the directory for the
// certified master set, select one master, and obtain slave assignments
// from it.
func (c *Client) Setup() error {
	masters, err := c.cfg.Directory.VerifiedMasters()
	if err != nil {
		return fmt.Errorf("core: client setup: %w", err)
	}
	idx := c.cfg.PreferredMaster
	if idx < 0 || idx >= len(masters) {
		idx = c.rng.Intn(len(masters))
	}
	c.adoptMasters(masters, idx)
	return c.requestSlaves(nil)
}

// adoptMasters records the certified master set and the chosen master.
// masterPubs gets a fresh slice: readers snapshot it under c.mu and use
// it after unlocking.
func (c *Client) adoptMasters(masters []pki.Certificate, chosen int) {
	pubs := make([]cryptoutil.PublicKey, len(masters))
	for i, m := range masters {
		pubs[i] = m.Subject
	}
	c.mu.Lock()
	c.masterAddr = masters[chosen].Addr
	c.masterPub = masters[chosen].Subject
	c.masterPubs = pubs
	c.mu.Unlock()
}

// requestSlaves (re)fills the slave assignment list, excluding the given
// addresses.
func (c *Client) requestSlaves(exclude []string) error {
	c.mu.Lock()
	masterAddr := c.masterAddr
	masterPub := c.masterPub
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
	var assigns []slaveAssignment
	for i := uint64(0); i < n; i++ {
		cert, err := pki.DecodeCertificate(r)
		if err != nil {
			return err
		}
		// The slave certificate must be signed by our (trusted) master.
		if err := cert.Verify(masterPub); err != nil {
			return err
		}
		assigns = append(assigns, slaveAssignment{addr: cert.Addr, pub: cert.Subject})
	}
	if len(assigns) == 0 {
		return ErrNoSlaves
	}
	c.mu.Lock()
	c.slaves = assigns
	c.mu.Unlock()
	return nil
}

// resetup redoes the whole setup phase after a master failure (§3: "all
// the clients connected to the crashed server will have to go through the
// setup process again").
func (c *Client) resetup() error {
	c.mu.Lock()
	c.stats.Resetups++
	old := c.masterAddr
	c.mu.Unlock()
	masters, err := c.cfg.Directory.VerifiedMasters()
	if err != nil {
		return err
	}
	// Prefer a different master than the one that just failed.
	pick := -1
	for i, m := range masters {
		if m.Addr != old {
			pick = i
			break
		}
	}
	if pick < 0 {
		pick = 0
	}
	c.adoptMasters(masters, pick)
	return c.requestSlaves(nil)
}

// Handle processes master-initiated notifications (MethodNotify).
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
	if err := cert.Verify(c.masterPub); err != nil {
		return nil, err
	}
	// Replace the excluded slave in our assignment list.
	replaced := false
	for i := range c.slaves {
		if bytes.Equal(c.slaves[i].pub, excl.Subject) {
			c.slaves[i] = slaveAssignment{addr: cert.Addr, pub: cert.Subject}
			replaced = true
		}
	}
	if !replaced && len(c.slaves) > 0 {
		c.slaves[0] = slaveAssignment{addr: cert.Addr, pub: cert.Subject}
	}
	c.stats.Reassignments++
	return nil, nil
}

// Write submits op to the master and waits for commit (§3.1): a wave of
// one. It returns the new content version.
func (c *Client) Write(op store.Op) (uint64, error) {
	versions, err := c.WriteMulti([]store.Op{op})
	if err != nil {
		return 0, err
	}
	return versions[0], nil
}

// WriteMulti submits a whole wave of ops in ONE RPC frame under ONE
// client signature (MethodWriteMulti, WriteWave): the master verifies
// the signature and the ACL once, validates every op, and feeds the wave
// straight into its batch accumulator — so n writes cost one client
// signature, ~n/BatchSize master signatures and 1 network exchange
// instead of n of each. The master admits or refuses the wave as a
// whole. It returns the assigned versions in submission order; an op the
// pipeline dropped reports version 0 and an aggregate error.
func (c *Client) WriteMulti(ops []store.Op) ([]uint64, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	ww := SignWave(c.cfg.Keys, ops)
	reqFrame := wire.EncodeFrame(ww.Encode)

	for attempt := 0; attempt < 2; attempt++ {
		c.mu.Lock()
		masterAddr := c.masterAddr
		c.mu.Unlock()
		body, err := c.dlr.Call(masterAddr, MethodWriteMulti, reqFrame)
		if err == nil {
			r := wire.NewReader(body)
			n := r.Uvarint()
			if r.Err() == nil && n != uint64(len(ops)) {
				return nil, fmt.Errorf("core: write wave reply carries %d versions for %d ops", n, len(ops))
			}
			versions := make([]uint64, 0, n)
			for i := uint64(0); i < n; i++ {
				versions = append(versions, r.Uvarint())
			}
			if err := r.Done(); err != nil {
				return nil, err
			}
			var failed int
			for _, v := range versions {
				if v == 0 {
					failed++
				}
			}
			c.mu.Lock()
			c.stats.WritesOK += uint64(len(versions) - failed)
			c.stats.WritesFailed += uint64(failed)
			c.mu.Unlock()
			if failed > 0 {
				return versions, fmt.Errorf("core: %d of %d wave writes were not committed", failed, len(ops))
			}
			return versions, nil
		}
		if rpc.IsRemote(err) {
			c.mu.Lock()
			c.stats.WritesFailed += uint64(len(ops))
			c.mu.Unlock()
			return nil, err
		}
		// Transport failure: master crashed; redo setup and retry once.
		if rerr := c.resetup(); rerr != nil {
			c.mu.Lock()
			c.stats.WritesFailed += uint64(len(ops))
			c.mu.Unlock()
			return nil, rerr
		}
	}
	c.mu.Lock()
	c.stats.WritesFailed += uint64(len(ops))
	c.mu.Unlock()
	return nil, rpc.ErrUnreachable
}

// Read executes q through the untrusted read protocol (§3.2) with the
// configured double-check probability.
func (c *Client) Read(q query.Query) ([]byte, error) {
	p := c.cfg.Params.DoubleCheckP
	if c.cfg.ForceDoubleCheck {
		p = 1.0
	}
	return c.readWithCheckProb(q, p)
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
	c.mu.Lock()
	masterAddr := c.masterAddr
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
	queryBytes := query.Encode(q)
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Params.MaxReadRetries; attempt++ {
		if attempt > 0 {
			c.mu.Lock()
			c.stats.Retries++
			c.mu.Unlock()
		}
		payload, err := c.readOnce(queryBytes, checkProb)
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

func (c *Client) readOnce(queryBytes []byte, checkProb float64) ([]byte, error) {
	if c.cfg.KSlaves > 1 {
		return c.readK(queryBytes, checkProb)
	}
	c.mu.Lock()
	if len(c.slaves) == 0 {
		c.mu.Unlock()
		return nil, ErrNoSlaves
	}
	sl, masterPubs := c.slaves[0], c.masterPubs
	c.mu.Unlock()

	reply, err := c.callSlaveRead(sl, queryBytes)
	if err != nil {
		return nil, err
	}
	if err := c.verifyReply(sl, masterPubs, queryBytes, reply); err != nil {
		return nil, err
	}

	// Probabilistic double-check (§3.3).
	if c.rng.Float64() < checkProb {
		if err := c.doubleCheck(queryBytes, reply); err != nil {
			return nil, err
		}
	}

	// Forward the pledge to the auditor before accepting (§3.4).
	if err := c.forwardPledge(reply.pledgeBytes); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.stats.ReadsAccepted++
	if reply.XLie {
		c.stats.LiesAccepted++
	}
	c.mu.Unlock()
	return reply.Payload, nil
}

// callSlaveRead performs the slave RPC, replacing the slave if it is
// unreachable and classifying stale refusals as retryable.
func (c *Client) callSlaveRead(sl slaveAssignment, queryBytes []byte) (ReadReply, error) {
	w := wire.NewWriter(len(queryBytes) + 8)
	w.Bytes_(queryBytes)
	body, err := c.dlr.CallTimeout(sl.addr, MethodRead, w.Bytes(), c.cfg.Params.ReadTimeout)
	if err != nil {
		if rpc.IsRemote(err) && strings.Contains(err.Error(), ErrStale.Error()) {
			// Honest slave is out of sync (§3.1); wait a beat and retry.
			c.mu.Lock()
			c.stats.SlaveStale++
			c.mu.Unlock()
			c.rt.Sleep(c.cfg.Params.KeepAliveEvery)
			return ReadReply{}, errRetry
		}
		if !rpc.IsRemote(err) {
			// Slave unreachable: ask the master for a replacement.
			c.mu.Lock()
			c.stats.Reassignments++
			c.mu.Unlock()
			if rerr := c.requestSlaves([]string{sl.addr}); rerr != nil {
				return ReadReply{}, rerr
			}
			return ReadReply{}, errRetry
		}
		return ReadReply{}, err
	}
	return DecodeReadReply(body)
}

// verifyReply performs the client-side checks of §3.2: result hash
// matches the pledge, the pledge is signed by the assigned slave for this
// query at the stamp's version, the stamp is signed by a certified master,
// and it is fresh. Only the two signature checks go through the
// verified-signature caches; every other check runs on every reply.
func (c *Client) verifyReply(sl slaveAssignment, masterPubs []cryptoutil.PublicKey, queryBytes []byte, reply ReadReply) error {
	if !cryptoutil.HashBytes(reply.Payload).Equal(reply.Pledge.ResultHash) {
		c.mu.Lock()
		c.stats.HashMismatches++
		c.mu.Unlock()
		return fmt.Errorf("%w: %v", errRetry, ErrHashMismatch)
	}
	if !bytes.Equal(reply.Pledge.SlavePub, sl.pub) {
		c.mu.Lock()
		c.stats.BadPledges++
		c.mu.Unlock()
		return fmt.Errorf("%w: pledge signed by unexpected key", errRetry)
	}
	if _, err := c.pledges.verifyPledge(&reply.Pledge); err != nil {
		c.mu.Lock()
		c.stats.BadPledges++
		c.mu.Unlock()
		return fmt.Errorf("%w: %v", errRetry, err)
	}
	if !bytes.Equal(reply.Pledge.QueryBytes, queryBytes) {
		c.mu.Lock()
		c.stats.BadPledges++
		c.mu.Unlock()
		return fmt.Errorf("%w: pledge covers a different query", errRetry)
	}
	if _, err := c.stamps.verifyStamp(&reply.Pledge.Stamp, masterPubs); err != nil {
		c.mu.Lock()
		c.stats.BadPledges++
		c.mu.Unlock()
		return fmt.Errorf("%w: %v", errRetry, err)
	}
	if !reply.Pledge.Stamp.Fresh(c.rt.Now(), c.cfg.Params.EffectiveClientMaxLatency()) {
		// Fresh when sent, stale on arrival: drop and retry (§3.2).
		c.mu.Lock()
		c.stats.StaleRejects++
		c.mu.Unlock()
		return fmt.Errorf("%w: %v", errRetry, ErrStale)
	}
	return nil
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
	h := r.Bytes()
	if len(h) == cryptoutil.DigestSize {
		copy(digest[:], h)
	}
	hasPayload := r.Bool()
	var payload []byte
	if hasPayload {
		payload = r.Bytes()
	}
	if err := r.Done(); err != nil {
		return 0, cryptoutil.Digest{}, nil, err
	}
	return version, digest, payload, nil
}

// doubleCheck compares the slave's pledged hash with the master's own
// execution (§3.3); on mismatch it reports the pledge (§3.5 immediate
// discovery) and retries the read on the replacement slave.
func (c *Client) doubleCheck(queryBytes []byte, reply ReadReply) error {
	c.mu.Lock()
	c.stats.DoubleChecks++
	masterAddr := c.masterAddr
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
	// Caught red-handed.
	c.mu.Lock()
	c.stats.CaughtImmediate++
	caughtAddr := ""
	if len(c.slaves) > 0 {
		caughtAddr = c.slaves[0].addr
	}
	c.mu.Unlock()
	if err := c.reportPledge(reply.pledgeBytes); err == nil {
		c.mu.Lock()
		c.stats.ReportsFiled++
		c.mu.Unlock()
	}
	// Proactively replace the convicted slave rather than waiting for the
	// master's notification (which may not be deliverable, e.g. clients
	// behind NAT); the master has already excluded it.
	if caughtAddr != "" {
		c.requestSlaves([]string{caughtAddr})
	}
	return errRetry
}

// reportPledge files the incriminating pledge with the master, in the
// bytes the slave sent it in. Client reports are unsigned: the master
// convicts by re-executing the query itself (immediate discovery, §3.5).
func (c *Client) reportPledge(pledgeBytes []byte) error {
	c.mu.Lock()
	masterAddr := c.masterAddr
	c.mu.Unlock()
	w := wire.NewWriter(len(pledgeBytes) + 16)
	w.Bytes_(pledgeBytes)
	w.Bytes_(nil)
	_, err := c.dlr.CallTimeout(masterAddr, MethodReport, w.Bytes(), c.cfg.Params.ReadTimeout)
	return err
}

// forwardPledge sends the auditor the pledge exactly as the slave sent it and
// waits for the ack; clients accept results only after this completes (§3.4).
func (c *Client) forwardPledge(pledgeBytes []byte) error {
	c.mu.Lock()
	c.stats.PledgesSent++
	c.mu.Unlock()
	_, err := c.dlr.CallTimeout(c.cfg.AuditorAddr, MethodPledge, pledgeBytes, c.cfg.Params.ReadTimeout)
	return err
}

// forwardPledges ships a whole wave of pledges — one per slave of a
// K-replica read — to the auditor in a single frame, one RPC per
// accepted read instead of one per slave. Order within the frame is
// preserved, so the auditor admits exactly what the sequential
// forwardPledge calls would. A single pledge goes by a.pledge, the frame
// every one-slave read sends.
func (c *Client) forwardPledges(pledges [][]byte) error {
	if len(pledges) == 0 {
		return nil
	}
	if len(pledges) == 1 {
		return c.forwardPledge(pledges[0])
	}
	c.mu.Lock()
	c.stats.PledgesSent += uint64(len(pledges))
	c.mu.Unlock()
	size := 16
	for _, p := range pledges {
		size += len(p) + 8
	}
	w := wire.NewWriter(size)
	w.BytesSlice(pledges)
	_, err := c.dlr.CallTimeout(c.cfg.AuditorAddr, MethodPledgeMulti, w.Bytes(), c.cfg.Params.ReadTimeout)
	return err
}

// readK is the §4 multi-slave variant: the query goes to all K assigned
// slaves; if any answers disagree the client double-checks with the
// master unconditionally and reports every slave whose pledge does not
// match the trusted hash.
func (c *Client) readK(queryBytes []byte, checkProb float64) ([]byte, error) {
	c.mu.Lock()
	assigns := append([]slaveAssignment(nil), c.slaves...)
	masterPubs := c.masterPubs
	c.mu.Unlock()
	if len(assigns) == 0 {
		return nil, ErrNoSlaves
	}
	replies := make([]ReadReply, 0, len(assigns))
	okSlaves := make([]slaveAssignment, 0, len(assigns))
	for _, sl := range assigns {
		reply, err := c.callSlaveRead(sl, queryBytes)
		if err != nil {
			return nil, err
		}
		if err := c.verifyReply(sl, masterPubs, queryBytes, reply); err != nil {
			return nil, err
		}
		replies = append(replies, reply)
		okSlaves = append(okSlaves, sl)
	}
	agree := true
	for i := 1; i < len(replies); i++ {
		if !replies[i].Pledge.ResultHash.Equal(replies[0].Pledge.ResultHash) {
			agree = false
			break
		}
	}
	if agree {
		// "If all the answers are identical, the client proceeds as in
		// the original algorithm" (§4).
		if c.rng.Float64() < checkProb {
			if err := c.doubleCheck(queryBytes, replies[0]); err != nil {
				return nil, err
			}
		}
		pledges := make([][]byte, len(replies))
		for i, r := range replies {
			pledges[i] = r.pledgeBytes
		}
		if err := c.forwardPledges(pledges); err != nil {
			return nil, err
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
	masterAddr := c.masterAddr
	c.mu.Unlock()
	version, digest, _, err := c.masterCheck(masterAddr, queryBytes, false)
	if err != nil {
		return nil, err
	}
	var liars []string
	for i, r := range replies {
		if version == r.Pledge.Stamp.Version && !digest.Equal(r.Pledge.ResultHash) {
			if err := c.reportPledge(r.pledgeBytes); err == nil {
				c.mu.Lock()
				c.stats.ReportsFiled++
				c.stats.CaughtImmediate++
				c.mu.Unlock()
				liars = append(liars, okSlaves[i].addr)
			}
		}
	}
	if len(liars) > 0 {
		// Request a fresh assignment that avoids the convicted slaves
		// (the master has excluded them; notifications may race this).
		if err := c.requestSlaves(liars); err != nil {
			return nil, err
		}
	}
	return nil, errRetry
}
