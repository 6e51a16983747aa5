// Package baseline implements the two comparator architectures the paper
// positions itself against (§5):
//
//   - state machine replication (smr*.go): every read executes on a
//     quorum of 2f+1 untrusted replicas and the client accepts a result
//     only when f+1 replicas agree — strong guarantees, multiplied
//     resource cost, latency set by the slowest quorum member (PBFT [4],
//     Rampart [15], Phalanx [10] style read path);
//
//   - state signing (statesign.go): content authenticated by a Merkle
//     tree whose root the owner signs — static point reads verify with a
//     logarithmic proof, but every dynamic query must execute on a
//     trusted host (SUNDR-likes [7,11,13], TDB [9]).
package baseline

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/cryptoutil"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

// callBound is the baselines' RPC bound: none. They run only on the
// simulator, where a lost request fails as unreachable at once, and a
// bound would add a timer event to every call of the experiments.
const callBound = 0

// SMR method names.
const (
	MethodSMRRead  = "smr.read"
	MethodSMRWrite = "smr.write"
)

// SMRReplicaConfig configures one untrusted replica.
type SMRReplicaConfig struct {
	Addr  string
	Keys  *cryptoutil.KeyPair
	Costs cryptoutil.CostModel
	CPU   *sim.Resource
	// Lie, if non-nil, corrupts results: Lie(truePayload) != truePayload.
	// Colluding replicas must use the same function so their wrong
	// answers match.
	Lie func([]byte) []byte
	// Seed reserved for randomized behaviours.
	Seed int64
}

// SMRReplica executes reads and writes on its own replica of the content.
// Every reply is signed (quorum protocols authenticate replies).
type SMRReplica struct {
	cfg   SMRReplicaConfig
	meter *cryptoutil.Meter

	mu    sync.Mutex
	store *store.Store
	reads uint64
}

// NewSMRReplica creates a replica over the initial content (cloned).
func NewSMRReplica(cfg SMRReplicaConfig, initial *store.Store) *SMRReplica {
	return &SMRReplica{cfg: cfg, meter: cryptoutil.NewMeter(cfg.CPU, cfg.Costs), store: initial.Clone()}
}

// Reads returns the number of read executions performed.
func (r *SMRReplica) Reads() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reads
}

// Handle routes the replica's RPC methods.
func (r *SMRReplica) Handle(from, method string, body []byte) ([]byte, error) {
	switch method {
	case MethodSMRRead:
		return r.handleRead(body)
	case MethodSMRWrite:
		return r.handleWrite(body)
	}
	return nil, fmt.Errorf("baseline: smr replica: unknown method %q", method)
}

func (r *SMRReplica) handleRead(body []byte) ([]byte, error) {
	rd := wire.NewReader(body)
	queryBytes := rd.Bytes()
	if err := rd.Done(); err != nil {
		return nil, err
	}
	q, err := query.Decode(queryBytes)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	res, err := q.Execute(r.store)
	r.reads++
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	r.meter.Exec(res.Scanned, false)
	payload := res.Payload
	if r.cfg.Lie != nil {
		payload = r.cfg.Lie(payload)
	}
	r.meter.Hash(len(payload))
	r.meter.Sign() // authenticated reply
	sig := r.cfg.Keys.Sign(payload)
	r.meter.Reply()

	w := wire.NewWriter(len(payload) + 80)
	w.Bytes_(payload)
	w.Bytes_(r.cfg.Keys.Public)
	w.Bytes_(sig)
	return w.Bytes(), nil
}

func (r *SMRReplica) handleWrite(body []byte) ([]byte, error) {
	rd := wire.NewReader(body)
	opBytes := rd.Bytes()
	if err := rd.Done(); err != nil {
		return nil, err
	}
	op, err := store.DecodeOp(opBytes)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	err = r.store.Apply(op)
	r.mu.Unlock()
	r.meter.Apply(1) // after the unlock: a charge parks this task
	return nil, err
}

// SMRClientConfig configures the quorum client.
type SMRClientConfig struct {
	// Replicas is the full replica set; the client uses 2F+1 of them for
	// reads and all of them for writes.
	Replicas []string
	// ReplicaPubs authenticate replies, index-aligned with Replicas.
	ReplicaPubs []cryptoutil.PublicKey
	F           int
	Seed        int64
}

// SMRClientStats counts the quorum client's activity.
type SMRClientStats struct {
	ReadsAccepted   uint64
	ReadsFailed     uint64
	WrongAccepted   uint64 // accepted result differed from the honest one
	ServerExecs     uint64 // total replica executions triggered
	QuorumShortfall uint64 // reads that could not assemble f+1 matches
}

// SMRClient implements the read/write quorum protocol.
type SMRClient struct {
	cfg SMRClientConfig
	dlr rpc.Dialer
	rng *rand.Rand

	mu    sync.Mutex
	stats SMRClientStats
}

// NewSMRClient creates a quorum client.
func NewSMRClient(cfg SMRClientConfig, dlr rpc.Dialer) *SMRClient {
	return &SMRClient{cfg: cfg, dlr: dlr, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats returns a snapshot of the client's counters.
func (c *SMRClient) Stats() SMRClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Write applies op on every replica (the ordering protocol itself — view
// changes, sequence agreement — is out of scope for the read-cost
// comparison; writes here model the state distribution only).
func (c *SMRClient) Write(op store.Op) error {
	w := wire.NewWriter(64)
	w.Bytes_(store.EncodeOp(op))
	for _, addr := range c.cfg.Replicas {
		if _, err := c.dlr.CallTimeout(addr, MethodSMRWrite, w.Bytes(), callBound); err != nil {
			return err
		}
	}
	return nil
}

// Read executes q on a quorum of 2F+1 replicas and accepts the result
// carried by at least F+1 matching replies.
func (c *SMRClient) Read(q query.Query) ([]byte, error) {
	quorum := 2*c.cfg.F + 1
	if quorum > len(c.cfg.Replicas) {
		return nil, fmt.Errorf("baseline: need %d replicas, have %d", quorum, len(c.cfg.Replicas))
	}
	w := wire.NewWriter(64)
	w.Bytes_(query.Encode(q))

	type reply struct {
		payload []byte
		hash    cryptoutil.Digest
	}
	replies := make([]reply, 0, quorum)
	for i := 0; i < quorum; i++ {
		addr := c.cfg.Replicas[i]
		body, err := c.dlr.CallTimeout(addr, MethodSMRRead, w.Bytes(), callBound)
		c.mu.Lock()
		c.stats.ServerExecs++
		c.mu.Unlock()
		if err != nil {
			continue
		}
		r := wire.NewReader(body)
		payload := r.Bytes()
		pub := cryptoutil.PublicKey(r.Bytes())
		sig := r.Bytes()
		if r.Done() != nil {
			continue
		}
		if !bytes.Equal(pub, c.cfg.ReplicaPubs[i]) || cryptoutil.Verify(pub, payload, sig) != nil {
			continue
		}
		replies = append(replies, reply{payload: payload, hash: cryptoutil.HashBytes(payload)})
	}

	// Majority vote: accept any payload with F+1 matching hashes.
	counts := make(map[cryptoutil.Digest]int)
	for _, r := range replies {
		counts[r.hash]++
	}
	for h, n := range counts {
		if n >= c.cfg.F+1 {
			for _, r := range replies {
				if r.hash == h {
					c.mu.Lock()
					c.stats.ReadsAccepted++
					c.mu.Unlock()
					return r.payload, nil
				}
			}
		}
	}
	c.mu.Lock()
	c.stats.ReadsFailed++
	c.stats.QuorumShortfall++
	c.mu.Unlock()
	return nil, fmt.Errorf("baseline: no f+1 quorum on read result")
}
