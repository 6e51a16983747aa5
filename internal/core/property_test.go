package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

// The two central evidence invariants from DESIGN.md §5:
//
//  1. no false accusation — an honest slave's pledge never verifies as a
//     misbehaviour proof, for any query and any content;
//  2. no escape — a pledge over a wrong result hash always verifies as a
//     proof, for any corruption.

func propContent(keys []uint8, vals [][]byte) *store.Store {
	s := store.New()
	n := len(keys)
	if len(vals) < n {
		n = len(vals)
	}
	for i := 0; i < n; i++ {
		s.Apply(store.Put{Key: fmt.Sprintf("k%03d", keys[i]%64), Value: vals[i]})
	}
	return s
}

func propQuery(sel uint8, key uint8) query.Query {
	k := fmt.Sprintf("k%03d", key%64)
	switch sel % 5 {
	case 0:
		return query.Get{Key: k}
	case 1:
		return query.Range{From: "k", To: k, Limit: 8}
	case 2:
		return query.Count{P: "k"}
	case 3:
		return query.Sum{P: "k"}
	default:
		return query.Prefix{P: "k0", Limit: 16}
	}
}

func TestQuickHonestPledgeNeverConvicts(t *testing.T) {
	master := cryptoutil.DeriveKeyPair("master", 0)
	slave := cryptoutil.DeriveKeyPair("slave", 0)
	f := func(keys []uint8, vals [][]byte, sel, qk uint8) bool {
		content := propContent(keys, vals)
		q := propQuery(sel, qk)
		res, err := q.Execute(content)
		if err != nil {
			return true // unexecutable queries are not pledged by honest slaves
		}
		stamp := SignStamp(master, content.Version(), time.Unix(0, 0).UTC())
		p := SignPledge(slave, query.Encode(q), res.Digest(), stamp)
		proven, _, err := CheckPledgeAgainst(content, &p)
		return err == nil && !proven
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickWrongHashAlwaysConvicts(t *testing.T) {
	master := cryptoutil.DeriveKeyPair("master", 0)
	slave := cryptoutil.DeriveKeyPair("slave", 0)
	f := func(keys []uint8, vals [][]byte, sel, qk uint8, corrupt []byte) bool {
		content := propContent(keys, vals)
		q := propQuery(sel, qk)
		res, err := q.Execute(content)
		if err != nil {
			return true
		}
		// A wrong hash: the digest of anything that is not the result.
		wrong := cryptoutil.HashConcat([]byte("corruption"), res.Payload, corrupt)
		if wrong.Equal(res.Digest()) {
			return true // astronomically unlikely
		}
		stamp := SignStamp(master, content.Version(), time.Unix(0, 0).UTC())
		p := SignPledge(slave, query.Encode(q), wrong, stamp)
		proven, correct, err := CheckPledgeAgainst(content, &p)
		return err == nil && proven && correct.Equal(res.Digest())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTamperedPledgeNeverVerifies(t *testing.T) {
	// Any single-byte corruption of an encoded pledge must break either
	// decoding or the slave signature — clients cannot frame slaves by
	// fiddling bytes (§3.3).
	master := cryptoutil.DeriveKeyPair("master", 0)
	slave := cryptoutil.DeriveKeyPair("slave", 0)
	stamp := SignStamp(master, 5, time.Unix(100, 0).UTC())
	p := SignPledge(slave, query.Encode(query.Get{Key: "k"}),
		cryptoutil.HashBytes([]byte("result")), stamp)
	enc := EncodePledge(p)
	f := func(pos uint16, bit uint8) bool {
		mut := append([]byte(nil), enc...)
		mut[int(pos)%len(mut)] ^= 1 << (bit % 8)
		r := wire.NewReader(mut)
		got, err := DecodePledge(r)
		if err != nil || r.Done() != nil {
			return true // decode failure: no pledge, no accusation
		}
		if got.VerifySig() != nil {
			return true // signature broken: rejected
		}
		// Signature survived: the mutation must not have changed any
		// signed field (it hit signature bytes in a way ed25519 rejects,
		// or an unsigned region — there are none in a pledge).
		return string(EncodePledge(got)) == string(enc) ||
			bytesEqualPledge(got, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func bytesEqualPledge(a, b Pledge) bool {
	return string(a.QueryBytes) == string(b.QueryBytes) &&
		a.ResultHash == b.ResultHash &&
		a.Stamp.Version == b.Stamp.Version &&
		string(a.SlavePub) == string(b.SlavePub)
}

func TestQuickStampRoundTripAndFreshness(t *testing.T) {
	master := cryptoutil.DeriveKeyPair("master", 0)
	f := func(version uint64, unixSec int64, ageMs uint32, boundMs uint32) bool {
		ts := time.Unix(unixSec%1e9, 0).UTC()
		st := SignStamp(master, version, ts)
		age := time.Duration(ageMs%600000) * time.Millisecond
		bound := time.Duration(boundMs%600000) * time.Millisecond
		now := ts.Add(age)
		fresh := st.Fresh(now, bound)
		return fresh == (age <= bound)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- Batched commit equivalence (DESIGN invariant of the batch pipeline) --
//
// A batched commit must be an optimization, not a semantic change: any
// interleaving of writes through the batch accumulator yields the exact
// version sequence, per-key values and StateDigest that the same ops
// committed sequentially (batch size 1) would produce.

// propOps derives a deterministic random op sequence over a small key
// space, mixing puts, appends and deletes so digests are order-sensitive.
func propOps(rng *rand.Rand, n int) []store.Op {
	ops := make([]store.Op, n)
	for i := range ops {
		key := fmt.Sprintf("k%02d", rng.Intn(12))
		switch rng.Intn(4) {
		case 0:
			ops[i] = store.Delete{Key: key}
		case 1:
			ops[i] = store.Append{Key: key, Data: []byte(fmt.Sprintf("+%d", rng.Intn(100)))}
		default:
			ops[i] = store.Put{Key: key, Value: []byte(fmt.Sprintf("v%d", rng.Intn(1000)))}
		}
	}
	return ops
}

func TestBatchSequentialEquivalence(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)*7919 + 17))
			nOps := 8 + rng.Intn(40)
			batchSize := 1 + rng.Intn(8)
			ops := propOps(rng, nOps)

			s := sim.New(int64(trial) + 1)
			o := defaultOpts()
			o.nMasters = 1
			o.slavesPerM = 1 + rng.Intn(2)
			o.params.MaxLatency = 20 * time.Millisecond
			o.params.KeepAliveEvery = 5 * time.Millisecond
			o.batchSize = batchSize
			o.batchTimeout = 2 * time.Millisecond
			c := newTestCluster(t, s, o)
			cl := c.addClient(t, 0, nil)

			// Submit the ops in random concurrent waves; the accumulator
			// may cut batches anywhere inside or across a wave.
			type commit struct {
				version uint64
				op      store.Op
			}
			var commits []commit
			s.Go(func() {
				s.Sleep(c.warmup())
				if err := cl.Setup(); err != nil {
					t.Errorf("setup: %v", err)
					s.Stop()
					return
				}
				for i := 0; i < nOps; {
					k := 1 + rng.Intn(2*batchSize)
					if i+k > nOps {
						k = nOps - i
					}
					wave := ops[i : i+k]
					versions, err := cl.WriteMulti(wave)
					if err != nil {
						t.Errorf("write wave at %d: %v", i, err)
						s.Stop()
						return
					}
					for j, v := range versions {
						commits = append(commits, commit{version: v, op: wave[j]})
					}
					i += k
				}
				// Let slave updates drain before comparing replicas.
				s.Sleep(500 * time.Millisecond)
				s.Stop()
			})
			s.Run()
			if t.Failed() {
				return
			}
			if len(commits) != nOps {
				t.Fatalf("committed %d of %d ops", len(commits), nOps)
			}

			// Reference: the same ops applied unbatched, in commit
			// (version) order.
			sort.Slice(commits, func(i, j int) bool { return commits[i].version < commits[j].version })
			ref := c.initial.Clone()
			for i, cm := range commits {
				if want := c.initial.Version() + uint64(i) + 1; cm.version != want {
					t.Fatalf("version sequence has a hole: got %d, want %d", cm.version, want)
				}
				ref.Apply(cm.op)
			}

			master := c.masters[0]
			if got, want := master.Version(), ref.Version(); got != want {
				t.Fatalf("master version %d, want %d", got, want)
			}
			if got, want := master.StateDigest(), ref.StateDigest(); !got.Equal(want) {
				t.Fatalf("master digest diverged from sequential reference (batch=%d)", batchSize)
			}
			// Per-key values must match in both directions.
			ref.Ascend("", "", func(key string, value []byte) bool {
				got, ok := master.store.Get(key)
				if !ok || !bytes.Equal(got, value) {
					t.Fatalf("key %q: master=%q ok=%v, want %q", key, got, ok, value)
				}
				return true
			})
			master.store.Ascend("", "", func(key string, value []byte) bool {
				if _, ok := ref.Get(key); !ok {
					t.Fatalf("master has extra key %q", key)
				}
				return true
			})
			// Every slave replica converged through batched updates alone.
			for i, sl := range c.slaves {
				if got := sl.Version(); got != ref.Version() {
					t.Fatalf("slave %d version %d, want %d", i, got, ref.Version())
				}
				if got := sl.store.StateDigest(); !got.Equal(ref.StateDigest()) {
					t.Fatalf("slave %d digest diverged (batch=%d)", i, batchSize)
				}
			}
		})
	}
}

func TestStampDomainSeparation(t *testing.T) {
	// Snapshot stamps and batch stamps sign distinct domains; a digest of
	// one kind must never be replayable as the other. Both are plain
	// hashes of bytes clients can shape, so the values do collide.
	master := cryptoutil.DeriveKeyPair("master", 0)
	ts := time.Unix(0, 0).UTC()
	op := store.EncodeOp(store.Put{Key: "k", Value: []byte("v")})
	trusted := []cryptoutil.PublicKey{master.Public}

	// A genuine batch stamp whose digest equals the hash of some bytes
	// still never authenticates those bytes as a snapshot.
	asBatch := SignBatchStamp(master, 7, ts, cryptoutil.HashBytes(op))
	if err := asBatch.Verify(trusted); err != nil {
		t.Fatalf("genuine batch stamp must verify: %v", err)
	}
	if asBatch.AuthenticatesOp(op) {
		t.Fatal("batch stamp authenticated raw op bytes as a per-op stamp")
	}

	// A snapshot stamp over bytes that are exactly a batch's prefix
	// carries that batch's digest; it must not be accepted as batch
	// evidence.
	prefix := wire.EncodeFrame(func(w *wire.Writer) { appendBatchPrefix(w, 7, [][]byte{op}) })
	perOpDomain := SignStampWithOp(master, 7, ts, prefix)
	if !perOpDomain.OpDigest.Equal(BatchDigest(7, [][]byte{op})) {
		t.Fatal("the snapshot stamp does not carry the batch's digest: the case is vacuous")
	}
	bu := BatchUpdate{First: 7, Ops: [][]byte{op}, Stamp: perOpDomain}
	if err := bu.Verify(trusted); err == nil {
		t.Fatal("snapshot-domain stamp accepted as a batch stamp")
	}

	// Flipping Kind on the wire flips the signing domain: the
	// signature must break.
	b := SignBatchStamp(master, 9, ts, BatchDigest(9, [][]byte{op}))
	w := wire.NewWriter(128)
	b.Encode(w)
	dec, err := DecodeStamp(wire.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Verify(trusted); err != nil {
		t.Fatalf("round-tripped batch stamp must verify: %v", err)
	}
	dec.Kind = stampKindOp
	if err := dec.Verify(trusted); err == nil {
		t.Fatal("stamp with flipped kind still verified")
	}
}
