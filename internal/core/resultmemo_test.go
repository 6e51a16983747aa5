package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/internal/workload"
)

// memoCatalog is enough content for a scan of it to be worth remembering:
// 400 keys of 13 bytes put Count at 5 200 scanned bytes, above
// memoMinScanned.
const memoCatalog = 400

// catalogOps writes catalog/00000… = base, base+1, …
func catalogOps(n, base int) []store.Op {
	ops := make([]store.Op, n)
	for i := range ops {
		ops[i] = store.Put{Key: fmt.Sprintf("catalog/%05d", i), Value: strconv.AppendInt(nil, int64(base+i), 10)}
	}
	return ops
}

// catalogSum is Sum{catalog/} over catalogOps(n, base).
func catalogSum(n, base int) int64 { return int64(n*base + n*(n-1)/2) }

var (
	memoSum   = query.Sum{P: "catalog/"}
	memoCount = query.Count{P: "catalog/"}
)

// wouldHit asks the slave's memo what the next read of q gets. Like a
// read, a miss leaves the answer behind.
func (s *Slave) wouldHit(q query.Query) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, hit, _ := s.memo.execute(s.store, query.Encode(q))
	return hit
}

func (s *Slave) memoSize() (entries, bytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.memo.results), s.memo.bytes
}

// snapshotReply is a master's whole answer to m.sync when all it sends is
// its state: a signed snapshot of st.
func snapshotReply(master *cryptoutil.KeyPair, st *store.Store, now time.Time) []byte {
	snap := st.EncodeSnapshot()
	return transferParts{
		snap: &ckptSnapshot{version: st.Version(), bytes: snap, stamp: SignStampWithOp(master, st.Version(), now, snap)},
	}.encode()
}

// sumOf decodes a Sum reply; it runs on simulator tasks, which must not
// be ended by t.Fatal.
func sumOf(t *testing.T, rr ReadReply) int64 {
	t.Helper()
	n, err := query.SumResult(rr.Payload)
	if err != nil {
		t.Errorf("sum payload %x: %v", rr.Payload, err)
	}
	return n
}

// TestResultMemoAdmission: what execute keeps is decided by what the scan
// touched against what it returned, whatever the query's kind.
func TestResultMemoAdmission(t *testing.T) {
	st := store.New()
	for _, op := range catalogOps(memoCatalog, 100) {
		st.Apply(op)
	}
	for _, tc := range []struct {
		q    query.Query
		kept bool
	}{
		{query.Get{Key: "catalog/00007"}, false},
		{query.Get{Key: "absent"}, false},
		{query.Range{From: "catalog/00010", To: "catalog/00020", Limit: 10}, false},
		{query.Range{From: "catalog/", To: "catalog0"}, false}, // touches everything, returns everything
		{query.Prefix{P: "catalog/", Limit: 20}, false},
		{query.Grep{Pattern: "1", PathPrefix: "catalog/"}, false}, // matches most of what it reads
		{query.Count{P: "catalog/0000"}, false},                   // ten keys: cheaper to count again
		{memoCount, true},
		{memoSum, true},
		{query.Grep{Pattern: "^499$", PathPrefix: "catalog/"}, true}, // one line of 400
	} {
		var c resultMemo
		qb := query.Encode(tc.q)
		first, hit, err := c.execute(st, qb)
		if err != nil || hit {
			t.Fatalf("%v: first execution: hit %v, err %v", tc.q, hit, err)
		}
		again, hit, err := c.execute(st, qb)
		if err != nil || hit != tc.kept || string(again.Payload) != string(first.Payload) {
			t.Errorf("%v: repeat hit %v (want %v), err %v, payload %x after %x", tc.q, hit, tc.kept, err, again.Payload, first.Payload)
		}
		if !tc.kept && c.results != nil {
			t.Errorf("%v: a result that was not kept allocated the table", tc.q)
		}
	}
	var c resultMemo
	if _, _, err := c.execute(st, []byte{0xff}); err == nil {
		t.Error("undecodable query executed")
	}
	if _, _, err := c.execute(st, query.Encode(query.Grep{Pattern: "(", PathPrefix: "catalog/"})); err == nil {
		t.Error("unexecutable query executed")
	}
}

// TestSlaveResultMemoSafety drives a real slave through everything that
// can change what a query answers — a fetched batch, a snapshot installed
// by a sync, a Bootstrap onto other content at the very same version — and
// through every lying behaviour on a warm memo.
func TestSlaveResultMemoSafety(t *testing.T) {
	t.Run("repeat hits, and costs a lookup in virtual time", func(t *testing.T) {
		r := newSlaveRig(t, Honest{})
		cpu := r.s.NewResource("slave", 1)
		r.slave.cfg.CPU = cpu
		r.s.Go(func() {
			r.commitBatch(t, catalogOps(memoCatalog, 100))
			costs := r.params.Costs
			before := cpu.BusyTime()
			cold, err := r.read(t, memoSum)
			if err != nil || sumOf(t, cold) != catalogSum(memoCatalog, 100) {
				t.Errorf("cold read: %v", err)
				return
			}
			res, _ := memoSum.Execute(transferStateWith(catalogOps(memoCatalog, 100)))
			tail := costs.HashCost(len(cold.Payload)) + costs.SendReply
			if got, want := cpu.BusyTime()-before, costs.QueryCost(res.Scanned)+costs.Sign+tail; got != want {
				t.Errorf("cold read charged %v, want %v", got, want)
			}
			before = cpu.BusyTime()
			warm, err := r.read(t, memoSum)
			if err != nil || string(warm.Payload) != string(cold.Payload) || !warm.Pledge.ResultHash.Equal(cold.Pledge.ResultHash) {
				t.Errorf("warm read differs from the cold one: %v", err)
			}
			// Both memos hit: the scan and the signature each cost a lookup.
			if got, want := cpu.BusyTime()-before, 2*costs.CacheLookup+tail; got != want {
				t.Errorf("warm read charged %v, want %v", got, want)
			}
		})
		r.s.Run()
	})

	t.Run("point reads insert nothing", func(t *testing.T) {
		r := newSlaveRig(t, Honest{})
		r.s.Go(func() {
			r.commitBatch(t, catalogOps(memoCatalog, 100))
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("catalog/%05d", i)
				if _, err := r.read(t, query.Get{Key: k}); err != nil {
					t.Errorf("get: %v", err)
				}
				if _, err := r.read(t, query.Range{From: k, To: fmt.Sprintf("catalog/%05d", i+10), Limit: 10}); err != nil {
					t.Errorf("range: %v", err)
				}
			}
		})
		r.s.Run()
		r.slave.mu.Lock()
		defer r.slave.mu.Unlock()
		if r.slave.memo.results != nil || r.slave.memo.bytes != 0 {
			t.Fatalf("point reads left %d entries, %d bytes", len(r.slave.memo.results), r.slave.memo.bytes)
		}
	})

	t.Run("a batch, a synced snapshot and a bootstrap all miss", func(t *testing.T) {
		r := newSlaveRig(t, Honest{})
		var reply func() []byte
		r.net.Register("src", func(from, method string, body []byte) ([]byte, error) { return reply(), nil })
		read := func(step string, want int64) {
			for i := 0; i < 2; i++ { // the second comes from the memo
				rr, err := r.read(t, memoSum)
				if err != nil || sumOf(t, rr) != want {
					t.Errorf("%s: sum %d, want %d (%v)", step, sumOf(t, rr), want, err)
				}
			}
			if !r.slave.wouldHit(memoSum) {
				t.Errorf("%s: a repeated sum is not remembered", step)
			}
		}
		r.s.Go(func() {
			r.commitBatch(t, catalogOps(memoCatalog, 100))
			read("first content", catalogSum(memoCatalog, 100))

			r.s.Sleep(time.Millisecond)           // a stamp is adopted only over an older one
			r.commitBatch(t, catalogOps(8, 5000)) // rewrites eight of the keys summed
			if r.slave.wouldHit(memoCount) {
				t.Error("after a batch: an answer of the version before it is still served")
			}
			read("after a batch", catalogSum(memoCatalog, 100)-catalogSum(8, 100)+catalogSum(8, 5000))

			// A sync whose reply is a snapshot ahead of the replica.
			ahead := transferStateWith(catalogOps(memoCatalog, 100))
			for ahead.Version() < r.slave.Version()+3 {
				ahead.Apply(store.Put{Key: "catalog/00000", Value: []byte("7")})
			}
			r.s.Sleep(time.Millisecond)
			reply = func() []byte { return snapshotReply(r.master, ahead, r.s.Now()) }
			if err := r.slave.syncFrom("src"); err != nil || r.slave.Stats().SnapshotSyncs != 1 {
				t.Errorf("sync: %v, %+v", err, r.slave.Stats())
			}
			read("after a snapshot sync", catalogSum(memoCatalog, 100)-100+7)

			// Bootstrap onto other content at the version the replica is at:
			// the version alone would not tell the two apart.
			other := transferStateWith(catalogOps(memoCatalog, 9000))
			for other.Version() < r.slave.Version() {
				other.Apply(store.Put{Key: "k", Value: []byte("v")})
			}
			reply = func() []byte { return snapshotReply(r.master, other, r.s.Now()) }
			r.slave.SetMaster("src")
			was := r.slave.Version()
			if err := r.slave.Bootstrap(); err != nil || r.slave.Version() != was {
				t.Errorf("bootstrap: %v, version %d after %d", err, r.slave.Version(), was)
			}
			read("after a bootstrap at the same version", catalogSum(memoCatalog, 9000))
		})
		r.s.Run()
	})

	for _, tc := range []struct {
		behavior Behavior
		lies     func(rng *rand.Rand) bool // whether the next read is a lie
	}{
		{AlwaysLie{}, func(*rand.Rand) bool { return true }},
		{TargetedLie{TargetFrac: 1}, func(*rand.Rand) bool { return true }},
		{LieWithProb{P: 0.5}, func(rng *rand.Rand) bool { return rng.Float64() < 0.5 }},
	} {
		t.Run(tc.behavior.String()+" still lies on a warm memo", func(t *testing.T) {
			r := newSlaveRig(t, Honest{})
			content := transferStateWith(catalogOps(memoCatalog, 100))
			honest, _ := memoSum.Execute(content)
			const reads = 40
			r.s.Go(func() {
				r.commitBatch(t, catalogOps(memoCatalog, 100))
				if _, err := r.read(t, memoSum); err != nil || !r.slave.wouldHit(memoSum) {
					t.Errorf("warming the memo: %v", err)
				}
				r.slave.SetBehavior(tc.behavior)
				rng := rand.New(rand.NewSource(1)) // the rig's slave seed: one draw per read, memo or not
				lied := 0
				for i := 0; i < reads; i++ {
					rr, err := r.read(t, memoSum)
					if err != nil {
						t.Errorf("read %d: %v", i, err)
						return
					}
					want := tc.lies(rng)
					if want {
						lied++
					}
					if rr.XLie != want || (string(rr.Payload) == string(honest.Payload)) == want {
						t.Errorf("read %d: lie %v, want %v (payload %x)", i, rr.XLie, want, rr.Payload)
					}
					// Whatever was served is valid evidence of exactly that:
					// it hashes to the pledge, the slave signed it, and a
					// trusted replica convicts the lie and only the lie.
					convicts, _, err := CheckPledgeAgainst(content, &rr.Pledge)
					if err != nil || convicts != want || !cryptoutil.HashBytes(rr.Payload).Equal(rr.Pledge.ResultHash) {
						t.Errorf("read %d: evidence convicts %v, want %v (%v)", i, convicts, want, err)
					}
				}
				if st := r.slave.Stats(); st.ReadsLied != uint64(lied) || st.ReadsServed != reads+1 {
					t.Errorf("%d lies counted over %d reads, want %d over %d", st.ReadsLied, st.ReadsServed, lied, reads+1)
				}
				// The lies were made from the memo's payload, not in it.
				r.slave.SetBehavior(Honest{})
				if rr, err := r.read(t, memoSum); err != nil || string(rr.Payload) != string(honest.Payload) || !r.slave.wouldHit(memoSum) {
					t.Errorf("honest again: payload %x, want %x (%v)", rr.Payload, honest.Payload, err)
				}
			})
			r.s.Run()
		})
	}

	t.Run("bounded under ten times its capacity in distinct scans", func(t *testing.T) {
		r := newSlaveRig(t, Honest{})
		r.s.Go(func() {
			r.commitBatch(t, catalogOps(memoCatalog, 100))
			for i := 0; i < 10*memoMaxEntries; i++ {
				q := query.Grep{Pattern: fmt.Sprintf("^no such line %d$", i), PathPrefix: "catalog/"}
				if _, err := r.read(t, q); err != nil {
					t.Errorf("grep %d: %v", i, err)
					return
				}
				if !r.slave.wouldHit(q) {
					t.Errorf("grep %d is not remembered right after it ran", i)
				}
				if n, b := r.slave.memoSize(); n > memoMaxEntries || b > memoMaxBytes || n == 0 {
					t.Errorf("after %d distinct scans the memo holds %d entries, %d bytes", i+1, n, b)
					return
				}
			}
			// A result that alone outgrows the byte bound is not kept.
			big := store.New()
			for i := 0; i < 40; i++ {
				big.Apply(store.Put{Key: fmt.Sprintf("docs/%03d", i), Value: make([]byte, 64<<10)})
			}
			var c resultMemo
			qb := query.Encode(query.Grep{Pattern: "^" + string(make([]byte, memoMaxBytes)) + "$", PathPrefix: "docs/"})
			if _, _, err := c.execute(big, qb); err != nil || c.results != nil {
				t.Errorf("a %d-byte query was kept (%v)", len(qb), err)
			}
		})
		r.s.Run()
	})
}

// transferStateWith is the rigs' initial content (k=v at version 1) with
// ops applied.
func transferStateWith(ops []store.Op) *store.Store {
	st := transferState(1)
	for _, op := range ops {
		st.Apply(op)
	}
	return st
}

// check sends m.check for q and decodes the reply.
func (r *masterRig) check(t *testing.T, q query.Query, wantPayload bool) (version uint64, hash cryptoutil.Digest, payload []byte) {
	t.Helper()
	w := wire.NewWriter(64)
	w.Bytes_(r.client.Public)
	w.Bool(wantPayload)
	w.Bytes_(query.Encode(q))
	body, err := r.master.Handle("client", MethodCheck, w.Bytes())
	if err != nil {
		t.Errorf("check: %v", err)
		return
	}
	rr := wire.NewReader(body)
	version = rr.Uvarint()
	hash = digestOf(rr.Bytes())
	if rr.Bool() {
		payload = rr.Bytes()
	}
	if err := rr.Done(); err != nil {
		t.Errorf("check reply: %v", err)
	}
	return version, hash, payload
}

// TestMasterResultMemoSafety: a repeated double-check of an expensive query
// is answered from the memo at a lookup's cost, a commit in between is
// seen, and point checks keep nothing.
func TestMasterResultMemoSafety(t *testing.T) {
	r := newMasterRig(t, func(c *MasterConfig) {
		c.BatchSize = memoCatalog
		c.Params.GreedyMinBurst = 1 << 30 // the one test client is never flagged as greedy
	})
	cpu := r.s.NewResource("master", 1)
	r.master.cfg.CPU = cpu
	wouldHit := func(q query.Query) bool {
		r.master.mu.Lock()
		defer r.master.mu.Unlock()
		_, hit, _ := r.master.memo.execute(r.master.store, query.Encode(q))
		return hit
	}
	r.s.Go(func() {
		if _, err := r.master.Handle("client", MethodWriteMulti, encodeWave(SignWave(r.client, catalogOps(memoCatalog, 100)))); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		for i := 0; i < 20; i++ {
			r.check(t, query.Get{Key: fmt.Sprintf("catalog/%05d", i)}, true)
		}
		r.master.mu.Lock()
		if r.master.memo.results != nil {
			t.Errorf("point checks left %d entries", len(r.master.memo.results))
		}
		r.master.mu.Unlock()

		costs := r.master.cfg.Params.Costs
		content := transferStateWith(catalogOps(memoCatalog, 100))
		res, _ := memoSum.Execute(content)
		before := cpu.BusyTime()
		v, hash, payload := r.check(t, memoSum, true)
		if v != content.Version() || !hash.Equal(res.Digest()) || string(payload) != string(res.Payload) {
			t.Errorf("cold check: version %d, payload %x; want %d, %x", v, payload, content.Version(), res.Payload)
		}
		tail := costs.HashCost(len(res.Payload)) + costs.SendReply
		if got, want := cpu.BusyTime()-before, costs.QueryCost(res.Scanned)+tail; got != want {
			t.Errorf("cold check charged %v, want %v", got, want)
		}
		before = cpu.BusyTime()
		v, hash, payload = r.check(t, memoSum, true)
		if v != content.Version() || !hash.Equal(res.Digest()) || string(payload) != string(res.Payload) {
			t.Errorf("warm check: version %d, payload %x; want %d, %x", v, payload, content.Version(), res.Payload)
		}
		if got, want := cpu.BusyTime()-before, costs.CacheLookup+tail; got != want {
			t.Errorf("warm check charged %v, want %v", got, want)
		}

		r.s.Sleep(300 * time.Millisecond) // write pacing
		if _, err := r.write(r.client, store.Put{Key: "catalog/00000", Value: []byte("7")}); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if wouldHit(memoCount) {
			t.Error("after a commit: an answer of the version before it is still served")
		}
		v, _, payload = r.check(t, memoSum, true)
		if n, err := query.SumResult(payload); err != nil || n != catalogSum(memoCatalog, 100)-100+7 || v != content.Version()+1 {
			t.Errorf("check after a commit: sum %d at version %d (%v)", n, v, err)
		}
		if !wouldHit(memoSum) {
			t.Error("a repeated check is not remembered")
		}
	})
	r.s.Run()
}

// TestSlaveReadsAtomicWithBatches races readers against announced batches
// that rewrite the very keys being read, from goroutines of their own as
// rpc.TCPServer runs handlers, while the slave's fetches apply them. A
// read must see one version whole — stamp, replica and (memoised) answer —
// so every pledge an honest slave signs holds against the content at the
// version it names; one that does not is evidence that convicts it. And
// once the first batch has stamped the replica no read may be refused as
// stale: an announce ahead of the replica leaves the held stamp in place,
// and between a batch's ops and its stamp there is nothing for a reader to
// see.
func TestSlaveReadsAtomicWithBatches(t *testing.T) {
	master := cryptoutil.DeriveKeyPair("master", 0)
	log := new(batchLog)
	sl := NewSlave(SlaveConfig{
		Addr: "slave", Keys: cryptoutil.DeriveKeyPair("slave", 0), Params: DefaultParams(),
		MasterAddr: "master", MasterPubs: []cryptoutil.PublicKey{master.Public},
	}, sim.RealClock{}, log, store.New())
	const batches, readers, rewritten = 120, 3, 8
	announceBatch := func(first uint64, ops []store.Op) {
		bu := signedBatch(master, first, ops, time.Now())
		log.add(bu)
		if _, err := announce(sl, bu.Stamp); err != nil {
			t.Errorf("batch at %d: %v", first, err)
		}
		if err := awaitVersion(sl, bu.Last()); err != nil {
			t.Errorf("batch at %d: %v", first, err)
		}
	}
	ref := store.New()
	at := map[uint64]*store.Store{} // content at every version a stamp names
	commit := func(ops []store.Op) {
		first := ref.Version() + 1
		for _, op := range ops {
			ref.Apply(op)
		}
		at[ref.Version()] = ref.Clone()
		announceBatch(first, ops)
	}
	commit(catalogOps(memoCatalog, 100))

	queries := [][]byte{
		query.Encode(memoSum), // remembered between batches
		query.Encode(query.Get{Key: "catalog/00003"}),
		query.Encode(query.Range{From: "catalog/00000", To: "catalog/00008"}),
	}
	replies := make([][]ReadReply, readers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				asked := queries[(g+i)%len(queries)]
				body, err := sl.Handle("client", MethodRead, encodeReadRequest(asked, nil))
				if err != nil {
					t.Errorf("reader %d: read %d refused: %v", g, i, err)
					return
				}
				rr, err := DecodeReadReply(body)
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				rr.completePledge(asked, sl.cfg.Keys.Public)
				replies[g] = append(replies[g], rr)
			}
		}(g)
	}
	for b := 1; b <= batches; b++ {
		commit(catalogOps(rewritten, 1000*b))
	}
	close(stop)
	wg.Wait()

	served, versions := 0, map[uint64]bool{}
	for _, rs := range replies {
		for _, rr := range rs {
			content := at[rr.Pledge.Stamp.Version]
			if content == nil {
				t.Fatalf("pledge names version %d, which no stamp closed", rr.Pledge.Stamp.Version)
			}
			convicts, _, err := CheckPledgeAgainst(content, &rr.Pledge)
			if err != nil || convicts || !cryptoutil.HashBytes(rr.Payload).Equal(rr.Pledge.ResultHash) {
				t.Fatalf("honest slave's pledge for %x at version %d convicts it (%v)", rr.Pledge.QueryBytes, rr.Pledge.Stamp.Version, err)
			}
			served++
			versions[rr.Pledge.Stamp.Version] = true
		}
	}
	if served == 0 {
		t.Fatal("no read was served")
	}
	t.Logf("%d reads at %d of %d versions", served, len(versions), len(at))
}

// --- layer ledger: what a scan costs the first time and every time after --

// scanContent is the benchmark deployment's content, and scanQueries the two
// aggregates read-scan issues over it.
const scanCatalog = 20000

var scanQueries = [][]byte{query.Encode(memoCount), query.Encode(memoSum)}

// benchScan times call(i), which answers scanQueries[i%2]. Warm, the content
// stays at one version and all but the first two calls are memo hits. Cold,
// commit moves the content to a new version before every call — as under
// writes, where the first scan after each commit is the only one — and
// ns/key is the call's time per catalogue key, to hold against
// BenchmarkAscend20k's.
func benchScan(b *testing.B, commit func(op store.Op), call func(i int)) {
	for _, mode := range []string{"cold", "warm"} {
		cold := mode == "cold"
		b.Run(mode, func(b *testing.B) {
			call(0)
			call(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cold {
					commit(store.Put{Key: "docs/bench", Value: []byte("x")}) // under a microsecond
				}
				call(i)
			}
			if cold {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/scanCatalog, "ns/key")
			}
		})
	}
}

// BenchmarkSlaveReadScan is s.read for Count and Sum over 20 000 keys at an
// honest slave: scan (or lookup), hash, pledge signature (or lookup), reply
// frame. A cold read signs as well as scans — its pledge names a new
// version.
func BenchmarkSlaveReadScan(b *testing.B) {
	f := newCacheFixture()
	params := DefaultParams()
	params.MaxLatency = time.Hour // one stamp stays fresh for the whole run
	s := NewSlave(SlaveConfig{Keys: f.slave, Params: params},
		sim.RealClock{}, nullDialer{}, workload.BuildContent(scanCatalog, 20))
	s.lastStamp = SignStamp(f.master, s.store.Version(), time.Now())
	w := wire.NewWriter(64)
	benchScan(b, func(op store.Op) {
		s.store.Apply(op)
		s.lastStamp.Version = s.store.Version() // nothing on the read path checks a stamp's signature
	}, func(i int) {
		w.Reset()
		w.Bytes_(scanQueries[i%2])
		w.Bytes_(nil) // names no stamp
		if _, err := s.Handle("client", MethodRead, w.Bytes()); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkMasterCheckScan is m.check for the same two queries: a client's
// double-check, which holds the master's one mutex while it scans.
func BenchmarkMasterCheckScan(b *testing.B) {
	m := newRealClockMaster(b)
	m.store = workload.BuildContent(scanCatalog, 20)
	params := DefaultParams()
	params.GreedyWindow = time.Nanosecond // one client asks every question here; nobody is throttled
	m.greedy = newGreedyTracker(params)
	client := cryptoutil.DeriveKeyPair("client", 0).Public
	w := wire.NewWriter(64)
	benchScan(b, func(op store.Op) { m.store.Apply(op) }, func(i int) {
		w.Reset()
		w.Bytes_(client)
		w.Bool(false)
		w.Bytes_(scanQueries[i%2])
		if _, err := m.Handle("client", MethodCheck, w.Bytes()); err != nil {
			b.Fatal(err)
		}
	})
}
