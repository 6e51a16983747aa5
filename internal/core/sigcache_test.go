package core

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

// cacheFixture is one verified pledge and the keys around it.
type cacheFixture struct {
	master, slave, other *cryptoutil.KeyPair
	stamp                VersionStamp
	pledge               Pledge
}

func newCacheFixture() cacheFixture {
	f := cacheFixture{
		master: cryptoutil.DeriveKeyPair("master", 0),
		slave:  cryptoutil.DeriveKeyPair("slave", 0),
		other:  cryptoutil.DeriveKeyPair("slave", 1),
	}
	f.stamp = SignStamp(f.master, 7, time.Unix(1000, 0))
	qb := query.Encode(query.Get{Key: "k"})
	f.pledge = SignPledge(f.slave, qb, cryptoutil.HashBytes([]byte("result")), f.stamp)
	return f
}

// clonePledge deep-copies p so a case can tamper with one field.
func clonePledge(p Pledge) Pledge {
	p.QueryBytes = bytes.Clone(p.QueryBytes)
	p.SlavePub = bytes.Clone(p.SlavePub)
	p.Sig = bytes.Clone(p.Sig)
	p.Stamp.Sig = bytes.Clone(p.Stamp.Sig)
	return p
}

// entries counts the memo's occupied slots.
func (c *sigCache) entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, k := range c.keys {
		if k != (cryptoutil.Digest{}) {
			n++
		}
	}
	return n
}

// TestSigCachePledgeSafety primes a cache with one verified pledge and
// then presents variations of it: none that changes what the slave signed
// may ride on the cached verdict. The stamp beyond its version is not the
// slave's word; what a client does with a swapped one is
// TestClientChecksStampBesidePledge's subject.
func TestSigCachePledgeSafety(t *testing.T) {
	f := newCacheFixture()
	cases := []struct {
		name    string
		mutate  func(p *Pledge)
		wantHit bool
		wantErr bool
	}{
		{"the verified pledge again", func(p *Pledge) {}, true, false},
		{"seen signature, altered query", func(p *Pledge) { p.QueryBytes[len(p.QueryBytes)-1] ^= 1 }, false, true},
		{"seen signature, altered result hash", func(p *Pledge) { p.ResultHash[0] ^= 1 }, false, true},
		{"seen signature, altered stamp version", func(p *Pledge) { p.Stamp.Version++ }, false, true},
		{"seen pledge beside a later stamp of the same version", func(p *Pledge) {
			p.Stamp = SignStamp(f.master, p.Stamp.Version, p.Stamp.Timestamp.Add(time.Second))
		}, true, false},
		{"seen body, garbage signature", func(p *Pledge) { p.Sig[10] ^= 0x40 }, false, true},
		{"seen body, truncated signature", func(p *Pledge) { p.Sig = p.Sig[:32] }, false, true},
		{"seen pledge relabelled with another slave's key", func(p *Pledge) { p.SlavePub = f.other.Public }, false, true},
		{"same query, result and stamp signed by another slave", func(p *Pledge) {
			*p = SignPledge(f.other, p.QueryBytes, p.ResultHash, p.Stamp)
		}, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newSigCache()
			if hit, err := c.verifyPledge(&f.pledge); hit || err != nil {
				t.Fatalf("priming verify: hit=%v err=%v", hit, err)
			}
			p := clonePledge(f.pledge)
			tc.mutate(&p)
			// Twice: a negative verdict must not be cached either.
			for round := 0; round < 2; round++ {
				hit, err := c.verifyPledge(&p)
				if tc.wantErr {
					if !errors.Is(err, ErrBadPledge) || hit {
						t.Fatalf("round %d: hit=%v err=%v, want ErrBadPledge from a full verify", round, hit, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if wantHit := tc.wantHit || round == 1; hit != wantHit {
					t.Fatalf("round %d: hit=%v, want %v", round, hit, wantHit)
				}
			}
			if want := 1; tc.wantErr && c.entries() != want {
				t.Fatalf("cache holds %d entries after rejected pledges, want %d", c.entries(), want)
			}
		})
	}
}

// TestSigCacheStampSafety is the same for stamps, plus the point that
// trust in the master key is decided on every call, outside the cache.
func TestSigCacheStampSafety(t *testing.T) {
	f := newCacheFixture()
	trusted := []cryptoutil.PublicKey{f.master.Public}
	batch := SignBatchStamp(f.master, 7, time.Unix(1000, 0), cryptoutil.Digest{})
	cases := []struct {
		name    string
		stamp   func() VersionStamp
		trusted []cryptoutil.PublicKey
		wantHit bool
		wantErr bool
	}{
		{"the verified stamp again", func() VersionStamp { return f.stamp }, trusted, true, false},
		{"seen signature, altered version", func() VersionStamp { v := f.stamp; v.Version++; return v }, trusted, false, true},
		{"seen signature, altered timestamp", func() VersionStamp { v := f.stamp; v.Timestamp = v.Timestamp.Add(time.Second); return v }, trusted, false, true},
		{"seen signature, kind flipped to batch", func() VersionStamp { v := f.stamp; v.Kind = stampKindBatch; return v }, trusted, false, true},
		{"seen body, garbage signature", func() VersionStamp {
			v := f.stamp
			v.Sig = bytes.Clone(v.Sig)
			v.Sig[0] ^= 1
			return v
		}, trusted, false, true},
		{"verified stamp, master no longer trusted", func() VersionStamp { return f.stamp }, []cryptoutil.PublicKey{f.other.Public}, false, true},
		{"batch stamp over the same fields", func() VersionStamp { return batch }, trusted, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newSigCache()
			if hit, err := c.verifyStamp(&f.stamp, trusted); hit || err != nil {
				t.Fatalf("priming verify: hit=%v err=%v", hit, err)
			}
			v := tc.stamp()
			hit, err := c.verifyStamp(&v, tc.trusted)
			if hit != tc.wantHit || (err != nil) != tc.wantErr {
				t.Fatalf("hit=%v err=%v, want hit=%v err=%v", hit, err, tc.wantHit, tc.wantErr)
			}
			if tc.wantErr && !errors.Is(err, ErrBadStamp) {
				t.Fatalf("err = %v, want ErrBadStamp", err)
			}
		})
	}
}

// TestSigCacheNilVerifiesWithoutMemoising pins the shared implementation:
// Pledge.VerifySig and VersionStamp.Verify are the nil cache.
func TestSigCacheNilVerifiesWithoutMemoising(t *testing.T) {
	f := newCacheFixture()
	for i := 0; i < 2; i++ {
		if hit, err := (*sigCache)(nil).verifyPledge(&f.pledge); hit || err != nil {
			t.Fatalf("nil cache: hit=%v err=%v", hit, err)
		}
	}
	bad := clonePledge(f.pledge)
	bad.Sig[0] ^= 1
	if err := bad.VerifySig(); !errors.Is(err, ErrBadPledge) {
		t.Fatalf("VerifySig on a forged pledge: %v", err)
	}
}

// setKey returns the i-th distinct digest that lands in set 0 of a memo.
func setKey(i int) cryptoutil.Digest {
	var k cryptoutil.Digest
	k[2], k[3], k[19] = byte(i), byte(i>>8), 1 // bytes 0 and 1 pick the set
	return k
}

// TestSigCacheEvictsLeastRecentlyUsed fills one set past its ways: the
// memo takes every new entry, each at the cost of exactly one old one —
// the one untouched for longest, not one a lookup has just used — and a
// signer's table keeps every surviving key beside its own signature.
func TestSigCacheEvictsLeastRecentlyUsed(t *testing.T) {
	lru := newSigCache()
	for i := 0; i < sigCacheWays; i++ {
		lru.insert(setKey(i), nil)
	}
	lru.lookup(setKey(0)) // the oldest insert is now the most recently used
	lru.insert(setKey(sigCacheWays), nil)
	for i, want := range []bool{true, false, true} {
		if _, hit := lru.lookup(setKey(i)); hit != want {
			t.Errorf("after one insert into a full set, entry %d: hit=%v, want %v", i, hit, want)
		}
	}

	sigOf := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, ed25519.SignatureSize) }
	for _, signer := range []bool{false, true} {
		c := newSigCache()
		insert := func(i int) {
			if signer {
				c.insert(setKey(i), sigOf(i))
			} else {
				c.insert(setKey(i), nil)
			}
		}
		const extra = 3
		for i := 0; i < sigCacheWays+extra; i++ {
			insert(i)
			if sig, hit := c.lookup(setKey(i)); !hit || (signer && !bytes.Equal(sig, sigOf(i))) {
				t.Fatalf("signer=%v: entry %d not found right after its insert (sig %x)", signer, i, sig)
			}
		}
		live := 0
		for i := 0; i < sigCacheWays+extra; i++ {
			sig, hit := c.lookup(setKey(i))
			if hit {
				live++
			}
			if hit && signer && !bytes.Equal(sig, sigOf(i)) {
				t.Errorf("entry %d came back with another entry's signature %x", i, sig)
			}
		}
		if live != sigCacheWays || c.entries() != sigCacheWays {
			t.Errorf("signer=%v: %d of %d entries found, %d slots occupied, want %d", signer, live, sigCacheWays+extra, c.entries(), sigCacheWays)
		}
		insert(sigCacheWays) // already there or not: never twice
		if c.entries() != sigCacheWays {
			t.Errorf("signer=%v: a re-insert changed the occupancy to %d", signer, c.entries())
		}
		if _, hit := c.lookup(cryptoutil.Digest{}); hit {
			t.Error("the zero digest, which marks an empty slot, was found")
		}
	}
}

// TestSigCacheBounded pushes ten times the bound in distinct keys through
// one memo from several goroutines: its arrays never grow, it ends full,
// a new entry still goes in and the oldest was evicted. Real stamps then go
// through the same memo.
func TestSigCacheBounded(t *testing.T) {
	const workers = 4
	n := 10 * sigCacheSize
	c := newSigCache()
	key := func(i int) cryptoutil.Digest { return cryptoutil.HashBytes([]byte(fmt.Sprint("key-", i))) }
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += workers {
				if _, hit := c.lookup(key(i)); hit {
					t.Errorf("key %d found before it was inserted", i)
				}
				c.insert(key(i), nil)
			}
		}(g)
	}
	wg.Wait()
	if len(c.keys) != sigCacheSize || c.sigs != nil {
		t.Fatalf("a verifier's memo holds %d key slots and %d signature slots, want %d and 0", len(c.keys), len(c.sigs), sigCacheSize)
	}
	if got := c.entries(); got != sigCacheSize {
		t.Fatalf("memo holds %d entries after %d inserts, want it full at %d", got, n, sigCacheSize)
	}
	c.insert(key(n), nil)
	if _, hit := c.lookup(key(n)); !hit {
		t.Fatal("a full memo did not take a new key")
	}
	if _, hit := c.lookup(key(0)); hit {
		t.Fatal("oldest key survived 10x the bound in insertions")
	}

	f := newCacheFixture()
	trusted := []cryptoutil.PublicKey{f.master.Public}
	for round, wantHit := range []bool{false, true} {
		if hit, err := c.verifyStamp(&f.stamp, trusted); hit != wantHit || err != nil {
			t.Fatalf("stamp through a full memo, round %d: hit=%v err=%v", round, hit, err)
		}
	}
}

// TestSigCacheHitAllocs pins the hit path — what every repeated read
// pays at the client and the auditor — at zero allocations.
func TestSigCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	f := newCacheFixture()
	trusted := []cryptoutil.PublicKey{f.master.Public}
	c := newSigCache()
	c.verifyPledge(&f.pledge)
	c.verifyStamp(&f.stamp, trusted)
	if n := testing.AllocsPerRun(200, func() {
		if hit, err := c.verifyPledge(&f.pledge); !hit || err != nil {
			t.Fatalf("pledge: hit=%v err=%v", hit, err)
		}
	}); n != 0 {
		t.Fatalf("pledge hit path allocates %v times per run", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if hit, err := c.verifyStamp(&f.stamp, trusted); !hit || err != nil {
			t.Fatalf("stamp: hit=%v err=%v", hit, err)
		}
	}); n != 0 {
		t.Fatalf("stamp hit path allocates %v times per run", n)
	}
}

// pushBatch commits ops at the versions after the slave's current one.
func (r *slaveRig) pushBatch(t *testing.T, ops []store.Op) {
	t.Helper()
	frame := EncodeBatchUpdate(signedBatch(r.master, r.slave.Version()+1, ops, r.s.Now()))
	if _, err := r.slave.Handle("master", MethodUpdateBatch, frame); err != nil {
		t.Errorf("update batch: %v", err)
	}
}

// TestSlaveSignsEachDistinctPledgeOnce drives the slave's memo across
// keep-alives: while the content stays at one version a repeated query
// gets the very signature made the first time, under whichever stamp is
// current; a commit changes the signed body and so the signature; and a
// slave that turns liar mid-version signs its lie afresh.
func TestSlaveSignsEachDistinctPledgeOnce(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	r.s.Go(func() {
		r.keepAlive(1)
		first, err := r.read(t, query.Get{Key: "k"})
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		const keepAlives = 6
		for i := 0; i < keepAlives; i++ {
			r.s.Sleep(r.params.KeepAliveEvery)
			r.keepAlive(1)
			again, err := r.read(t, query.Get{Key: "k"})
			if err != nil {
				t.Errorf("read after keep-alive %d: %v", i, err)
				return
			}
			if !bytes.Equal(again.Pledge.Sig, first.Pledge.Sig) {
				t.Errorf("keep-alive %d at the same version changed the pledge signature", i)
			}
			if !again.Pledge.Stamp.Timestamp.After(first.Pledge.Stamp.Timestamp) {
				t.Errorf("keep-alive %d: the pledge still carries the old stamp", i)
			}
			if err := again.Pledge.VerifySig(); err != nil {
				t.Errorf("memoised pledge under a new stamp: %v", err)
			}
		}
		if st := r.slave.Stats(); st.PledgeCacheHits != keepAlives || st.PledgeCacheMisses != 1 {
			t.Errorf("one query over %d keep-alives: %d hits, %d misses", keepAlives, st.PledgeCacheHits, st.PledgeCacheMisses)
		}

		// A commit: same query, same answer, another version under the signature.
		r.s.Sleep(time.Millisecond) // a stamp is adopted only if it is newer than the last
		r.pushBatch(t, []store.Op{store.Put{Key: "other", Value: []byte("x")}})
		committed, err := r.read(t, query.Get{Key: "k"})
		if err != nil {
			t.Errorf("read after the commit: %v", err)
			return
		}
		if committed.Pledge.Stamp.Version != 2 || bytes.Equal(committed.Pledge.Sig, first.Pledge.Sig) {
			t.Errorf("pledge at version %d reuses the signature made at version 1", committed.Pledge.Stamp.Version)
		}
		if err := committed.Pledge.VerifySig(); err != nil {
			t.Errorf("pledge after the commit: %v", err)
		}
		if !committed.Pledge.ResultHash.Equal(first.Pledge.ResultHash) {
			t.Error("the commit to another key changed this answer")
		}

		// The slave turns liar with the honest signature in its table.
		r.slave.SetBehavior(AlwaysLie{})
		lie, err := r.read(t, query.Get{Key: "k"})
		if err != nil {
			t.Errorf("lying read: %v", err)
			return
		}
		if !lie.XLie || bytes.Equal(lie.Pledge.Sig, committed.Pledge.Sig) || lie.Pledge.ResultHash.Equal(committed.Pledge.ResultHash) {
			t.Error("the lie went out under the honest pledge")
		}
		if !cryptoutil.HashBytes(lie.Payload).Equal(lie.Pledge.ResultHash) || lie.Pledge.VerifySig() != nil {
			t.Error("the lying pledge is not evidence for the payload it came with")
		}
		if proven, _, err := CheckPledgeAgainst(r.slave.store, &lie.Pledge); err != nil || !proven {
			t.Errorf("lying pledge proves nothing: proven=%v err=%v", proven, err)
		}
		if st := r.slave.Stats(); st.PledgeCacheMisses != 3 {
			t.Errorf("three distinct pledge bodies, %d signatures made", st.PledgeCacheMisses)
		}
	})
	r.s.Run()
}

// TestSlavePledgeMemoBound counts signatures on the deterministic runtime.
// Distinct queries that fit the memo are signed once each however often
// and under however many stamps they are asked; past the bound the memo
// evicts — it keeps taking new entries and forgets old ones — where the
// table it replaces refused new entries until the next stamp.
func TestSlavePledgeMemoBound(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	get := func(i int) query.Query { return query.Get{Key: fmt.Sprintf("absent-%d", i)} }
	misses := func() uint64 { return r.slave.Stats().PledgeCacheMisses }
	r.s.Go(func() {
		const distinct, rounds = 500, 3
		for round := 0; round < rounds; round++ {
			r.keepAlive(1)
			for i := 0; i < distinct; i++ {
				if _, err := r.read(t, get(i)); err != nil {
					t.Errorf("read %d: %v", i, err)
					return
				}
			}
			r.s.Sleep(r.params.KeepAliveEvery)
		}
		if st := r.slave.Stats(); st.PledgeCacheMisses != distinct || st.PledgeCacheHits != distinct*(rounds-1) {
			t.Errorf("%d distinct queries asked %d times: %d signatures, %d hits", distinct, rounds, st.PledgeCacheMisses, st.PledgeCacheHits)
		}

		r.keepAlive(1)
		n := 2 * sigCacheSize
		if testing.Short() {
			n = sigCacheSize + sigCacheSize/2
		}
		for i := distinct; i < n; i++ {
			if _, err := r.read(t, get(i)); err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
		}
		before := misses()
		if r.read(t, get(n-1)); misses() != before {
			t.Error("a full memo refused the newest pledge")
		}
		if r.read(t, get(0)); misses() != before+1 {
			t.Error("the oldest pledge survived twice the bound in newer ones")
		}
		if got := r.slave.pledges.entries(); got > sigCacheSize || got < sigCacheSize/2 {
			t.Errorf("memo holds %d entries after %d distinct pledges, bound %d", got, n, sigCacheSize)
		}
	})
	r.s.Run()
}

// honestThenLie answers honestly once, then falsifies everything: the
// LieWithProb sequence "honest, then false" made deterministic.
type honestThenLie struct{ calls *int }

func (h honestThenLie) Corrupt(q, payload []byte, _ *rand.Rand) []byte {
	*h.calls++
	if *h.calls == 1 {
		return nil
	}
	return flipPayload(payload)
}
func (honestThenLie) String() string { return "honest-then-lie" }

// TestSlaveLieAfterHonestAnswerIsSignedAfresh: a lie about a query the
// slave has just answered honestly, inside the same stamp interval, has
// another result hash, so it cannot pick up the honest pledge's
// signature — and the lying pledge is valid evidence under the slave's
// key.
func TestSlaveLieAfterHonestAnswerIsSignedAfresh(t *testing.T) {
	calls := 0
	r := newSlaveRig(t, honestThenLie{&calls})
	r.s.Go(func() {
		r.keepAlive(1)
		honest, _ := r.read(t, query.Get{Key: "k"})
		lie, err := r.read(t, query.Get{Key: "k"})
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if honest.XLie || !lie.XLie {
			t.Errorf("ground truth: honest=%v lie=%v", honest.XLie, lie.XLie)
		}
		if bytes.Equal(honest.Pledge.Sig, lie.Pledge.Sig) || honest.Pledge.ResultHash.Equal(lie.Pledge.ResultHash) {
			t.Error("the lie reused the honest pledge")
		}
		if !cryptoutil.HashBytes(lie.Payload).Equal(lie.Pledge.ResultHash) {
			t.Error("lying pledge does not cover the lying payload")
		}
		if err := lie.Pledge.VerifySig(); err != nil {
			t.Errorf("lying pledge is not evidence against its signer: %v", err)
		}
		proven, _, err := CheckPledgeAgainst(r.slave.store, &lie.Pledge)
		if err != nil || !proven {
			t.Errorf("lying pledge proves nothing: proven=%v err=%v", proven, err)
		}
		if st := r.slave.Stats(); st.PledgeCacheHits != 0 || st.PledgeCacheMisses != 2 {
			t.Errorf("%d hits, %d misses, want 0 and 2", st.PledgeCacheHits, st.PledgeCacheMisses)
		}
	})
	r.s.Run()
}

// TestClientChecksCachedPledgeEveryRead: with the pledge's signature
// verdict cached, the checks that are about this client and this moment
// still run on every reply.
func TestClientChecksCachedPledgeEveryRead(t *testing.T) {
	r := newClientRig(t)
	var fixed *ReadReply
	r.mutate = func(rr *ReadReply) {
		if fixed == nil {
			cp := *rr
			fixed = &cp
		}
		*rr = *fixed // the byte-identical reply, whatever was asked
	}
	other := cryptoutil.DeriveKeyPair("other-slave", 0)
	r.s.Go(func() {
		if err := r.client.Setup(); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 2; i++ {
			if _, err := r.client.Read(query.Get{Key: "k"}); err != nil {
				t.Errorf("read %d: %v", i, err)
			}
		}
		st := r.client.Stats()
		if st.PledgeCacheHits != 1 || st.PledgeCacheMisses != 1 || st.StampCacheHits != 1 {
			t.Errorf("after one repeat: %+v", st)
		}

		// Cached pledge, different question.
		if _, err := r.client.Read(query.Get{Key: "other"}); err == nil {
			t.Error("cached pledge accepted for a different query")
		}
		// Cached pledge, no longer our slave.
		r.client.mu.Lock()
		mine := r.client.slaves[0].pub
		r.client.slaves[0].pub = other.Public
		r.client.mu.Unlock()
		if _, err := r.client.Read(query.Get{Key: "k"}); err == nil {
			t.Error("cached pledge accepted from a slave that is not assigned")
		}
		r.client.mu.Lock()
		r.client.slaves[0].pub = mine
		r.client.mu.Unlock()
		// Cached pledge, stamp grown stale.
		r.s.Sleep(r.params.MaxLatency + time.Second)
		before := r.client.Stats().StaleRejects
		if _, err := r.client.Read(query.Get{Key: "k"}); err == nil {
			t.Error("cached pledge accepted after its stamp went stale")
		}
		if r.client.Stats().StaleRejects == before {
			t.Error("stale cached pledge was not rejected for freshness")
		}
	})
	r.s.Run()
	if st := r.client.Stats(); st.PledgeCacheHits < 4 {
		t.Fatalf("the rejected replies should all have hit the pledge cache: %+v", st)
	}
}

// TestAuditorBacklogIsRunningCount checks the count kept beside the
// pending map against the map itself through admit and drain.
func TestAuditorBacklogIsRunningCount(t *testing.T) {
	r := newAuditorRig(t, nil)
	walk := func() int {
		r.auditor.mu.Lock()
		defer r.auditor.mu.Unlock()
		n := 0
		for _, ps := range r.auditor.pending {
			n += len(ps)
		}
		return n
	}
	r.s.Go(func() {
		now := r.pledgeFor(query.Get{Key: "k"}, false)
		later := now
		later.Stamp.Version += 5 // queued until the replica gets there
		for i := 0; i < 3; i++ {
			r.sendPledge(now)
		}
		r.sendPledge(later)
		if got := r.auditor.Backlog(); got != 4 || walk() != 4 {
			t.Errorf("backlog %d, pending holds %d, want 4", got, walk())
		}
		r.auditor.rt.Spawn(r.auditor.auditLoop)
		r.s.Sleep(3 * r.params.KeepAliveEvery)
		if got := r.auditor.Backlog(); got != 1 || walk() != 1 {
			t.Errorf("after drain: backlog %d, pending holds %d, want 1", got, walk())
		}
		if max := r.auditor.Stats().BacklogMax; max != 4 {
			t.Errorf("BacklogMax = %d, want 4", max)
		}
		r.s.Stop()
	})
	r.s.Run()
}

// --- layer ledger: what a pledge costs with and without the memo ---------

// benchSlave is a bare slave holding the fixture's keys and stamp.
func benchSlave(f cacheFixture) *Slave {
	s := NewSlave(SlaveConfig{Keys: f.slave, Params: DefaultParams()}, sim.RealClock{}, nil, store.New())
	s.lastStamp = f.stamp
	return s
}

func BenchmarkPledgeSignMiss(b *testing.B) {
	f := newCacheFixture()
	s := benchSlave(f)
	p := f.pledge
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Stamp.Version = uint64(i) // every iteration pays key + sign + insert
		if s.pledges.signPledge(&p, f.slave) {
			b.Fatal("hit")
		}
	}
}

func BenchmarkPledgeSignHit(b *testing.B) {
	f := newCacheFixture()
	s := benchSlave(f)
	p := f.pledge
	s.pledges.signPledge(&p, f.slave)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.pledges.signPledge(&p, f.slave) {
			b.Fatal("miss")
		}
	}
}

func BenchmarkPledgeVerifyMiss(b *testing.B) {
	f := newCacheFixture()
	c := newSigCache()
	c.verifyPledge(&f.pledge)
	slot := slices.IndexFunc(c.keys, func(k cryptoutil.Digest) bool { return k != cryptoutil.Digest{} })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.keys[slot] = cryptoutil.Digest{} // every iteration pays key + verify + insert
		if hit, err := c.verifyPledge(&f.pledge); hit || err != nil {
			b.Fatal(hit, err)
		}
	}
}

func BenchmarkPledgeVerifyHit(b *testing.B) {
	f := newCacheFixture()
	c := newSigCache()
	c.verifyPledge(&f.pledge)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hit, err := c.verifyPledge(&f.pledge); !hit || err != nil {
			b.Fatal(hit, err)
		}
	}
}

// zipfReads is the read-point workload's shape at one slave: Get queries
// over 20 000 keys drawn Zipf(1.1), and a new master stamp for the same
// version after every 1250 reads (12 500 reads/s, a keep-alive per 100 ms).
type zipfReads struct {
	queries [][]byte
	zipf    *rand.Zipf
}

const zipfReadsPerStamp = 1250

func newZipfReads() zipfReads {
	z := zipfReads{queries: make([][]byte, 20000)}
	for i := range z.queries {
		z.queries[i] = query.Encode(query.Get{Key: fmt.Sprintf("key-%05d", i)})
	}
	z.zipf = rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, uint64(len(z.queries)-1))
	return z
}

// next draws the index of the next query.
func (z zipfReads) next() int { return int(z.zipf.Uint64()) }

// BenchmarkSlaveReadZipf is the slave's whole read handler under that
// workload. signs/op is the memo's miss ratio; it falls as b.N grows past
// the cold start, so compare runs at one -benchtime (100000x ≈ 8 s of
// read-point at one slave).
func BenchmarkSlaveReadZipf(b *testing.B) {
	f := newCacheFixture()
	s := NewSlave(SlaveConfig{
		Keys: f.slave, Params: DefaultParams(), MasterPubs: []cryptoutil.PublicKey{f.master.Public},
	}, sim.RealClock{}, nullDialer{}, store.New())
	z := newZipfReads()
	w := wire.NewWriter(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%zipfReadsPerStamp == 0 {
			w.Reset()
			stamp := SignStamp(f.master, 0, time.Now())
			stamp.Encode(w)
			w.String_("")
			if _, err := s.Handle("master", MethodKeepAlive, w.Bytes()); err != nil {
				b.Fatal(err)
			}
		}
		w.Reset()
		w.Bytes_(z.queries[z.next()])
		if _, err := s.Handle("client", MethodRead, w.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.Stats().PledgeCacheMisses)/float64(b.N), "signs/op")
}

// BenchmarkClientVerifyZipf is the client-side twin: verifyReply over the
// replies an honest slave gives to the same reads. verifies/op counts
// pledge and stamp signature checks together.
func BenchmarkClientVerifyZipf(b *testing.B) {
	f := newCacheFixture()
	c := NewClient(ClientConfig{Keys: f.other, Params: DefaultParams()}, sim.RealClock{}, nullDialer{})
	sl := slaveAssignment{addr: "slave", pub: f.slave.Public}
	masters := []cryptoutil.PublicKey{f.master.Public}
	z := newZipfReads()
	payload := []byte("an answer")
	replies := make([]ReadReply, len(z.queries))
	for i, q := range z.queries {
		replies[i] = ReadReply{Payload: payload, Pledge: SignPledge(f.slave, q, cryptoutil.HashBytes(payload), f.stamp)}
	}
	var stamp VersionStamp
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%zipfReadsPerStamp == 0 {
			stamp = SignStamp(f.master, f.stamp.Version, time.Now())
		}
		reply := replies[z.next()]
		reply.Pledge.Stamp = stamp
		if err := c.verifyReply(sl, masters, reply.Pledge.QueryBytes, reply); err != nil {
			b.Fatal(err)
		}
	}
	st := c.Stats()
	b.ReportMetric(float64(st.PledgeCacheMisses+st.StampCacheMisses)/float64(b.N), "verifies/op")
}

// TestSlavePledgeMemoConcurrent has two readers ask one query while
// keep-alives rotate the stamp and batches move the version under them:
// every answer carries a pledge that verifies, beside a master stamp of
// the version it was signed for, and all answers at one version carry the
// same signature. Run under -race (make race does, ten times).
func TestSlavePledgeMemoConcurrent(t *testing.T) {
	master := cryptoutil.DeriveKeyPair("master", 0)
	trusted := []cryptoutil.PublicKey{master.Public}
	sl := NewSlave(SlaveConfig{
		Addr: "slave", Keys: cryptoutil.DeriveKeyPair("slave", 0), Params: DefaultParams(),
		MasterAddr: "master", MasterPubs: trusted,
	}, sim.RealClock{}, nullDialer{}, store.New())
	const batches, readers = 8, 2
	stop := make(chan struct{})
	var feed, wg sync.WaitGroup
	feed.Add(1)
	go func() { // the master: a batch, then keep-alives at its version
		defer feed.Done()
		defer close(stop)
		for b := 0; b < batches; b++ {
			frame := EncodeBatchUpdate(signedBatch(master, uint64(4*b+1), waveOps(4), time.Now()))
			if _, err := sl.Handle("master", MethodUpdateBatch, frame); err != nil {
				t.Errorf("batch %d: %v", b, err)
				return
			}
			for k := 0; k < 3; k++ {
				w := wire.NewWriter(128)
				stamp := SignStamp(master, sl.Version(), time.Now())
				stamp.Encode(w)
				w.String_("master")
				if _, err := sl.Handle("master", MethodKeepAlive, w.Bytes()); err != nil {
					t.Errorf("keep-alive: %v", err)
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	req := wire.NewWriter(64)
	req.Bytes_(query.Encode(query.Get{Key: "absent"}))
	var mu sync.Mutex
	sigAt := map[uint64][]byte{} // guarded by mu
	served := 0                  // guarded by mu
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				body, err := sl.Handle("client", MethodRead, req.Bytes())
				if err != nil {
					continue // no stamp before the first batch: ErrStale
				}
				rr, err := DecodeReadReply(body)
				if err != nil || rr.Pledge.VerifySig() != nil || rr.Pledge.Stamp.Verify(trusted) != nil {
					t.Errorf("reply does not verify: %v", err)
					return
				}
				mu.Lock()
				served++
				if sig, ok := sigAt[rr.Pledge.Stamp.Version]; ok && !bytes.Equal(sig, rr.Pledge.Sig) {
					t.Errorf("two signatures for one pledge body at version %d", rr.Pledge.Stamp.Version)
				}
				sigAt[rr.Pledge.Stamp.Version] = rr.Pledge.Sig
				mu.Unlock()
			}
		}()
	}
	feed.Wait()
	wg.Wait()
	st := sl.Stats()
	if served == 0 || int(st.PledgeCacheMisses) < len(sigAt) || st.PledgeCacheMisses > uint64(readers*len(sigAt)) {
		t.Fatalf("%d reads served at %d versions with %d signatures made", served, len(sigAt), st.PledgeCacheMisses)
	}
}
