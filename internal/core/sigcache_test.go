package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/query"
	"repro/internal/store"
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

// TestSigCachePledgeSafety primes a cache with one verified pledge and
// then presents variations of it: none may ride on the cached verdict.
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
		{"seen signature, altered stamp signature", func(p *Pledge) { p.Stamp.Sig[3] ^= 1 }, false, true},
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
			if want := 1; tc.wantErr && len(c.m) != want {
				t.Fatalf("cache holds %d entries after rejected pledges, want %d", len(c.m), want)
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

// TestSigCacheBounded verifies ten times the bound in distinct stamps
// from several goroutines: the set never outgrows sigCacheSize, the
// newest entry hits and the oldest was evicted.
func TestSigCacheBounded(t *testing.T) {
	f := newCacheFixture()
	trusted := []cryptoutil.PublicKey{f.master.Public}
	const workers = 4
	n := 10 * sigCacheSize
	if testing.Short() {
		n = 2 * sigCacheSize
	}
	stamps := make([]VersionStamp, n)
	c := newSigCache()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += workers {
				stamps[i] = SignStamp(f.master, uint64(i), time.Unix(int64(i), 0))
				if _, err := c.verifyStamp(&stamps[i], trusted); err != nil {
					t.Errorf("stamp %d: %v", i, err)
				}
				c.mu.Lock()
				size, ring := len(c.m), len(c.ring)
				c.mu.Unlock()
				if size > sigCacheSize || ring > sigCacheSize {
					t.Errorf("after stamp %d: %d entries, ring %d, bound %d", i, size, ring, sigCacheSize)
				}
			}
		}(g)
	}
	wg.Wait()
	if len(c.m) != sigCacheSize {
		t.Fatalf("cache holds %d entries, want it full at %d", len(c.m), sigCacheSize)
	}
	last := SignStamp(f.master, uint64(n), time.Unix(int64(n), 0))
	c.verifyStamp(&last, trusted)
	if hit, _ := c.verifyStamp(&last, trusted); !hit {
		t.Fatal("a full cache did not take the newest stamp")
	}
	if hit, _ := c.verifyStamp(&stamps[0], trusted); hit {
		t.Fatal("oldest stamp survived 10x the bound in insertions")
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

// pledgeTableLen reads the slave's signed-pledge table size.
func (s *Slave) pledgeTableLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pledgeSigs)
}

// TestSlaveSignsEachDistinctPledgeOnce drives the slave's memo: a repeat
// inside one stamp interval re-issues the same bytes without signing, a
// new stamp empties the table, and the table stays inside its bound.
func TestSlaveSignsEachDistinctPledgeOnce(t *testing.T) {
	r := newSlaveRig(t, Honest{})
	r.s.Go(func() {
		r.keepAlive(1)
		first, err := r.read(t, query.Get{Key: "k"})
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		again, _ := r.read(t, query.Get{Key: "k"})
		if !bytes.Equal(EncodeReadReply(first), EncodeReadReply(again)) {
			t.Error("memoised reply differs from the signed one")
		}
		if err := again.Pledge.VerifySig(); err != nil {
			t.Errorf("memoised pledge: %v", err)
		}
		if st := r.slave.Stats(); st.PledgeCacheHits != 1 || st.PledgeCacheMisses != 1 {
			t.Errorf("after one repeat: %d hits, %d misses", st.PledgeCacheHits, st.PledgeCacheMisses)
		}

		// Stamp rotation: every table entry embeds the old stamp.
		r.s.Sleep(r.params.KeepAliveEvery)
		r.keepAlive(1)
		if n := r.slave.pledgeTableLen(); n != 0 {
			t.Errorf("table holds %d entries after a new stamp", n)
		}
		rotated, _ := r.read(t, query.Get{Key: "k"})
		if bytes.Equal(rotated.Pledge.Sig, first.Pledge.Sig) {
			t.Error("pledge under the new stamp reuses the old signature")
		}
		if err := rotated.Pledge.VerifySig(); err != nil {
			t.Errorf("pledge under the new stamp: %v", err)
		}

		// Ten times the bound in distinct queries inside one interval.
		for i := 0; i < 10*sigCacheSize; i++ {
			if _, err := r.read(t, query.Get{Key: fmt.Sprintf("absent-%d", i)}); err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
			if n := r.slave.pledgeTableLen(); n > sigCacheSize {
				t.Errorf("table holds %d entries after %d distinct queries, bound %d", n, i+1, sigCacheSize)
				return
			}
		}
		// Past the bound the slave still answers, by signing.
		over, err := r.read(t, query.Get{Key: "absent-over"})
		if err != nil || over.Pledge.VerifySig() != nil {
			t.Errorf("read past the bound: %v", err)
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
	s := NewSlave(SlaveConfig{Keys: f.slave, Params: DefaultParams()}, nil, nil, store.New())
	s.lastStamp = f.stamp
	return s
}

func BenchmarkPledgeSignMiss(b *testing.B) {
	f := newCacheFixture()
	s := benchSlave(f)
	p := f.pledge
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clear(s.pledgeSigs) // every iteration pays key + sign + insert
		if s.signPledge(&p) {
			b.Fatal("hit")
		}
	}
}

func BenchmarkPledgeSignHit(b *testing.B) {
	f := newCacheFixture()
	s := benchSlave(f)
	p := f.pledge
	s.signPledge(&p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.signPledge(&p) {
			b.Fatal("miss")
		}
	}
}

func BenchmarkPledgeVerifyMiss(b *testing.B) {
	f := newCacheFixture()
	c := newSigCache()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clear(c.m) // every iteration pays key + verify + insert
		c.ring = c.ring[:0]
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
