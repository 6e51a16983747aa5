// Signature memo: a piece of signed evidence that arrives again and again
// is paid for once. Ed25519 being deterministic, every repeat of a query
// at one content version has the same pledge signature, and a resync
// brings back stamps already verified; recognizing bytes already verified
// or signed is a hash lookup (CacheLookup vs Sign/VerifySig). The slave's
// stamp verifier and pledge table are kept for their measured traffic
// (core/doc.go). The pledge table is also the slave's record of what it
// served: a slave signs a pledge only when asked (the s.read sign flag,
// or s.sign afterwards), and only for a body this table holds. A client has no verifier: a reply leaves out the stamp
// its request names, which the client verified when it arrived whole
// (Client.checkReply), and a pledge verify is rare enough to have no memo.
//
// What a pledge's signature covers: pledge.v2 ‖ query ‖ result hash ‖
// Stamp.Version ‖ slave key — "this is the answer at version v", all anyone
// holds the slave to (the auditor and Master.handleReport re-execute at
// v). That v is still current is the master's statement, under the
// master's signature on the stamp that rides beside the slave's (or that
// the client holds, when the reply leaves it out), which the client checks
// on every reply: a swapped-in stamp is either master-signed for v and
// fresh — then so is the answer, whoever attached it — or rejected, and a
// stamp for another version breaks the slave's signature.
// So no keep-alive invalidates anything: entries of past versions are
// never asked for again and get overwritten.
//
// Safety of a hit. A verifier's key is a digest over the whole signed body
// AND the signature: a seen signature on an altered body, a seen body
// under a garbage signature, a verdict replayed under another signer (the
// signer's key is in every body; each stamp kind's domain string,
// stampDomains, keeps the kinds apart) all miss. Only positive verdicts are
// stored, after a full Verify. A signer's key is the digest of the body
// and its entry the signature made for it, so a hit returns the bytes
// signing again would; a corrupted payload has another result hash, hence
// another key. Checks about the receiver or the moment — payload hash,
// assigned slave, query asked, certified master, freshness — are in no
// cached verdict: a client runs the stamp's (certified master, freshness)
// on every reply, and the payload hash, slave and query are in the body
// whose signature it checks.
package core

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"slices"
	"sync"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// Memo capacities, in entries, one per use. A stamp memo is only ever
// asked about the few stamps current at once. The pledge table holds a
// working set of queries at one content version: an entry is 20 bytes,
// and 84 once the table has signed anything, and a signature asked for
// but missing costs a sign (≈ 29 µs on the benchmark host's ledger). It
// is also the window in which a client can still ask s.sign for what it
// was served. A live table byte costs two at the collector's heap goal.
const (
	stampMemoSize      = 256  // 5 KB
	pledgeSignMemoSize = 8192 // 160 KB, 672 KB once signing

	sigCacheWays = 8 // slots per set, searched linearly, most recently used first
)

// sigCache is a bounded memo of signature work keyed by digest: verified
// (signed body ‖ signature) digests at a verifier, signed-body digest →
// signature at a signer, where an entry may also be served and not signed
// yet. It is set-associative over flat arrays allocated on first insert,
// each set kept in recency order: a hit or an insert moves the entry to
// the front, and an insert drops the one at the back. Safe for concurrent
// use. A nil *sigCache signs and verifies without memoising: cached and
// plain paths are one code.
type sigCache struct {
	size int // entries, a multiple of sigCacheWays; fixed at construction

	mu   sync.Mutex
	keys []cryptoutil.Digest // guarded by mu; the zero digest marks an empty slot
	// sigs is guarded by mu: beside keys once a signer signed, nil at a
	// verifier. The zero signature marks a body served and not signed yet;
	// an entry that replaces another starts with it, so it never hands out
	// the signature of the one it evicted.
	sigs [][ed25519.SignatureSize]byte

	hits, misses uint64 // guarded by mu
}

// newSigCache returns an empty memo of size entries, one of the
// capacities above.
func newSigCache(size int) *sigCache { return &sigCache{size: size} }

// findLocked returns where key's set starts and key's position in it, or
// -1. The zero digest is never found: it is what an empty slot holds.
func (c *sigCache) findLocked(key cryptoutil.Digest) (set, j int) {
	set = (int(key[0]) | int(key[1])<<8) % (c.size / sigCacheWays) * sigCacheWays
	if c.keys == nil || key == (cryptoutil.Digest{}) {
		return set, -1
	}
	return set, slices.Index(c.keys[set:set+sigCacheWays], key)
}

// lookup reports whether key is in a verifier's memo, counting the hit
// or miss.
func (c *sigCache) lookup(key cryptoutil.Digest) (hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	set, j := c.findLocked(key)
	if j < 0 {
		c.misses++
		return false
	}
	c.hits++
	c.frontLocked(set, j)
	return true
}

// sigLocked returns a copy of the signature of the entry at i, nil when
// it has none. Caller holds c.mu.
func (c *sigCache) sigLocked(i int) []byte {
	if c.sigs == nil || c.sigs[i] == [ed25519.SignatureSize]byte{} {
		return nil
	}
	return bytes.Clone(c.sigs[i][:])
}

// insert adds key, with sig at a signer and nil at a verifier, over the
// least recently used entry of its set; a signer's entry already there
// takes sig.
func (c *sigCache) insert(key cryptoutil.Digest, sig []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sig != nil && c.sigs == nil {
		c.sigs = make([][ed25519.SignatureSize]byte, c.size)
	}
	set, j := c.findLocked(key)
	if j < 0 {
		j = c.addLocked(set, key)
	}
	if sig != nil {
		copy(c.sigs[set+j][:], sig)
	}
	c.frontLocked(set, j)
}

// addLocked puts key over the set's least recently used entry, with no
// signature beside it, and returns its position. Caller holds c.mu.
func (c *sigCache) addLocked(set int, key cryptoutil.Digest) int {
	if c.keys == nil {
		c.keys = make([]cryptoutil.Digest, c.size)
	}
	j := sigCacheWays - 1
	c.keys[set+j] = key
	if c.sigs != nil {
		c.sigs[set+j] = [ed25519.SignatureSize]byte{}
	}
	return j
}

// recall finds key at a signer: the entry's signature (nil when it has
// none) and whether it is there. With serve, a key that is not there is
// added, with no signature. With sign, an entry found counts a hit when
// it has its signature and a miss when it has none, which the caller then
// makes.
func (c *sigCache) recall(key cryptoutil.Digest, serve, sign bool) (sig []byte, found bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	set, j := c.findLocked(key)
	if j < 0 {
		if !serve {
			return nil, false
		}
		j = c.addLocked(set, key)
	}
	c.frontLocked(set, j)
	sig = c.sigLocked(set)
	if sign && sig != nil {
		c.hits++
	} else if sign {
		c.misses++
	}
	return sig, true
}

// frontLocked moves the set's entry j to its front; the entries that were
// ahead of it move back one.
func (c *sigCache) frontLocked(set, j int) {
	key := c.keys[set+j]
	copy(c.keys[set+1:set+j+1], c.keys[set:set+j])
	c.keys[set] = key
	if c.sigs != nil {
		sig := c.sigs[set+j]
		copy(c.sigs[set+1:set+j+1], c.sigs[set:set+j])
		c.sigs[set] = sig
	}
}

// signPledge consults the table about p's signed body under signer's key.
// With serve the body is recorded as served first, so it is always found;
// without, a body the table does not hold is not signed and signPledge
// reports false. With sign p.Sig is then filled in: the signature made
// before when this exact body was signed before (a hit), a fresh one kept
// beside the body otherwise (a miss). A nil table signs every body. One
// charge on m: a signature when one is made, a memo lookup otherwise.
func (c *sigCache) signPledge(p *Pledge, serve, sign bool, signer *cryptoutil.KeyPair, m *cryptoutil.Meter) (found bool) {
	signed := false
	wire.Borrow(p.appendSignedBytes, func(body []byte) {
		if c == nil {
			found = true
			if sign {
				p.Sig, signed = signer.Sign(body), true
			}
			return
		}
		key := cryptoutil.HashBytes(body)
		var sig []byte
		if sig, found = c.recall(key, serve, sign); !found || !sign {
			return
		}
		if sig == nil {
			sig, signed = signer.Sign(body), true
			c.insert(key, sig)
		}
		p.Sig = sig
	})
	m.Memoised(!signed, m.Sign)
	return found
}

// verify checks sig over the signed body that appendBody writes under pub,
// consulting the memo first, and prices on m what that took: a hit, or a
// full verify whatever its verdict. The body is encoded once, with sig
// after it: body and sig together are the key, the body alone is what
// the signature covers.
func (c *sigCache) verify(pub cryptoutil.PublicKey, appendBody func(*wire.Writer), sig []byte, m *cryptoutil.Meter) (err error) {
	n, hit := 0, false
	wire.Borrow(func(w *wire.Writer) {
		appendBody(w)
		n = w.Len()
		w.Bytes_(sig)
	}, func(b []byte) {
		if c == nil {
			err = cryptoutil.Verify(pub, b[:n], sig)
			return
		}
		key := cryptoutil.HashBytes(b)
		if hit = c.lookup(key); hit {
			return
		}
		if err = cryptoutil.Verify(pub, b[:n], sig); err == nil {
			c.insert(key, nil)
		}
	})
	m.Memoised(hit, m.Verify)
	return err
}

// verifyStamp checks the stamp against the trusted master set, pricing the
// signature check on m. Trust is decided on every call; only the
// signature check is memoised.
func (c *sigCache) verifyStamp(v *VersionStamp, trusted []cryptoutil.PublicKey, m *cryptoutil.Meter) error {
	if !v.certifiedBy(trusted) {
		return fmt.Errorf("%w: unknown master key", ErrBadStamp)
	}
	if err := c.verify(v.MasterPub, v.appendSignedBytes, v.Sig, m); err != nil {
		return fmt.Errorf("%w: %v", ErrBadStamp, err)
	}
	return nil
}

// stats returns the hit/miss counters.
func (c *sigCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
