// Signature memo: a piece of signed evidence that arrives again and again
// is paid for once. Ed25519 being deterministic, every repeat of a query
// at one content version has the same pledge signature, and a resync
// brings back stamps already verified; recognizing bytes already verified
// or signed is a hash lookup (CacheLookup vs Sign/VerifySig). The slave's
// stamp verifier and pledge signer are kept for their measured traffic
// (core/doc.go). A client has no verifier: a reply leaves out the stamp
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
// signer's key is in every body; the domain strings vstamp.v1 and
// vbatch.v1 keep the kinds apart) all miss. Only positive verdicts are
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
// asked about the few stamps current at once. The signer holds a working
// set of queries at one content version: an entry is 84 bytes and its
// miss a sign (≈ 29 µs on the benchmark host's ledger). A live table byte
// costs two at the collector's heap goal.
const (
	stampMemoSize      = 256  // 5 KB
	pledgeSignMemoSize = 8192 // 672 KB

	sigCacheWays = 8 // slots per set, searched linearly, most recently used first
)

// sigCache is a bounded memo of signature work keyed by digest: verified
// (signed body ‖ signature) digests at a verifier, signed-body digest →
// signature at a signer. It is set-associative over flat arrays allocated
// on first insert, each set kept in recency order: a hit or an insert
// moves the entry to the front, and an insert drops the one at the back.
// Safe for concurrent use. A nil *sigCache signs and verifies without
// memoising: cached and plain paths are one code.
type sigCache struct {
	size int // entries, a multiple of sigCacheWays; fixed at construction

	mu   sync.Mutex
	keys []cryptoutil.Digest           // guarded by mu; the zero digest marks an empty slot
	sigs [][ed25519.SignatureSize]byte // guarded by mu; beside keys at a signer, nil at a verifier

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

// lookup reports whether key is in the memo, counting the hit or miss. A
// signer's table also returns a copy of the signature.
func (c *sigCache) lookup(key cryptoutil.Digest) (sig []byte, hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	set, j := c.findLocked(key)
	if j < 0 {
		c.misses++
		return nil, false
	}
	c.hits++
	c.frontLocked(set, j)
	if c.sigs != nil {
		sig = bytes.Clone(c.sigs[set][:])
	}
	return sig, true
}

// insert adds key, with sig at a signer and nil at a verifier, over the
// least recently used entry of its set.
func (c *sigCache) insert(key cryptoutil.Digest, sig []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.keys == nil {
		c.keys = make([]cryptoutil.Digest, c.size)
	}
	if sig != nil && c.sigs == nil {
		c.sigs = make([][ed25519.SignatureSize]byte, c.size)
	}
	set, j := c.findLocked(key)
	if j >= 0 {
		return // a concurrent caller put it there meanwhile
	}
	j = sigCacheWays - 1
	c.keys[set+j] = key
	if sig != nil {
		copy(c.sigs[set+j][:], sig)
	}
	c.frontLocked(set, j)
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

// signPledge fills in p.Sig under signer's key: the signature made before
// when this exact body was signed before (hit), a fresh one otherwise.
func (c *sigCache) signPledge(p *Pledge, signer *cryptoutil.KeyPair) (hit bool) {
	wire.Borrow(p.appendSignedBytes, func(body []byte) {
		if c == nil {
			p.Sig = signer.Sign(body)
			return
		}
		key := cryptoutil.HashBytes(body)
		if p.Sig, hit = c.lookup(key); !hit {
			p.Sig = signer.Sign(body)
			c.insert(key, p.Sig)
		}
	})
	return hit
}

// verify checks sig over the signed body that appendBody writes under pub,
// consulting the memo first. It reports whether the expensive check was
// skipped (hit == true), so callers charging simulated CPU can charge
// CacheLookup instead of VerifySig. The body is encoded once, with sig
// after it: body and sig together are the key, the body alone is what
// the signature covers.
func (c *sigCache) verify(pub cryptoutil.PublicKey, appendBody func(*wire.Writer), sig []byte) (hit bool, err error) {
	n := 0
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
		if _, hit = c.lookup(key); hit {
			return
		}
		if err = cryptoutil.Verify(pub, b[:n], sig); err == nil {
			c.insert(key, nil)
		}
	})
	return hit, err
}

// verifyStamp checks the stamp against the trusted master set. Trust is
// decided on every call; only the signature check is memoised.
func (c *sigCache) verifyStamp(v *VersionStamp, trusted []cryptoutil.PublicKey) (hit bool, err error) {
	if !v.certifiedBy(trusted) {
		return false, fmt.Errorf("%w: unknown master key", ErrBadStamp)
	}
	hit, err = c.verify(v.MasterPub, v.appendSignedBytes, v.Sig)
	if err != nil {
		return false, fmt.Errorf("%w: %v", ErrBadStamp, err)
	}
	return hit, nil
}

// stats returns the hit/miss counters.
func (c *sigCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
