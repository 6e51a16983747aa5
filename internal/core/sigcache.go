// Signature memo: each distinct piece of signed evidence is paid for once.
// The same evidence arrives many times — every read between two keep-alives
// carries the same stamp, every record of a batch the batch stamp, and,
// ed25519 being deterministic, every repeat of a query at one content
// version the same pledge signature — and recognizing bytes already signed
// or verified is a hash lookup (CacheLookup vs Sign/VerifySig).
//
// What a pledge's signature covers: pledge.v2 ‖ query ‖ result hash ‖
// Stamp.Version ‖ slave key — "this is the answer at version v", all anyone
// holds the slave to (the auditor and Master.handleReport re-execute at
// v). That v is still current is the master's statement, under the
// master's signature on the stamp that rides beside the slave's, which the
// client checks on every reply: a swapped-in stamp is either master-signed
// for v and fresh — then so is the answer, whoever attached it — or
// rejected, and a stamp for another version breaks the slave's signature.
// So no keep-alive invalidates anything: entries of past versions are
// never asked for again and get overwritten.
//
// Safety of a hit. A verifier's key is a digest over the whole signed body
// AND the signature: a seen signature on an altered body, a seen body
// under a garbage signature, a verdict replayed under another signer (the
// signer's key is in every body; the domain strings vstamp.v1, vbatch.v1,
// pledge.v2 keep the kinds apart) all miss. Only positive verdicts are
// stored, after a full Verify. A signer's key is the digest of the body
// and its entry the signature made for it, so a hit returns the bytes
// signing again would; a corrupted payload has another result hash, hence
// another key. Checks about the receiver or the moment — payload hash,
// assigned slave, query asked, certified master, freshness — are in no
// cached verdict; callers run them on every message.
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

// sigCacheSize bounds every memo, in entries of 20 bytes at a verifier and
// 84 at a signer. On read-point (Zipf(1.1), 20 000 keys) 1024 entries miss
// 30 % of reads, 4096 miss 14 %, 16 384 a few percent — at a third more
// peak RSS: a live table byte costs two at the collector's heap goal.
const (
	sigCacheSize = 4096
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
	mu   sync.Mutex
	keys []cryptoutil.Digest           // guarded by mu; the zero digest marks an empty slot
	sigs [][ed25519.SignatureSize]byte // guarded by mu; beside keys at a signer, nil at a verifier

	hits, misses uint64 // guarded by mu
}

func newSigCache() *sigCache { return new(sigCache) }

// findLocked returns where key's set starts and key's position in it, or
// -1. The zero digest is never found: it is what an empty slot holds.
func (c *sigCache) findLocked(key cryptoutil.Digest) (set, j int) {
	set = (int(key[0]) | int(key[1])<<8) % (sigCacheSize / sigCacheWays) * sigCacheWays
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
		c.keys = make([]cryptoutil.Digest, sigCacheSize)
	}
	if sig != nil && c.sigs == nil {
		c.sigs = make([][ed25519.SignatureSize]byte, sigCacheSize)
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
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	p.appendSignedBytes(w)
	if c == nil {
		p.Sig = signer.Sign(w.Bytes())
		return false
	}
	key := cryptoutil.HashBytes(w.Bytes())
	if p.Sig, hit = c.lookup(key); !hit {
		p.Sig = signer.Sign(w.Bytes())
		c.insert(key, p.Sig)
	}
	return hit
}

// verify checks sig over the signed body held in w under pub, consulting
// the memo first; it appends to w, which the caller still owns. It
// reports whether the expensive check was skipped (hit == true), so
// callers charging simulated CPU can charge CacheLookup instead of
// VerifySig. The body is encoded once: the same bytes feed the key and
// the verification.
func (c *sigCache) verify(pub cryptoutil.PublicKey, w *wire.Writer, sig []byte) (hit bool, err error) {
	if c == nil {
		return false, cryptoutil.Verify(pub, w.Bytes(), sig)
	}
	n := w.Len()
	w.Bytes_(sig)
	key := cryptoutil.HashBytes(w.Bytes())
	if _, hit = c.lookup(key); hit {
		return true, nil
	}
	if err := cryptoutil.Verify(pub, w.Bytes()[:n], sig); err != nil {
		return false, err
	}
	c.insert(key, nil)
	return false, nil
}

// verifyStamp checks the stamp against the trusted master set. Trust is
// decided on every call; only the signature check is memoised.
func (c *sigCache) verifyStamp(v *VersionStamp, trusted []cryptoutil.PublicKey) (hit bool, err error) {
	known := false
	for _, pub := range trusted {
		known = known || bytes.Equal(pub, v.MasterPub)
	}
	if !known {
		return false, fmt.Errorf("%w: unknown master key", ErrBadStamp)
	}
	w := wire.GetWriter()
	v.appendSignedBytes(w)
	hit, err = c.verify(v.MasterPub, w, v.Sig)
	wire.PutWriter(w)
	if err != nil {
		return false, fmt.Errorf("%w: %v", ErrBadStamp, err)
	}
	return hit, nil
}

// verifyPledge checks the slave's signature on the pledge, which covers
// the carried stamp's version and nothing else of it.
func (c *sigCache) verifyPledge(p *Pledge) (hit bool, err error) {
	w := wire.GetWriter()
	p.appendSignedBytes(w)
	hit, err = c.verify(p.SlavePub, w, p.Sig)
	wire.PutWriter(w)
	if err != nil {
		return false, fmt.Errorf("%w: %v", ErrBadPledge, err)
	}
	return hit, nil
}

// stats returns the hit/miss counters.
func (c *sigCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
