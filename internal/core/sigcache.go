// Verified-signature cache: amortizing repeated signature verification.
//
// The same signed evidence arrives at a node many times. Every read
// served between two updates carries the slave's current stamp back to
// the client, every record of one batch in a sync stream shares the batch
// stamp — and because a pledge signs (query, result hash, stamp, slave
// key) and ed25519 is deterministic, every repeat of a popular query
// inside one keep-alive interval yields the byte-identical pledge, at the
// client and again at the auditor. A signature only needs to be checked
// once — afterwards, recognizing the exact same signed bytes is a hash
// lookup, far cheaper than ed25519.Verify (CacheLookup vs VerifySig in
// the cost model).
//
// Safety: the cache key is a digest over the entire signed body AND the
// signature. An attacker cannot pair a previously-seen signature with an
// altered body (the body is in the key), a seen body with a garbage
// signature (the signature is too), nor replay a verdict under another
// signer (the signer's key is part of every signed body, and the bodies'
// domain strings — vstamp.v1, vbatch.v1, pledge.v1 — keep stamps and
// pledges apart). Only positive verdicts are cached, and only after a
// full Verify. Checks that depend on the receiving node rather than on
// the bytes — is the master key trusted, is the pledge from the assigned
// slave, does it cover this query, is the stamp fresh — are not part of
// the cached verdict; callers run them on every message.
package core

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// sigCacheSize bounds every signature memo in the package: the verified
// sets below and the slave's signed-pledge table. Signed evidence recurs
// over short windows (one keep-alive interval, one sync stream), so a
// small fixed bound captures nearly all repeats at tens of KiB per node.
const sigCacheSize = 1024

// sigCache is a bounded FIFO set of verified (signed body, signature)
// digests. Safe for concurrent use. A nil *sigCache verifies without
// memoising, so the cached and plain paths share one implementation.
type sigCache struct {
	mu   sync.Mutex
	m    map[cryptoutil.Digest]struct{} // guarded by mu
	ring []cryptoutil.Digest            // guarded by mu
	pos  int                            // guarded by mu

	hits, misses uint64 // guarded by mu
}

func newSigCache() *sigCache {
	return &sigCache{m: make(map[cryptoutil.Digest]struct{})}
}

// verify checks sig over the signed body held in w under pub, consulting
// the cache first; it appends to w, which the caller still owns. It
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
	c.mu.Lock()
	if _, hit = c.m[key]; hit {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	if hit {
		return true, nil
	}

	if err := cryptoutil.Verify(pub, w.Bytes()[:n], sig); err != nil {
		return false, err
	}

	c.mu.Lock()
	if _, ok := c.m[key]; !ok {
		if len(c.ring) < sigCacheSize {
			c.ring = append(c.ring, key)
		} else {
			delete(c.m, c.ring[c.pos])
			c.ring[c.pos] = key
			c.pos = (c.pos + 1) % sigCacheSize
		}
		c.m[key] = struct{}{}
	}
	c.mu.Unlock()
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

// verifyPledge checks the slave's signature on the pledge.
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
