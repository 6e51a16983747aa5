// Package cryptoutil provides the signing and hashing primitives used by
// the replication protocol: Ed25519 key pairs (with deterministic,
// seed-derived generation for reproducible simulations), 20-byte digests
// (SHA-256, FIPS 180-4, truncated to the 20 bytes of the SHA-1 digests the
// paper names, so no frame changes length), and a cost model that lets
// the simulator charge realistic CPU time for cryptographic work.
package cryptoutil

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
)

// DigestSize is the size of a digest in bytes: SHA-256 truncated to the
// length of the SHA-1 digests it replaced. Twenty bytes keep 80-bit
// generic collision resistance, and every frame, WAL record and snapshot
// its length.
const DigestSize = 20

// Digest is a truncated SHA-256 hash of a deterministic encoding.
type Digest [DigestSize]byte

// HashBytes returns the digest of b: the first DigestSize bytes of its
// SHA-256.
func HashBytes(b []byte) Digest { return truncate(sha256.Sum256(b)) }

func truncate(full [sha256.Size]byte) (d Digest) {
	copy(d[:], full[:])
	return d
}

// maxPooledConcat bounds the concat buffers kept in the pool so one huge
// input (a snapshot-sized value) cannot pin a giant buffer forever.
const maxPooledConcat = 1 << 20 // 1 MiB

var concatPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 256)
		return &b
	},
}

// HashConcat returns the digest (HashBytes) of the concatenation of the given
// length-delimited parts. Each part is prefixed with its length so that
// ("ab","c") and ("a","bc") hash differently.
//
// The framing (8-byte big-endian length before each part) is part of the
// protocol: every digest in the system depends on it, so it must never
// change. The concatenation is assembled in a pooled scratch buffer and
// hashed with sha256.Sum256, which keeps the hot path (store entry digests,
// the state-signing baseline's merkle nodes) free of per-call allocation.
func HashConcat(parts ...[]byte) Digest {
	bp := concatPool.Get().(*[]byte)
	buf := (*bp)[:0]
	var lenbuf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenbuf[:], uint64(len(p)))
		buf = append(buf, lenbuf[:]...)
		buf = append(buf, p...)
	}
	d := truncate(sha256.Sum256(buf))
	if cap(buf) <= maxPooledConcat {
		*bp = buf
		concatPool.Put(bp)
	}
	return d
}

// Equal reports whether two digests are identical (constant time).
func (d Digest) Equal(o Digest) bool {
	return subtle.ConstantTimeCompare(d[:], o[:]) == 1
}

// IsZero reports whether the digest is all zero bytes.
func (d Digest) IsZero() bool { return d == Digest{} }

// String returns the digest in hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Short returns the first 8 hex characters, for logs.
func (d Digest) Short() string { return hex.EncodeToString(d[:4]) }

// PublicKey identifies a principal (content owner, master, slave, client).
type PublicKey = ed25519.PublicKey

// KeyPair holds a signing key pair.
type KeyPair struct {
	Public  ed25519.PublicKey
	private ed25519.PrivateKey
}

// Errors returned by signature checks.
var (
	ErrBadSignature = errors.New("cryptoutil: signature verification failed")
	ErrBadKeySize   = errors.New("cryptoutil: malformed public key")
)

// GenerateKeyPair creates a key pair from the system entropy source.
func GenerateKeyPair() (*KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: generating key: %w", err)
	}
	return &KeyPair{Public: pub, private: priv}, nil
}

// DeriveKeyPair deterministically derives a key pair from a domain label
// and an index. Simulations use this so that every run produces the same
// keys; it must never be used outside tests and simulations.
func DeriveKeyPair(domain string, index int) *KeyPair {
	seedSrc := HashConcat([]byte("keyseed"), []byte(domain), uint64Bytes(uint64(index)))
	var seed [ed25519.SeedSize]byte
	copy(seed[:], seedSrc[:])
	// A digest is 20 bytes; stretch to 32 with a second hash.
	more := HashConcat([]byte("keyseed2"), seedSrc[:])
	copy(seed[DigestSize:], more[:ed25519.SeedSize-DigestSize])
	priv := ed25519.NewKeyFromSeed(seed[:])
	return &KeyPair{Public: priv.Public().(ed25519.PublicKey), private: priv}
}

func uint64Bytes(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// Sign signs msg with the private key.
func (k *KeyPair) Sign(msg []byte) []byte {
	return ed25519.Sign(k.private, msg)
}

// Verify checks sig over msg against pub.
func Verify(pub PublicKey, msg, sig []byte) error {
	if len(pub) != ed25519.PublicKeySize {
		return ErrBadKeySize
	}
	if !ed25519.Verify(pub, msg, sig) {
		return ErrBadSignature
	}
	return nil
}

// KeyFingerprint returns a short stable identifier for a public key.
func KeyFingerprint(pub PublicKey) string {
	d := HashBytes(pub)
	return hex.EncodeToString(d[:6])
}
