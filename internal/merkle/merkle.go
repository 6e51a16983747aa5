// Package merkle implements the hash-tree authentication used by the
// state-signing baseline (§5 of the paper, citing Merkle's certified
// digital signature). The content owner signs only the root; clients
// verify any single entry fetched from untrusted storage with a
// logarithmic membership proof.
//
// The tree is built over the ordered (key, value) entries of a content
// snapshot. Leaves are hashed with a domain-separated prefix distinct
// from interior nodes, preventing second-preimage splicing attacks.
//
// Committed batches are not authenticated here: a batch stamp signs one
// hash of the batch's bytes (core.BatchDigest). The API keeps what the
// real-clock benchmark's ledger times: Rebuild reconstructs a tree into
// its existing level scratch, ProveInto appends proof steps to a
// caller-carved backing slice, and each proof carries a 1-byte LeafTag
// (the leaf digest's first byte) that lets Verify reject a mismatched
// (entry, proof) pair after one leaf hash, before walking the chain.
// The alloc_test.go guards pin rebuild+prove+verify at zero allocations.
package merkle

import (
	"errors"
	"fmt"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// Errors returned by proof verification.
var (
	ErrProofInvalid = errors.New("merkle: proof does not verify against root")
	ErrIndexRange   = errors.New("merkle: leaf index out of range")
)

// Entry is one authenticated leaf.
type Entry struct {
	Key   string
	Value []byte
}

func leafHash(e Entry) cryptoutil.Digest {
	return cryptoutil.HashConcat([]byte{0x00}, []byte(e.Key), e.Value)
}

func nodeHash(l, r cryptoutil.Digest) cryptoutil.Digest {
	return cryptoutil.HashConcat([]byte{0x01}, l[:], r[:])
}

// Tree is a Merkle tree over an ordered list of entries. A zero Tree is
// ready for Rebuild; the same Tree value can be rebuilt over successive
// entry lists, reusing its internal level scratch so steady-state
// rebuilds allocate nothing.
type Tree struct {
	entries []Entry
	levels  [][]cryptoutil.Digest // levels[0] = leaf hashes, last = [root]
	scratch [][]cryptoutil.Digest // reusable per-level backing; levels = scratch[:n]
}

// Build constructs a tree over the entries in the given order. The caller
// is responsible for supplying a canonical (sorted) order; replicas built
// from the same snapshot then produce the same root. An empty entry list
// yields a defined, constant root. Build copies entries; hot paths that
// control the entry slice's lifetime should reuse a Tree via Rebuild
// instead.
func Build(entries []Entry) *Tree {
	t := &Tree{}
	t.Rebuild(append([]Entry(nil), entries...))
	return t
}

// scratchLevel returns level i sized to n digests, growing the scratch
// only when a level is new or too small. Grown levels persist across
// rebuilds.
func (t *Tree) scratchLevel(i, n int) []cryptoutil.Digest {
	for len(t.scratch) <= i {
		t.scratch = append(t.scratch, nil)
	}
	if cap(t.scratch[i]) < n {
		t.scratch[i] = make([]cryptoutil.Digest, n)
	}
	t.scratch[i] = t.scratch[i][:n]
	return t.scratch[i]
}

// Rebuild reconstructs the tree in place over entries, reusing level
// scratch from previous builds. The tree aliases entries (no copy): the
// caller must not mutate the slice while the tree is in use. Returns the
// tree for chaining.
func (t *Tree) Rebuild(entries []Entry) *Tree {
	t.entries = entries
	used := 1
	if len(entries) == 0 {
		leaves := t.scratchLevel(0, 1)
		leaves[0] = cryptoutil.HashBytes([]byte("merkle:empty"))
	} else {
		leaves := t.scratchLevel(0, len(entries))
		for i, e := range entries {
			leaves[i] = leafHash(e)
		}
		for n := len(entries); n > 1; {
			prev := t.scratch[used-1][:n]
			m := (n + 1) / 2
			next := t.scratchLevel(used, m)
			for i := 0; i < n; i += 2 {
				if i+1 < n {
					next[i/2] = nodeHash(prev[i], prev[i+1])
				} else {
					// Odd node is promoted unchanged (Bitcoin-style duplication
					// is avoided: promotion cannot be exploited because leaf
					// and node hashes are domain separated).
					next[i/2] = prev[i]
				}
			}
			n = m
			used++
		}
	}
	t.levels = t.scratch[:used]
	return t
}

// Root returns the tree root that the content owner signs.
func (t *Tree) Root() cryptoutil.Digest {
	top := t.levels[len(t.levels)-1]
	return top[0]
}

// Len returns the number of leaves.
func (t *Tree) Len() int { return len(t.entries) }

// Depth returns the number of levels above the leaves — the maximum
// number of steps any membership proof can have. Callers sizing proof
// scratch buffers use it.
func (t *Tree) Depth() int { return len(t.levels) - 1 }

// Entry returns leaf i.
func (t *Tree) Entry(i int) (Entry, error) {
	if i < 0 || i >= len(t.entries) {
		return Entry{}, ErrIndexRange
	}
	return t.entries[i], nil
}

// Find returns the index of the entry with the given key, or -1.
func (t *Tree) Find(key string) int {
	lo, hi := 0, len(t.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.entries[mid].Key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.entries) && t.entries[lo].Key == key {
		return lo
	}
	return -1
}

// ProofStep is one sibling hash on the path from a leaf to the root.
type ProofStep struct {
	Sibling cryptoutil.Digest
	Left    bool // sibling is on the left
}

// Proof is a membership proof for one leaf.
//
// LeafTag is the first byte of the proven leaf's hash — a 1-byte
// pre-filter in the style of wallet view tags. Verify recomputes the
// leaf hash anyway, so checking the tag first rejects a mismatched
// (entry, proof) pair for one byte-compare instead of a full
// depth-many hash-chain recomputation, while a forged tag changes
// nothing: the chain walk still has to reach the signed root.
type Proof struct {
	Index   int
	LeafTag byte
	Steps   []ProofStep
}

// Prove returns the membership proof for leaf i.
func (t *Tree) Prove(i int) (Proof, error) {
	return t.ProveInto(i, nil)
}

// ProveInto is Prove with a caller-provided step buffer: steps is
// truncated and appended to, so a caller proving every leaf of a batch
// can carve per-proof buffers out of one backing array and allocate
// nothing. The returned proof's Steps alias the buffer.
func (t *Tree) ProveInto(i int, steps []ProofStep) (Proof, error) {
	if i < 0 || i >= len(t.entries) {
		return Proof{}, ErrIndexRange
	}
	p := Proof{Index: i, LeafTag: t.levels[0][i][0], Steps: steps[:0]}
	idx := i
	for level := 0; level < len(t.levels)-1; level++ {
		nodes := t.levels[level]
		if idx%2 == 0 {
			if idx+1 < len(nodes) {
				p.Steps = append(p.Steps, ProofStep{Sibling: nodes[idx+1], Left: false})
			}
			// else: odd promotion, no sibling at this level
		} else {
			p.Steps = append(p.Steps, ProofStep{Sibling: nodes[idx-1], Left: true})
		}
		idx /= 2
	}
	return p, nil
}

// maxProofSteps bounds a decoded proof's path length; 64 covers any tree
// with fewer than 2^64 leaves, so a longer path marks a corrupt frame.
const maxProofSteps = 64

// Encode appends the proof to w: the state-signing baseline's storage host
// ships one with every value it serves.
func (p Proof) Encode(w *wire.Writer) {
	w.Uvarint(uint64(p.Index))
	w.Byte(p.LeafTag)
	w.Uvarint(uint64(len(p.Steps)))
	for _, s := range p.Steps {
		w.Bytes_(s.Sibling[:])
		w.Bool(s.Left)
	}
}

// DecodeProof reads a proof written by Encode, refusing a step count above
// maxProofSteps before it reads a step: the count comes from an untrusted
// host. Sibling digests are read through zero-copy views and copied into
// the proof's fixed-size digest fields, so decoding allocates only the
// step slice.
func DecodeProof(r *wire.Reader) (Proof, error) {
	var p Proof
	p.Index = int(r.Uvarint())
	p.LeafTag = r.Byte()
	n := r.Uvarint()
	if r.Err() == nil && n > maxProofSteps {
		return p, fmt.Errorf("merkle: proof path of %d steps is implausible", n)
	}
	if r.Err() == nil && n > 0 {
		p.Steps = make([]ProofStep, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		var s ProofStep
		d := r.BytesView()
		if len(d) == cryptoutil.DigestSize {
			copy(s.Sibling[:], d)
		} else if r.Err() == nil {
			return p, fmt.Errorf("merkle: bad sibling digest length %d", len(d))
		}
		s.Left = r.Bool()
		if r.Err() != nil {
			break
		}
		p.Steps = append(p.Steps, s)
	}
	return p, r.Err()
}

// Verify checks that entry is a member of the tree with the given root.
// The proof's LeafTag is checked first: a mismatched (entry, proof) pair
// is rejected after one leaf hash, before any of the chain is recomputed.
func Verify(root cryptoutil.Digest, entry Entry, proof Proof) error {
	h := leafHash(entry)
	if proof.LeafTag != h[0] {
		return fmt.Errorf("%w (index %d: leaf tag mismatch)", ErrProofInvalid, proof.Index)
	}
	for _, s := range proof.Steps {
		if s.Left {
			h = nodeHash(s.Sibling, h)
		} else {
			h = nodeHash(h, s.Sibling)
		}
	}
	if !h.Equal(root) {
		return fmt.Errorf("%w (index %d)", ErrProofInvalid, proof.Index)
	}
	return nil
}
