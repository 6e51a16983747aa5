package merkle

import (
	"fmt"
	"testing"
)

// A reused tree is rebuilt and every member proved into caller-carved
// step buffers; these guards pin the steady-state allocation budget of
// that path at zero so a regression (a forgotten scratch reuse, an append
// outside the backing) fails the suite rather than silently re-inflating
// the per-tree cost.

func TestRebuildProveVerifySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts only meaningful without -race")
	}
	const n = 64
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: fmt.Sprintf("key/%04d", i), Value: []byte("value")}
	}
	var tree Tree
	tree.Rebuild(entries) // warm the level scratch
	depth := tree.Depth()
	backing := make([]ProofStep, n*depth)
	proofs := make([]Proof, n)

	avg := testing.AllocsPerRun(100, func() {
		tree.Rebuild(entries)
		for i := range entries {
			off := i * depth
			p, err := tree.ProveInto(i, backing[off:off:off+depth])
			if err != nil {
				t.Fatal(err)
			}
			proofs[i] = p
		}
		root := tree.Root()
		for i := range entries {
			if err := Verify(root, entries[i], proofs[i]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg > 0 {
		t.Fatalf("rebuild+prove+verify of a %d-leaf batch allocates %.1f times per run, want 0", n, avg)
	}
}

func TestVerifyRejectsBeforeChainWalkAllocs(t *testing.T) {
	// The leaf-tag pre-filter's rejection path must also be alloc-free
	// apart from the error value itself (one alloc for fmt.Errorf);
	// guard it loosely so the fast-path rejection stays cheap.
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts only meaningful without -race")
	}
	entries := []Entry{{Key: "a", Value: []byte("1")}, {Key: "b", Value: []byte("2")}}
	tree := Build(entries)
	proof, err := tree.Prove(0)
	if err != nil {
		t.Fatal(err)
	}
	wrong := Entry{Key: "c", Value: []byte("3")}
	avg := testing.AllocsPerRun(100, func() {
		if Verify(tree.Root(), wrong, proof) == nil {
			t.Fatal("mismatched entry verified")
		}
	})
	if avg > 4 {
		t.Fatalf("pre-filter rejection allocates %.1f times per run, want <= 4", avg)
	}
}
