package store

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// depth counts the levels of the tree.
func (t *btree) depth() int {
	d := 1
	for n := t.root; !n.leaf(); n = n.children[0] {
		d++
	}
	return d
}

// TestAscendMatchesSortedSlice holds ascend to the obvious implementation
// over a sorted slice: on trees of three levels and more, shaped by random
// inserts and deletes, for bounds that are present keys, absent keys,
// empty, equal and inverted, with fn stopping the walk after any number of
// keys. Keys are emitted in order, none outside [from, to), none after fn
// returned false, and ascend returns false exactly when fn did.
func TestAscendMatchesSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 20; round++ {
		tr := newBtree()
		ref := map[string]bool{}
		// Even suffixes only, so every odd one is an absent key that falls
		// between two present ones.
		n := 4000 + rng.Intn(4000)
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("k%05d", 2*rng.Intn(8000))
			tr.put(k, []byte(k))
			ref[k] = true
		}
		for i := 0; i < n/4; i++ {
			k := fmt.Sprintf("k%05d", 2*rng.Intn(8000))
			tr.delete(k)
			delete(ref, k)
		}
		if err := tr.check(); err != nil {
			t.Fatal(err)
		}
		if tr.depth() < 3 {
			t.Fatalf("round %d: tree of %d keys has %d levels, want >= 3", round, tr.size, tr.depth())
		}
		sorted := make([]string, 0, len(ref))
		for k := range ref {
			sorted = append(sorted, k)
		}
		slices.Sort(sorted)

		bound := func() string {
			switch rng.Intn(8) {
			case 0:
				return "" // unbounded
			case 1:
				return "a" // below every key
			case 2:
				return "z" // above every key
			case 3:
				return sorted[rng.Intn(len(sorted))] // present
			default:
				return fmt.Sprintf("k%05d", rng.Intn(16002)) // present or absent
			}
		}
		for trial := 0; trial < 400; trial++ {
			from, to := bound(), bound()
			if trial%16 == 0 {
				to = from // empty range, or everything when both are ""
			}
			var want []string
			for _, k := range sorted {
				if k >= from && (to == "" || k < to) {
					want = append(want, k)
				}
			}
			stopAfter := -1 // never
			if rng.Intn(2) == 0 {
				stopAfter = 1 + rng.Intn(len(want)+2)
			}
			wantDone := true
			if stopAfter > 0 && stopAfter <= len(want) {
				want, wantDone = want[:stopAfter], false
			}
			var got []string
			done := tr.ascend(from, to, func(k string, v []byte) bool {
				if string(v) != k {
					t.Fatalf("ascend(%q, %q): key %q came with value %q", from, to, k, v)
				}
				got = append(got, k)
				return len(got) != stopAfter
			})
			if !slices.Equal(got, want) || done != wantDone {
				t.Fatalf("round %d: ascend(%q, %q) stopping after %d: %d keys, done %v; want %d keys, done %v\n got %v\nwant %v",
					round, from, to, stopAfter, len(got), done, len(want), wantDone, got, want)
			}
		}
	}
}

// BenchmarkAscend20k walks the benchmark content's 20 000 catalog keys
// under a prefix's bounds, as Count and Sum do on a cold scan.
func BenchmarkAscend20k(b *testing.B) {
	s := New()
	for i := 0; i < 20000; i++ {
		s.Apply(Put{Key: fmt.Sprintf("catalog/%05d", i), Value: []byte("100")})
	}
	for i := 0; i < 20; i++ {
		s.Apply(Put{Key: fmt.Sprintf("docs/file%03d", i), Value: []byte("text")})
	}
	keys := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keys = 0
		s.Ascend("catalog/", "catalog0", func(string, []byte) bool {
			keys++
			return true
		})
	}
	if keys != 20000 {
		b.Fatalf("walked %d keys, want 20000", keys)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/20000, "ns/key")
}
