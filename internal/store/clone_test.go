package store

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cryptoutil"
)

// shape renders a tree's layout: every node's keys, children bracketed.
// Two trees with equal shapes split and merged identically.
func shape(n *node) string {
	var b strings.Builder
	var walk func(n *node)
	walk = func(n *node) {
		b.WriteByte('[')
		for i, it := range n.items {
			if !n.leaf() {
				walk(n.children[i])
			}
			b.WriteString(it.key)
			b.WriteByte(' ')
		}
		if !n.leaf() {
			walk(n.children[len(n.children)-1])
		}
		b.WriteByte(']')
	}
	walk(n)
	return b.String()
}

// cloneCase is one store under FuzzStoreClone: the store, the map it must
// equal, and the ops that made it, from an empty store.
type cloneCase struct {
	s       *Store
	model   map[string][]byte
	history []Op
}

func (c *cloneCase) apply(op Op) {
	c.s.Apply(op)
	c.history = append(c.history, op)
	switch o := op.(type) {
	case Put:
		c.model[o.Key] = o.Value
	case Delete:
		delete(c.model, o.Key)
	case Append:
		c.model[o.Key] = append(slices.Clip(c.model[o.Key]), o.Data...)
	}
}

// checkClones drives random Put/Delete/Append/Clone interleavings, read
// out of data, on a store and on every copy cloned from it or from
// another copy. The stores start from 600 keys, three levels of tree, and
// runs of deletes and puts make writes split, borrow and merge nodes that
// clones still share. Each store must hold exactly its own map, pass the
// tree's invariants, and have the state digest and the tree shape of a
// fresh replay of its own ops: no write leaks into another store, and
// sharing changes no layout.
func checkClones(t testing.TB, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	key := func(i int) string { return fmt.Sprintf("k%03d", i%700) }
	base := &cloneCase{s: New(), model: map[string][]byte{}}
	for i := 0; i < 600; i++ {
		base.apply(Put{Key: key(i), Value: []byte(key(i))})
	}
	stores := []*cloneCase{base}
	for steps := 0; len(data) > 0 && steps < 64; steps++ {
		kind, c, k := next()%6, stores[next()%len(stores)], 3*next()
		switch kind {
		case 0:
			c.apply(Put{Key: key(k), Value: []byte{byte(k), byte(steps)}})
		case 1:
			c.apply(Delete{Key: key(k)})
		case 2:
			c.apply(Append{Key: key(k), Data: []byte{byte(steps)}})
		case 3:
			if len(stores) < 8 {
				stores = append(stores, &cloneCase{s: c.s.Clone(), model: maps.Clone(c.model), history: slices.Clip(c.history)})
			}
		case 4: // a run of deletes: underfull nodes borrow and merge
			for i := 0; i < 40; i++ {
				c.apply(Delete{Key: key(k + i)})
			}
		case 5: // a run of puts: full nodes split
			for i := 0; i < 40; i++ {
				c.apply(Put{Key: key(k + i), Value: []byte{byte(i)}})
			}
		}
	}
	for n, c := range stores {
		if err := c.s.tree.check(); err != nil {
			t.Fatalf("store %d: %v", n, err)
		}
		got := map[string][]byte{}
		c.s.Ascend("", "", func(k string, v []byte) bool {
			got[k] = v
			return true
		})
		if !maps.EqualFunc(got, c.model, func(a, b []byte) bool { return string(a) == string(b) }) {
			t.Fatalf("store %d holds %d keys, its map %d, or a value differs", n, len(got), len(c.model))
		}
		replay := New()
		for _, op := range c.history {
			replay.Apply(op)
		}
		if c.s.StateDigest() != replay.StateDigest() || c.s.Len() != replay.Len() || c.s.ContentBytes() != replay.ContentBytes() {
			t.Fatalf("store %d: digest, length or bytes differ from a fresh replay", n)
		}
		if shape(c.s.tree.root) != shape(replay.tree.root) {
			t.Fatalf("store %d: tree shape differs from a fresh replay", n)
		}
		if c.s.StateDigest() != recomputeDigest(c.s) {
			t.Fatalf("store %d: state digest differs from one recomputed over its entries", n)
		}
	}
}

// recomputeDigest is the state digest from scratch, the way StateDigest
// defines it: the XOR of every entry's hash over an Ascend, and of the
// version's. A replay shares the incremental code with the store it
// checks; this does not.
func recomputeDigest(s *Store) cryptoutil.Digest {
	var d cryptoutil.Digest
	xor := func(h cryptoutil.Digest) {
		for i := range d {
			d[i] ^= h[i]
		}
	}
	s.Ascend("", "", func(k string, v []byte) bool {
		xor(cryptoutil.HashConcat([]byte("entry"), []byte(k), v))
		return true
	})
	var v [8]byte
	binary.BigEndian.PutUint64(v[:], s.Version())
	xor(cryptoutil.HashConcat([]byte("version"), v[:]))
	return d
}

// TestStoreDigestMatchesRecompute runs seeded random Put/Append/Delete
// sequences on a store and on a Clone of it — overwrites, appends to absent
// and present keys, deletes of absent keys, empty values and data — and
// after every op the written store's digest must equal one recomputed from
// its entries: each write takes out exactly the value its descent
// replaced.
func TestStoreDigestMatchesRecompute(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		key := func() string { return fmt.Sprintf("k%03d", rng.Intn(150)) }
		value := func() []byte {
			b := make([]byte, rng.Intn(4)) // a quarter of them empty
			rng.Read(b)
			return b
		}
		base := New()
		for i := 0; i < 100; i++ {
			base.Apply(Put{Key: key(), Value: value()})
		}
		stores := []*Store{base, base.Clone()}
		for i := 0; i < 600; i++ {
			s := stores[rng.Intn(len(stores))]
			var op Op
			switch rng.Intn(4) {
			case 0, 1:
				op = Put{Key: key(), Value: value()}
			case 2:
				op = Append{Key: key(), Data: value()}
			case 3:
				op = Delete{Key: key()}
			}
			s.Apply(op)
			if s.StateDigest() != recomputeDigest(s) {
				t.Fatalf("seed %d, op %d (%v): state digest differs from one recomputed over the entries", seed, i, op)
			}
		}
	}
}

// Each step is three bytes: the kind (mod 6: put, delete, append, clone,
// 40 deletes, 40 puts), the store, and the key index / 3.
func FuzzStoreClone(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 0, 10, 1, 1, 20, 2, 0, 30})
	f.Add([]byte{3, 0, 0, 4, 0, 100, 4, 1, 150, 3, 1, 0, 5, 0, 0, 5, 1, 0})
	f.Add([]byte{3, 0, 0, 4, 0, 0, 4, 0, 14, 4, 0, 28, 4, 1, 60, 4, 1, 74})
	f.Fuzz(func(t *testing.T, data []byte) { checkClones(t, data) })
}

// TestStoreCloneRandom runs checkClones over random inputs, so the plain
// test suite covers what the fuzz target's three seeds do not reach.
func TestStoreCloneRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		data := make([]byte, 3*(4+rng.Intn(20)))
		rng.Read(data)
		checkClones(t, data)
	}
}

// TestCloneAllocs pins Clone at O(1): a 20 000-key store clones with no
// more allocations than an empty one.
func TestCloneAllocs(t *testing.T) {
	s := New()
	for i := 0; i < 20000; i++ {
		s.Apply(Put{Key: fmt.Sprintf("key/%05d", i), Value: []byte("value")})
	}
	if n := testing.AllocsPerRun(100, func() { s.Clone() }); n > 3 {
		t.Fatalf("Clone of a 20 000-key store allocates %v times, want <= 3", n)
	}
}

// TestCloneReadWhileSourceWrites reads clones on other goroutines while
// the source is written, as the auditor's views and a master's snapshot
// encoder are: under -race, it checks that no write touches a node a
// clone can reach.
func TestCloneReadWhileSourceWrites(t *testing.T) {
	s := New()
	for i := 0; i < 2000; i++ {
		s.Apply(Put{Key: fmt.Sprintf("k%04d", i), Value: []byte("v")})
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		c, want := s.Clone(), s.StateDigest()
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := DecodeSnapshot(c.EncodeSnapshot())
			if err != nil || d.StateDigest() != want {
				t.Error("a clone changed while its source was written")
			}
		}()
		for i := 0; i < 500; i++ {
			k := fmt.Sprintf("k%04d", (r*500+i*7)%2500)
			if i%3 == 0 {
				s.Apply(Delete{Key: k})
			} else {
				s.Apply(Put{Key: k, Value: []byte{byte(i)}})
			}
		}
	}
	wg.Wait()
}
