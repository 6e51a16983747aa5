package wire

import (
	"errors"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestKeyAfterRoundTrip front-codes a sorted run and reads it back; each
// key costs one shared-length byte plus its suffix.
func TestKeyAfterRoundTrip(t *testing.T) {
	keys := []string{"", "catalog/00001", "catalog/00002", "catalog/00010", "catalog/00010x", "docs/file001", "docs/file001"}
	w := NewWriter(64)
	prev := ""
	for _, k := range keys {
		w.KeyAfter(prev, k)
		prev = k
	}
	// 1+1, 1+1+13, 1+1+1, 1+1+2, 1+1+1, 1+1+12, 1+1 (shared lengths fit one byte)
	if got, want := w.Len(), 2+15+3+4+3+14+2; got != want {
		t.Errorf("run encodes to %d bytes, want %d", got, want)
	}
	r := NewReader(w.Bytes())
	prev = ""
	for i, want := range keys {
		got := r.KeyAfter(prev)
		if got != want {
			t.Fatalf("key %d = %q, want %q", i, got, want)
		}
		prev = got
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestKeyAfterRefusesNonCanonical: a shared length the previous key cannot
// supply, or one shorter than the prefix the two keys really share, fails
// the reader, so a key run has exactly one encoding.
func TestKeyAfterRefusesNonCanonical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		prev   string
		shared uint64
		suffix string
	}{
		{"shared above len(prev)", "ab", 3, "c"},
		{"shared on an empty prev", "", 1, ""},
		{"shared one short of the common prefix", "abc", 1, "bd"},
		{"nothing shared with a common first byte", "abc", 0, "ax"},
	} {
		w := NewWriter(16)
		w.Uvarint(tc.shared)
		w.String_(tc.suffix)
		r := NewReader(w.Bytes())
		if got := r.KeyAfter(tc.prev); got != "" || !errors.Is(r.Err(), ErrKeyShared) {
			t.Errorf("%s: read %q, err %v; want ErrKeyShared", tc.name, got, r.Err())
		}
	}
	// A key shorter than prev that is its prefix is canonical: nothing
	// follows the shared part to compare.
	w := NewWriter(16)
	w.KeyAfter("abc", "ab")
	if r := NewReader(w.Bytes()); r.KeyAfter("abc") != "ab" || r.Done() != nil {
		t.Error("a key that is a prefix of prev did not round-trip")
	}
}

func TestQuickKeyAfterRoundTrip(t *testing.T) {
	f := func(keys []string) bool {
		sort.Strings(keys)
		w := NewWriter(0)
		prev := ""
		for _, k := range keys {
			w.KeyAfter(prev, k)
			prev = k
		}
		r := NewReader(w.Bytes())
		prev = ""
		for _, k := range keys {
			if prev = r.KeyAfter(prev); prev != k {
				return false
			}
		}
		return r.Done() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestKeyAfterBudget: a shared prefix costs one varint however long it
// is. A key equal to the one before it is that string itself, so a run of
// repeats allocates nothing; keys that each add a byte to a long prefix
// copy it each time, and the copy past KeyShareRatio bytes per buffer byte
// fails the reader with ErrKeyBudget.
func TestKeyAfterBudget(t *testing.T) {
	long := strings.Repeat("p", 4<<10)
	w := NewWriter(0)
	w.KeyAfter("", long)
	for i := 0; i < 1000; i++ {
		w.KeyAfter(long, long)
	}
	r := NewReader(w.Bytes())
	first := r.KeyAfter("")
	for i := 0; i < 1000; i++ {
		if k := r.KeyAfter(first); unsafe.StringData(k) != unsafe.StringData(first) || len(k) != len(first) {
			t.Fatalf("repeat %d is a new string", i)
		}
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}

	w.Reset()
	w.KeyAfter("", long)
	keys := 1
	for ; w.Len() < 64<<10; keys++ {
		w.Uvarint(uint64(len(long) + keys - 1)) // all of the key before
		w.String_("x")
	}
	r = NewReader(w.Bytes())
	budget := KeyShareRatio * w.Len()
	copied, prev := 0, ""
	for i := 0; i < keys && r.Err() == nil; i++ {
		if k := r.KeyAfter(prev); r.Err() == nil {
			copied += len(prev)
			prev = k
		}
	}
	if !errors.Is(r.Err(), ErrKeyBudget) {
		t.Fatalf("%d growing keys over %d bytes: err %v, want ErrKeyBudget", keys, w.Len(), r.Err())
	}
	if copied > budget || copied+len(prev) <= budget {
		t.Errorf("refused after copying %d prefix bytes; the budget is %d", copied, budget)
	}
}
