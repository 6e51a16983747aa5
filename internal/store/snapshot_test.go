package store

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/wire"
)

func populated(n int) *Store {
	s := New()
	for i := 0; i < n; i++ {
		s.Apply(Put{Key: fmt.Sprintf("k%04d", i), Value: []byte(fmt.Sprintf("v%d", i))})
	}
	return s
}

func TestSnapshotRoundTrip(t *testing.T) {
	src := populated(100)
	got, err := DecodeSnapshot(src.EncodeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got.Version() != src.Version() {
		t.Fatalf("version = %d, want %d", got.Version(), src.Version())
	}
	if got.Len() != src.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), src.Len())
	}
	if got.StateDigest() != src.StateDigest() {
		t.Fatal("digest mismatch after snapshot round trip")
	}
	// The restored replica keeps working.
	if err := got.ApplyAt(got.Version()+1, Put{Key: "new", Value: []byte("x")}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	got, err := DecodeSnapshot(New().EncodeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Version() != 0 {
		t.Fatalf("len=%d version=%d", got.Len(), got.Version())
	}
}

func TestSnapshotRejectsBadMagic(t *testing.T) {
	w := wire.NewWriter(16)
	w.String_("not-a-snapshot")
	if _, err := DecodeSnapshot(w.Bytes()); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestSnapshotRejectsTruncation(t *testing.T) {
	b := populated(20).EncodeSnapshot()
	for _, cut := range []int{1, len(b) / 2, len(b) - 1} {
		if _, err := DecodeSnapshot(b[:cut]); err == nil {
			t.Fatalf("truncated snapshot (at %d) accepted", cut)
		}
	}
}

func TestSnapshotRejectsUnsortedKeys(t *testing.T) {
	for _, second := range []string{"a", "b"} { // below the first key; equal to it
		w := wire.NewWriter(64)
		w.String_(snapshotMagic)
		w.Uvarint(2)
		w.Uvarint(2)
		w.KeyAfter("", "b")
		w.Bytes_([]byte("1"))
		w.KeyAfter("b", second)
		w.Bytes_([]byte("2"))
		if _, err := DecodeSnapshot(w.Bytes()); err == nil {
			t.Fatalf("snapshot with %q after \"b\" accepted", second)
		}
	}
}

// TestSnapshotBoundsKeyBytes: a snapshot of one long key and then keys
// that each share all of the key before and add a byte to it costs a few
// bytes a key, yet each rebuilt key copies the whole prefix. ReadSnapshot
// refuses it once the copies pass wire.KeyShareRatio bytes per snapshot
// byte, instead of allocating the square of its size.
func TestSnapshotBoundsKeyBytes(t *testing.T) {
	body := wire.NewWriter(64 << 10)
	body.KeyAfter("", strings.Repeat("p", 4<<10))
	body.Bytes_(nil)
	n, size := 1, 4<<10
	for ; body.Len() < 64<<10; n, size = n+1, size+1 {
		body.Uvarint(uint64(size))
		body.String_("x")
		body.Bytes_(nil)
	}
	w := wire.NewWriter(body.Len() + 16)
	w.String_(snapshotMagic)
	w.Uvarint(1)
	w.Uvarint(uint64(n))
	b := append(w.Bytes(), body.Bytes()...)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := DecodeSnapshot(b)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, wire.ErrKeyBudget) {
		t.Errorf("%d growing keys: err %v, want wire.ErrKeyBudget", n, err)
	}
	if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(2*wire.KeyShareRatio*len(b)); grew > bound {
		t.Errorf("a %d-byte snapshot allocated %d, bound %d", len(b), grew, bound)
	}
}

// encodeV1 writes st in the snap.v1 layout, every key whole.
func encodeV1(st *Store) []byte {
	w := wire.NewWriter(64)
	w.String_("snap.v1")
	w.Uvarint(st.Version())
	w.Uvarint(uint64(st.Len()))
	st.Ascend("", "", func(k string, v []byte) bool {
		w.String_(k)
		w.Bytes_(v)
		return true
	})
	return w.Bytes()
}

// TestSnapshotRefusesV1: the snap.v1 layout has no reader; a snapshot in
// it is refused by its magic, with ErrSnapshotMagic.
func TestSnapshotRefusesV1(t *testing.T) {
	for _, st := range []*Store{New(), populated(20)} {
		if _, err := DecodeSnapshot(encodeV1(st)); !errors.Is(err, ErrSnapshotMagic) {
			t.Fatalf("snap.v1 snapshot of %d keys: err %v, want ErrSnapshotMagic", st.Len(), err)
		}
	}
}

// TestSnapshotFrontCodesKeys: each key travels as the length it shares
// with the key before it plus the rest, so keys that differ in their last
// digits cost a few bytes each.
func TestSnapshotFrontCodesKeys(t *testing.T) {
	st := populated(3) // k0000 v0, k0001 v1, k0002 v2
	// magic, version, count; then shared ‖ suffix ‖ value per key
	want := (1 + 7) + 1 + 1 + (1 + 1 + 5 + 1 + 2) + 2*(1+1+1+1+2)
	if got := len(st.EncodeSnapshot()); got != want {
		t.Fatalf("snapshot of 3 keys is %d bytes, want %d", got, want)
	}
}

func TestSnapshotRejectsTrailingBytes(t *testing.T) {
	b := append(populated(3).EncodeSnapshot(), 0x00)
	if _, err := DecodeSnapshot(b); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestQuickSnapshotPreservesDigest(t *testing.T) {
	f := func(keys []uint8, vals [][]byte) bool {
		src := New()
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			src.Apply(Put{Key: fmt.Sprintf("k%03d", keys[i]), Value: vals[i]})
		}
		got, err := DecodeSnapshot(src.EncodeSnapshot())
		if err != nil {
			return false
		}
		return got.StateDigest() == src.StateDigest()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// paddedVarint reports whether b holds a byte with the continuation bit
// followed by a zero byte: every uvarint written past its shortest form
// ends that way, so a b without the pair has none.
func paddedVarint(b []byte) bool {
	for i := 1; i < len(b); i++ {
		if b[i] == 0 && b[i-1] >= 0x80 {
			return true
		}
	}
	return false
}

// snapshotOf builds a snap.v2 snapshot by hand: version, count, then the
// key ‖ value entries as given.
func snapshotOf(version, n uint64, entries ...func(w *wire.Writer)) []byte {
	w := wire.NewWriter(64)
	w.String_(snapshotMagic)
	w.Uvarint(version)
	w.Uvarint(n)
	for _, e := range entries {
		e(w)
	}
	return w.Bytes()
}

// entry writes one front-coded key (shared ‖ suffix) and its value.
func entry(shared uint64, suffix, value string) func(w *wire.Writer) {
	return func(w *wire.Writer) {
		w.Uvarint(shared)
		w.String_(suffix)
		w.String_(value)
	}
}

// FuzzDecodeSnapshot feeds arbitrary bytes to DecodeSnapshot (a snapshot
// is read off the wire and from disk): it never panics;
// whatever decodes re-encodes to a snapshot of the same state digest that
// re-encodes to itself; and one with no varint padded past its shortest
// form comes back byte for byte, so a state has one snapshot. A shared
// length above the previous key's, a key not above the one before it,
// trailing bytes and the snap.v1 layout are each refused.
func FuzzDecodeSnapshot(f *testing.F) {
	refused := map[string][]byte{
		"shared above len(prev)":         snapshotOf(2, 2, entry(0, "a", "1"), entry(2, "b", "2")),
		"key below the one before":       snapshotOf(2, 2, entry(0, "b", "1"), entry(0, "a", "2")),
		"key equal to the one before":    snapshotOf(2, 2, entry(0, "b", "1"), entry(1, "", "2")),
		"shared shorter than the prefix": snapshotOf(2, 2, entry(0, "ab", "1"), entry(0, "ac", "2")),
		"trailing byte":                  append(populated(3).EncodeSnapshot(), 0),
		"snap.v1":                        encodeV1(populated(3)),
		"count one above the entries":    snapshotOf(1, 2, entry(0, "a", "1")),
		"first key sharing with no key":  snapshotOf(1, 1, entry(1, "a", "1")),
	}
	for name, b := range refused {
		if _, err := DecodeSnapshot(b); err == nil {
			f.Fatalf("%s: snapshot accepted", name)
		}
		f.Add(b)
	}
	f.Add(New().EncodeSnapshot())
	f.Add(populated(20).EncodeSnapshot())
	f.Add(snapshotOf(0, 2, entry(0, "", ""), entry(0, "a", ""))) // the empty key first
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		enc := st.EncodeSnapshot()
		again, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if again.StateDigest() != st.StateDigest() || again.Len() != st.Len() {
			t.Fatal("round trip changed the state")
		}
		if !bytes.Equal(again.EncodeSnapshot(), enc) {
			t.Fatal("re-encoding is not a fixed point")
		}
		if !paddedVarint(data) && !bytes.Equal(enc, data) {
			t.Fatalf("%x decodes but re-encodes to %x", data, enc)
		}
	})
}
