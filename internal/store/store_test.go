package store

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

func TestPutGetDelete(t *testing.T) {
	s := New()
	if err := s.Apply(Put{Key: "a", Value: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get("a"); !ok || string(v) != "1" {
		t.Fatalf("get a = %q, %v", v, ok)
	}
	if s.Version() != 1 {
		t.Fatalf("version = %d", s.Version())
	}
	if err := s.Apply(Delete{Key: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("key survived delete")
	}
	if s.Version() != 2 {
		t.Fatalf("version = %d", s.Version())
	}
}

func TestAppendCreatesAndExtends(t *testing.T) {
	s := New()
	s.Apply(Append{Key: "log", Data: []byte("a")})
	s.Apply(Append{Key: "log", Data: []byte("bc")})
	if v, _ := s.Get("log"); string(v) != "abc" {
		t.Fatalf("log = %q", v)
	}
}

func TestApplyAtRejectsGaps(t *testing.T) {
	s := New()
	if err := s.ApplyAt(1, Put{Key: "x", Value: nil}); err != nil {
		t.Fatalf("contiguous apply failed: %v", err)
	}
	if err := s.ApplyAt(3, Put{Key: "y", Value: nil}); err == nil {
		t.Fatal("gap accepted")
	}
	if err := s.ApplyAt(1, Put{Key: "y", Value: nil}); err == nil {
		t.Fatal("replay accepted")
	}
}

func TestAscendRange(t *testing.T) {
	s := New()
	for _, k := range []string{"b", "d", "a", "c", "e"} {
		s.Apply(Put{Key: k, Value: []byte(k)})
	}
	var got []string
	s.Ascend("b", "e", func(k string, v []byte) bool {
		got = append(got, k)
		return true
	})
	want := []string{"b", "c", "d"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ascend = %v, want %v", got, want)
	}
}

func TestAscendEarlyStop(t *testing.T) {
	s := New()
	for i := 0; i < 100; i++ {
		s.Apply(Put{Key: fmt.Sprintf("k%03d", i), Value: nil})
	}
	n := 0
	s.Ascend("", "", func(k string, v []byte) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("visited %d, want 10", n)
	}
}

func TestReplicaDeterminism(t *testing.T) {
	ops := []Op{
		Put{Key: "x", Value: []byte("1")},
		Put{Key: "y", Value: []byte("2")},
		Append{Key: "x", Data: []byte("3")},
		Delete{Key: "y"},
		Put{Key: "z", Value: []byte("4")},
	}
	a, b := New(), New()
	for _, op := range ops {
		a.Apply(op)
		b.Apply(op)
	}
	if a.StateDigest() != b.StateDigest() {
		t.Fatal("replicas applying the same ops diverged")
	}
}

func TestDigestChangesOnWrite(t *testing.T) {
	s := New()
	d0 := s.StateDigest()
	s.Apply(Put{Key: "k", Value: []byte("v")})
	d1 := s.StateDigest()
	if d0 == d1 {
		t.Fatal("digest unchanged by write")
	}
	// Same content at different version must differ (version is digested).
	c := s.Clone()
	c.Apply(Put{Key: "k", Value: []byte("v")}) // same state, higher version
	if c.StateDigest() == d1 {
		t.Fatal("version not reflected in digest")
	}
}

func TestCloneIndependent(t *testing.T) {
	s := New()
	s.Apply(Put{Key: "a", Value: []byte("1")})
	c := s.Clone()
	s.Apply(Put{Key: "b", Value: []byte("2")})
	if _, ok := c.Get("b"); ok {
		t.Fatal("clone saw later write")
	}
	if c.Version() != 1 || s.Version() != 2 {
		t.Fatalf("versions = %d, %d", c.Version(), s.Version())
	}
}

func TestOpCodecRoundTrip(t *testing.T) {
	ops := []Op{
		Put{Key: "k", Value: []byte("v")},
		Put{Key: "", Value: nil},
		Delete{Key: "gone"},
		Append{Key: "log", Data: []byte{0, 1, 2}},
	}
	for _, op := range ops {
		b := EncodeOp(op)
		got, err := DecodeOp(b)
		if err != nil {
			t.Fatalf("%v: decode: %v", op, err)
		}
		if EncodeOp(got) == nil || !bytes.Equal(EncodeOp(got), b) {
			t.Fatalf("%v: reencoding differs", op)
		}
	}
}

func TestDecodeOpRejectsJunk(t *testing.T) {
	if _, err := DecodeOp([]byte{99, 1, 2}); err == nil {
		t.Fatal("junk op decoded")
	}
	if _, err := DecodeOp(nil); err == nil {
		t.Fatal("empty op decoded")
	}
	// Trailing garbage after a valid op.
	b := append(EncodeOp(Delete{Key: "k"}), 0xff)
	if _, err := DecodeOp(b); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestNumericValue(t *testing.T) {
	cases := map[string]int64{
		"42":   42,
		"-7":   -7,
		"+7":   7,
		"007":  7,
		"-0":   0,
		"":     0,
		"abc":  0,
		"12.5": 0,
		// Everything ParseInt(…, 10, 64) rejects is zero.
		"+":      0,
		"-":      0,
		"--1":    0,
		"+-1":    0,
		"1-":     0,
		" 1":     0,
		"1 ":     0,
		"1_000":  0,
		"0x10":   0,
		"1e3":    0,
		"１２":     0, // full-width digits
		"12\x00": 0,
		// The int64 edges, and one past each.
		"9223372036854775807":                      math.MaxInt64,
		"+9223372036854775807":                     math.MaxInt64,
		"9223372036854775808":                      0,
		"-9223372036854775808":                     math.MinInt64,
		"-9223372036854775809":                     0,
		"18446744073709551616":                     0, // 2^64: wraps a uint64 accumulator
		"18446744073709551658":                     0, // 2^64 + 42
		"99999999999999999999999":                  0,
		"0000000000000000000000000000000000000012": 12,
	}
	for in, want := range cases {
		if got := NumericValue([]byte(in)); got != want {
			t.Errorf("NumericValue(%q) = %d, want %d", in, got, want)
		}
	}
}

// FuzzNumericValue holds NumericValue to the strconv.ParseInt it replaced.
func FuzzNumericValue(f *testing.F) {
	for _, s := range []string{"", "0", "42", "-7", "+7", "1_0", " 1", "-", "9223372036854775807",
		"9223372036854775808", "-9223372036854775808", "-9223372036854775809", "18446744073709551658"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, v []byte) {
		want, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			want = 0
		}
		if got := NumericValue(v); got != want {
			t.Fatalf("NumericValue(%q) = %d, strconv says %d (%v)", v, got, want, err)
		}
	})
}

func TestContentBytesTracksSize(t *testing.T) {
	s := New()
	s.Apply(Put{Key: "ab", Value: []byte("xyz")}) // 2+3
	if s.ContentBytes() != 5 {
		t.Fatalf("bytes = %d, want 5", s.ContentBytes())
	}
	s.Apply(Put{Key: "ab", Value: []byte("x")}) // replace: 2+1
	if s.ContentBytes() != 3 {
		t.Fatalf("bytes = %d, want 3", s.ContentBytes())
	}
	s.Apply(Delete{Key: "ab"})
	if s.ContentBytes() != 0 {
		t.Fatalf("bytes = %d, want 0", s.ContentBytes())
	}
}

// --- B-tree stress tests -------------------------------------------------

func TestBtreeLargeInsertDeleteInvariants(t *testing.T) {
	tr := newBtree()
	rng := rand.New(rand.NewSource(42))
	ref := map[string]string{}
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("key%05d", rng.Intn(2000))
		switch rng.Intn(3) {
		case 0, 1:
			v := fmt.Sprintf("val%d", i)
			tr.put(k, []byte(v))
			ref[k] = v
		case 2:
			tr.delete(k)
			delete(ref, k)
		}
		if i%500 == 0 {
			if err := tr.check(); err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
		}
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
	if tr.size != len(ref) {
		t.Fatalf("size = %d, want %d", tr.size, len(ref))
	}
	for k, v := range ref {
		got, ok := tr.get(k)
		if !ok || string(got) != v {
			t.Fatalf("get(%q) = %q, %v; want %q", k, got, ok, v)
		}
	}
	// Iteration must be sorted and complete.
	var keys []string
	tr.ascend("", "", func(k string, v []byte) bool {
		keys = append(keys, k)
		return true
	})
	if !sort.StringsAreSorted(keys) {
		t.Fatal("iteration not sorted")
	}
	if len(keys) != len(ref) {
		t.Fatalf("iterated %d keys, want %d", len(keys), len(ref))
	}
}

func TestBtreeDeleteAll(t *testing.T) {
	tr := newBtree()
	const n = 1000
	for i := 0; i < n; i++ {
		tr.put(fmt.Sprintf("%04d", i), []byte("v"))
	}
	for i := 0; i < n; i++ {
		if ok, _ := tr.delete(fmt.Sprintf("%04d", i)); !ok {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.size != 0 || tr.bytes != 0 {
		t.Fatalf("size=%d bytes=%d after deleting all", tr.size, tr.bytes)
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStoreMatchesMap(t *testing.T) {
	type step struct {
		Op  uint8
		Key uint8
		Val []byte
	}
	f := func(steps []step) bool {
		s := New()
		ref := map[string][]byte{}
		for _, st := range steps {
			k := fmt.Sprintf("k%d", st.Key%32)
			switch st.Op % 3 {
			case 0:
				s.Apply(Put{Key: k, Value: st.Val})
				ref[k] = st.Val
			case 1:
				s.Apply(Delete{Key: k})
				delete(ref, k)
			case 2:
				s.Apply(Append{Key: k, Data: st.Val})
				ref[k] = append(append([]byte(nil), ref[k]...), st.Val...)
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := s.Get(k)
			if !ok || !bytes.Equal(got, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSameOpsSameDigest(t *testing.T) {
	f := func(keys []uint8, vals [][]byte) bool {
		a, b := New(), New()
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			op := Put{Key: fmt.Sprintf("k%d", keys[i]%16), Value: vals[i]}
			a.Apply(op)
			b.Apply(op)
		}
		return a.StateDigest() == b.StateDigest()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
