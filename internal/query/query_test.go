package query

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/store"
	"repro/internal/wire"
)

func fixture() *store.Store {
	s := store.New()
	puts := []store.Put{
		{Key: "catalog/001", Value: []byte("100")},
		{Key: "catalog/002", Value: []byte("250")},
		{Key: "catalog/003", Value: []byte("not-a-number")},
		{Key: "docs/readme", Value: []byte("hello world\nsecond line\nhello again")},
		{Key: "docs/todo", Value: []byte("fix bug\nhello fix")},
		{Key: "zzz", Value: []byte("9")},
	}
	for _, p := range puts {
		s.Apply(p)
	}
	return s
}

func TestGetHitAndMiss(t *testing.T) {
	s := fixture()
	res, err := Get{Key: "catalog/001"}.Execute(s)
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := GetResult(res.Payload)
	if err != nil || !ok || string(v) != "100" {
		t.Fatalf("got %q, %v, %v", v, ok, err)
	}
	res, _ = Get{Key: "nope"}.Execute(s)
	_, ok, err = GetResult(res.Payload)
	if err != nil || ok {
		t.Fatalf("miss: ok=%v err=%v", ok, err)
	}
}

func TestRangeOrderedAndLimited(t *testing.T) {
	s := fixture()
	res, err := Range{From: "catalog/", To: "catalog0", Limit: 2}.Execute(s)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := RangeResult(res.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 || pairs[0].Key != "catalog/001" || pairs[1].Key != "catalog/002" {
		t.Fatalf("pairs = %+v", pairs)
	}
}

func TestPrefixList(t *testing.T) {
	s := fixture()
	res, _ := Prefix{P: "docs/"}.Execute(s)
	keys, err := PrefixResult(res.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "docs/readme" || keys[1] != "docs/todo" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestCountAggregation(t *testing.T) {
	s := fixture()
	res, _ := Count{P: "catalog/"}.Execute(s)
	n, err := CountResult(res.Payload)
	if err != nil || n != 3 {
		t.Fatalf("count = %d, err %v", n, err)
	}
	res, _ = Count{P: ""}.Execute(s)
	n, _ = CountResult(res.Payload)
	if n != 6 {
		t.Fatalf("total count = %d", n)
	}
}

func TestSumSkipsNonNumeric(t *testing.T) {
	s := fixture()
	res, _ := Sum{P: "catalog/"}.Execute(s)
	total, err := SumResult(res.Payload)
	if err != nil || total != 350 {
		t.Fatalf("sum = %d, err %v", total, err)
	}
}

func TestGrepFindsLines(t *testing.T) {
	s := fixture()
	res, err := Grep{Pattern: "hello", PathPrefix: "docs/"}.Execute(s)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := GrepResult(res.Payload)
	if err != nil {
		t.Fatal(err)
	}
	want := []Match{
		{Path: "docs/readme", Line: 1, Text: "hello world"},
		{Path: "docs/readme", Line: 3, Text: "hello again"},
		{Path: "docs/todo", Line: 2, Text: "hello fix"},
	}
	if len(ms) != len(want) {
		t.Fatalf("matches = %+v", ms)
	}
	for i := range want {
		if ms[i] != want[i] {
			t.Fatalf("match[%d] = %+v, want %+v", i, ms[i], want[i])
		}
	}
}

func TestGrepBadPattern(t *testing.T) {
	s := fixture()
	if _, err := (Grep{Pattern: "([", PathPrefix: ""}).Execute(s); err == nil {
		t.Fatal("bad pattern accepted")
	}
}

func TestCodecRoundTripAll(t *testing.T) {
	qs := []Query{
		Get{Key: "k"},
		Range{From: "a", To: "b", Limit: 10},
		Range{},
		Prefix{P: "p", Limit: -1},
		Count{P: ""},
		Sum{P: "x"},
		Grep{Pattern: "re.*", PathPrefix: "/etc"},
	}
	for _, q := range qs {
		b := Encode(q)
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		if !bytes.Equal(Encode(got), b) {
			t.Fatalf("%v: reencode differs", q)
		}
		if got.String() == "" {
			t.Fatalf("%v: empty String()", q)
		}
	}
}

func TestDecodeRejectsJunk(t *testing.T) {
	if _, err := Decode([]byte{0xee}); err == nil {
		t.Fatal("junk decoded")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty decoded")
	}
	b := append(Encode(Get{Key: "k"}), 1)
	if _, err := Decode(b); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestResultDecodersBoundTheirCount: a payload comes from an untrusted
// slave, and its element count must not size a slice before it is checked
// against the bytes that follow (this used to die in makeslice).
func TestResultDecodersBoundTheirCount(t *testing.T) {
	w := wire.NewWriter(0)
	w.Uvarint(1 << 62)
	if _, err := RangeResult(w.Bytes()); err == nil {
		t.Fatal("range result with an impossible count accepted")
	}
	if _, err := GrepResult(w.Bytes()); err == nil {
		t.Fatal("grep result with an impossible count accepted")
	}
}

func TestDeterministicExecution(t *testing.T) {
	a, b := fixture(), fixture()
	qs := []Query{
		Get{Key: "zzz"},
		Range{From: "", To: "", Limit: 0},
		Prefix{P: "catalog/"},
		Count{P: "docs/"},
		Sum{P: ""},
		Grep{Pattern: "fix", PathPrefix: ""},
	}
	for _, q := range qs {
		ra, err := q.Execute(a)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := q.Execute(b)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Digest() != rb.Digest() {
			t.Fatalf("%v: same state, different digests", q)
		}
	}
}

func TestDigestChangesWithState(t *testing.T) {
	a := fixture()
	q := Sum{P: "catalog/"}
	r1, _ := q.Execute(a)
	a.Apply(store.Put{Key: "catalog/004", Value: []byte("1")})
	r2, _ := q.Execute(a)
	if r1.Digest() == r2.Digest() {
		t.Fatal("digest did not change after relevant write")
	}
}

func TestPrefixEnd(t *testing.T) {
	cases := map[string]string{
		"abc":      "abd",
		"a\xff":    "b",
		"\xff\xff": "",
		"":         "",
		"z":        "{",
	}
	for in, want := range cases {
		if got := prefixEnd(in); got != want {
			t.Errorf("prefixEnd(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestScannedAccountsForWork(t *testing.T) {
	s := fixture()
	rAll, _ := Grep{Pattern: "x", PathPrefix: ""}.Execute(s)
	rSome, _ := Grep{Pattern: "x", PathPrefix: "docs/"}.Execute(s)
	if rAll.Scanned <= rSome.Scanned {
		t.Fatalf("full scan (%d) should exceed partial scan (%d)", rAll.Scanned, rSome.Scanned)
	}
}

func TestQuickRangeMatchesBruteForce(t *testing.T) {
	f := func(keys []uint8, fromK, toK uint8) bool {
		s := store.New()
		ref := map[string]bool{}
		for _, k := range keys {
			key := fmt.Sprintf("k%03d", k)
			s.Apply(store.Put{Key: key, Value: []byte{k}})
			ref[key] = true
		}
		from := fmt.Sprintf("k%03d", fromK)
		to := fmt.Sprintf("k%03d", toK)
		res, err := Range{From: from, To: to}.Execute(s)
		if err != nil {
			return false
		}
		pairs, err := RangeResult(res.Payload)
		if err != nil {
			return false
		}
		want := 0
		for k := range ref {
			if k >= from && k < to {
				want++
			}
		}
		return len(pairs) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(key, from, to, p, pat string, limit int16) bool {
		qs := []Query{
			Get{Key: key},
			Range{From: from, To: to, Limit: int(limit)},
			Prefix{P: p, Limit: int(limit)},
			Count{P: p},
			Sum{P: p},
			Grep{Pattern: pat, PathPrefix: p},
		}
		for _, q := range qs {
			got, err := Decode(Encode(q))
			if err != nil {
				return false
			}
			if !bytes.Equal(Encode(got), Encode(q)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
