package query

import (
	"math/rand"
	"testing"

	"repro/internal/store"
)

// spanCase reads a store, a query and one write out of data, a byte at a
// time (zero once data runs out). Keys are short strings over an alphabet
// that includes the bytes prefixEnd and Get's span bound turn on, so
// generated keys land on, just inside and just outside span bounds.
type spanCase struct {
	data []byte
}

func (c *spanCase) next() int {
	if len(c.data) == 0 {
		return 0
	}
	b := c.data[0]
	c.data = c.data[1:]
	return int(b)
}

func (c *spanCase) key() string {
	const alphabet = "ab\x00\xfe\xff"
	k := make([]byte, c.next()%4)
	for i := range k {
		k[i] = alphabet[c.next()%len(alphabet)]
	}
	return string(k)
}

func (c *spanCase) value() []byte {
	values := []string{"1", "22", "x\n1", "", "abc\nx"}
	return []byte(values[c.next()%len(values)])
}

func (c *spanCase) query() Query {
	switch c.next() % 6 {
	case 0:
		return Get{Key: c.key()}
	case 1:
		return Range{From: c.key(), To: c.key(), Limit: c.next() % 4}
	case 2:
		return Prefix{P: c.key(), Limit: c.next() % 4}
	case 3:
		return Count{P: c.key()}
	case 4:
		return Sum{P: c.key()}
	default:
		patterns := []string{"1", "x", "."}
		return Grep{Pattern: patterns[c.next()%len(patterns)], PathPrefix: c.key()}
	}
}

func (c *spanCase) op() store.Op {
	switch c.next() % 3 {
	case 0:
		return store.Put{Key: c.key(), Value: c.value()}
	case 1:
		return store.Delete{Key: c.key()}
	default:
		return store.Append{Key: c.key(), Data: c.value()}
	}
}

// checkSpan runs one case: a write outside the query's span must leave the
// query's result digest as it was.
func checkSpan(t *testing.T, data []byte) {
	c := &spanCase{data: data}
	s := store.New()
	for n := c.next() % 12; n > 0; n-- {
		s.Apply(store.Put{Key: c.key(), Value: c.value()})
	}
	q, op := c.query(), c.op()
	from, to := q.Span()
	if InSpan([]byte(store.KeyOf(op)), from, to) {
		return
	}
	before, err := q.Execute(s)
	if err != nil {
		t.Fatalf("%v: %v", q, err)
	}
	s.Apply(op)
	after, err := q.Execute(s)
	if err != nil {
		t.Fatalf("%v: %v", q, err)
	}
	if before.Digest() != after.Digest() {
		t.Fatalf("%v (span [%q, %q)) changed under %v, a write outside its span", q, from, to, op)
	}
}

// TestSpanBoundsResult is the property the auditor's vouch ahead of its
// replica rests on: no write outside a query's span changes its result.
func TestSpanBoundsResult(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 64)
	for i := 0; i < 20000; i++ {
		rng.Read(data)
		checkSpan(t, data)
	}
}

func FuzzQuerySpan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 0, 1, 2, 1, 0, 1, 0, 1, 1, 1})
	f.Add([]byte{5, 2, 4, 4, 0, 1, 2, 3, 4, 3, 1, 2, 4, 4, 1, 0})
	f.Fuzz(checkSpan)
}

// TestSpanEdges pins the span bounds: from is inside, to is outside, a
// prefix of 0xff bytes and a Range with no To run to the end of the key
// space, and a Range's Limit does not narrow its span.
func TestSpanEdges(t *testing.T) {
	s := store.New()
	for _, k := range []string{"a", "b", "c", "d", "\xff\xff", "\xff\xff\x01"} {
		s.Apply(store.Put{Key: k, Value: []byte("1")})
	}
	for _, tc := range []struct {
		name    string
		q       Query
		key     string
		inside  bool
		changes bool // a Put of a new value at key changes the result
	}{
		{"key equal to from", Range{From: "b", To: "d"}, "b", true, true},
		{"key equal to to", Range{From: "b", To: "d"}, "d", false, false},
		{"get's own key", Get{Key: "b"}, "b", true, true},
		{"get's key plus a byte", Get{Key: "b"}, "b\x00", false, false},
		{"prefix of 0xff bytes, extension", Count{P: "\xff\xff"}, "\xff\xff\x01\x02", true, true},
		{"prefix of 0xff bytes, below", Count{P: "\xff\xff"}, "\xff\xfe", false, false},
		{"range to the end", Range{From: "c"}, "\xff\xff\xff", true, true},
		{"range to the end, below from", Range{From: "c"}, "b", false, false},
		{"limited range, past the limit", Range{From: "a", To: "d", Limit: 1}, "c", true, false},
		{"limited range, past to", Range{From: "a", To: "d", Limit: 1}, "d", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			from, to := tc.q.Span()
			if got := InSpan([]byte(tc.key), from, to); got != tc.inside {
				t.Fatalf("InSpan(%q, [%q, %q)) = %v, want %v", tc.key, from, to, got, tc.inside)
			}
			st := s.Clone()
			before, _ := tc.q.Execute(st)
			st.Apply(store.Put{Key: tc.key, Value: []byte("2")})
			after, _ := tc.q.Execute(st)
			if changed := before.Digest() != after.Digest(); changed != tc.changes {
				t.Fatalf("%v: a put at %q changed the result: %v, want %v", tc.q, tc.key, changed, tc.changes)
			}
		})
	}
	if from, to := (Sum{P: "\xff"}).Span(); from != "\xff" || to != "" {
		t.Fatalf("Sum{\\xff} span [%q, %q), want [\\xff, unbounded)", from, to)
	}
}
