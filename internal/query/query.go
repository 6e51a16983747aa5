// Package query implements the read operations supported on the
// replicated content. The paper requires reads to be arbitrarily complex
// (§2): not just point lookups ("read FileName") but scans and
// aggregations over the whole content ("grep Expression Path", complex
// joins). Queries here cover that spectrum:
//
//	Get      — point lookup by key / read a file by path
//	Range    — ordered scan of [From, To) with a limit
//	Prefix   — list keys under a prefix (directory listing)
//	Count    — number of keys under a prefix (aggregation)
//	Sum      — sum of numeric values under a prefix (aggregation)
//	Grep     — regexp search across file contents under a path prefix
//
// Execution is deterministic: the same store state always yields the same
// encoded result, so its SHA-1 digest is well defined — this is what
// slaves pledge and the auditor re-checks.
package query

import (
	"fmt"
	"regexp"

	"repro/internal/cryptoutil"
	"repro/internal/store"
	"repro/internal/wire"
)

// Query is a read operation.
type Query interface {
	// Encode appends the query (with kind tag) to w.
	Encode(w *wire.Writer)
	// Execute runs the query against a content replica.
	Execute(s *store.Store) (Result, error)
	// String renders the query for logs.
	String() string
}

// Result is the outcome of executing a query.
type Result struct {
	// Payload is the deterministic encoding of the answer.
	Payload []byte
	// Scanned is the number of content bytes the execution had to touch;
	// the simulator charges CPU time proportional to it.
	Scanned int
}

// Digest returns the SHA-1 hash of the result payload — the value a slave
// commits to in its pledge (§3.2).
func (r Result) Digest() cryptoutil.Digest {
	return cryptoutil.HashBytes(r.Payload)
}

// Query kind tags on the wire.
const (
	kindGet byte = iota + 1
	kindRange
	kindPrefix
	kindCount
	kindSum
	kindGrep
)

// Get is a point lookup: the value stored at Key, or absent.
type Get struct {
	Key string
}

// Range scans keys in [From, To) in order, returning at most Limit
// key/value pairs (Limit <= 0 means unlimited).
type Range struct {
	From, To string
	Limit    int
}

// Prefix lists the keys (not values) starting with P, at most Limit.
type Prefix struct {
	P     string
	Limit int
}

// Count returns the number of keys starting with P.
type Count struct {
	P string
}

// Sum adds the numeric values (decimal ASCII) of all keys under P.
type Sum struct {
	P string
}

// Grep finds lines matching Pattern in all values whose key starts with
// PathPrefix, like "grep Expression Path" on a file system (§2).
type Grep struct {
	Pattern    string
	PathPrefix string
}

// prefixEnd returns the smallest string greater than every string with
// the given prefix, or "" if the prefix is all 0xff bytes (unbounded).
func prefixEnd(p string) string {
	b := []byte(p)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] < 0xff {
			b[i]++
			return string(b[:i+1])
		}
	}
	return ""
}

// --- Get -----------------------------------------------------------------

func (q Get) Encode(w *wire.Writer) {
	w.Byte(kindGet)
	w.String_(q.Key)
}

func (q Get) Execute(s *store.Store) (Result, error) {
	w := wire.NewWriter(64)
	v, ok := s.Get(q.Key)
	w.Bool(ok)
	if ok {
		w.Bytes_(v)
	}
	return Result{Payload: w.Bytes(), Scanned: len(q.Key) + len(v)}, nil
}

func (q Get) String() string { return fmt.Sprintf("get(%q)", q.Key) }

// GetResult decodes the payload of a Get query.
func GetResult(payload []byte) (value []byte, ok bool, err error) {
	r := wire.NewReader(payload)
	ok = r.Bool()
	if ok {
		value = r.Bytes()
	}
	return value, ok, r.Done()
}

// --- Range ---------------------------------------------------------------

func (q Range) Encode(w *wire.Writer) {
	w.Byte(kindRange)
	w.String_(q.From)
	w.String_(q.To)
	w.Varint(int64(q.Limit))
}

func (q Range) Execute(s *store.Store) (Result, error) {
	w := wire.NewWriter(256)
	n, scanned := 0, 0
	var pairs []struct {
		k string
		v []byte
	}
	s.Ascend(q.From, q.To, func(k string, v []byte) bool {
		pairs = append(pairs, struct {
			k string
			v []byte
		}{k, v})
		scanned += len(k) + len(v)
		n++
		return q.Limit <= 0 || n < q.Limit
	})
	w.Uvarint(uint64(len(pairs)))
	for _, p := range pairs {
		w.String_(p.k)
		w.Bytes_(p.v)
	}
	return Result{Payload: w.Bytes(), Scanned: scanned}, nil
}

func (q Range) String() string {
	return fmt.Sprintf("range(%q,%q,limit=%d)", q.From, q.To, q.Limit)
}

// Pair is one key/value row of a Range result.
type Pair struct {
	Key   string
	Value []byte
}

// RangeResult decodes the payload of a Range query.
func RangeResult(payload []byte) ([]Pair, error) {
	r := wire.NewReader(payload)
	n := r.Count()
	out := make([]Pair, 0, n)
	for i := 0; i < n; i++ {
		k := r.String()
		v := r.Bytes()
		out = append(out, Pair{Key: k, Value: v})
	}
	return out, r.Done()
}

// --- Prefix --------------------------------------------------------------

func (q Prefix) Encode(w *wire.Writer) {
	w.Byte(kindPrefix)
	w.String_(q.P)
	w.Varint(int64(q.Limit))
}

func (q Prefix) Execute(s *store.Store) (Result, error) {
	w := wire.NewWriter(256)
	var keys []string
	scanned := 0
	n := 0
	s.Ascend(q.P, prefixEnd(q.P), func(k string, v []byte) bool {
		keys = append(keys, k)
		scanned += len(k)
		n++
		return q.Limit <= 0 || n < q.Limit
	})
	w.StringSlice(keys)
	return Result{Payload: w.Bytes(), Scanned: scanned}, nil
}

func (q Prefix) String() string { return fmt.Sprintf("prefix(%q,limit=%d)", q.P, q.Limit) }

// PrefixResult decodes the payload of a Prefix query.
func PrefixResult(payload []byte) ([]string, error) {
	r := wire.NewReader(payload)
	keys := r.StringSlice()
	return keys, r.Done()
}

// --- Count ---------------------------------------------------------------

func (q Count) Encode(w *wire.Writer) {
	w.Byte(kindCount)
	w.String_(q.P)
}

func (q Count) Execute(s *store.Store) (Result, error) {
	count, scanned := uint64(0), 0
	s.Ascend(q.P, prefixEnd(q.P), func(k string, v []byte) bool {
		count++
		scanned += len(k)
		return true
	})
	w := wire.NewWriter(16)
	w.Uvarint(count)
	return Result{Payload: w.Bytes(), Scanned: scanned}, nil
}

func (q Count) String() string { return fmt.Sprintf("count(%q)", q.P) }

// CountResult decodes the payload of a Count query.
func CountResult(payload []byte) (uint64, error) {
	r := wire.NewReader(payload)
	n := r.Uvarint()
	return n, r.Done()
}

// --- Sum -----------------------------------------------------------------

func (q Sum) Encode(w *wire.Writer) {
	w.Byte(kindSum)
	w.String_(q.P)
}

func (q Sum) Execute(s *store.Store) (Result, error) {
	var total int64
	scanned := 0
	s.Ascend(q.P, prefixEnd(q.P), func(k string, v []byte) bool {
		total += store.NumericValue(v)
		scanned += len(k) + len(v)
		return true
	})
	w := wire.NewWriter(16)
	w.Varint(total)
	return Result{Payload: w.Bytes(), Scanned: scanned}, nil
}

func (q Sum) String() string { return fmt.Sprintf("sum(%q)", q.P) }

// SumResult decodes the payload of a Sum query.
func SumResult(payload []byte) (int64, error) {
	r := wire.NewReader(payload)
	n := r.Varint()
	return n, r.Done()
}

// --- Grep ----------------------------------------------------------------

func (q Grep) Encode(w *wire.Writer) {
	w.Byte(kindGrep)
	w.String_(q.Pattern)
	w.String_(q.PathPrefix)
}

// Match is one matching line of a Grep result.
type Match struct {
	Path string
	Line int // 1-based line number
	Text string
}

func (q Grep) Execute(s *store.Store) (Result, error) {
	re, err := regexp.Compile(q.Pattern)
	if err != nil {
		return Result{}, fmt.Errorf("query: bad grep pattern: %w", err)
	}
	var matches []Match
	scanned := 0
	s.Ascend(q.PathPrefix, prefixEnd(q.PathPrefix), func(k string, v []byte) bool {
		scanned += len(k) + len(v)
		line := 1
		start := 0
		for i := 0; i <= len(v); i++ {
			if i == len(v) || v[i] == '\n' {
				if i > start || (i == start && i < len(v)) {
					text := string(v[start:i])
					if re.MatchString(text) {
						matches = append(matches, Match{Path: k, Line: line, Text: text})
					}
				}
				line++
				start = i + 1
			}
		}
		return true
	})
	w := wire.NewWriter(256)
	w.Uvarint(uint64(len(matches)))
	for _, m := range matches {
		w.String_(m.Path)
		w.Uvarint(uint64(m.Line))
		w.String_(m.Text)
	}
	return Result{Payload: w.Bytes(), Scanned: scanned}, nil
}

func (q Grep) String() string { return fmt.Sprintf("grep(%q,%q)", q.Pattern, q.PathPrefix) }

// GrepResult decodes the payload of a Grep query.
func GrepResult(payload []byte) ([]Match, error) {
	r := wire.NewReader(payload)
	n := r.Count()
	out := make([]Match, 0, n)
	for i := 0; i < n; i++ {
		m := Match{Path: r.String()}
		m.Line = int(r.Uvarint())
		m.Text = r.String()
		out = append(out, m)
	}
	return out, r.Done()
}

// --- Codec ---------------------------------------------------------------

// Encode serializes a query to a fresh byte slice. This encoding is what
// pledges embed ("a copy of the request", §3.2).
func Encode(q Query) []byte {
	w := wire.NewWriter(64)
	q.Encode(w)
	return w.Bytes()
}

// Decode parses a query from its wire form.
func Decode(b []byte) (Query, error) {
	r := wire.NewReader(b)
	q, err := Read(r)
	if err != nil {
		return nil, err
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return q, nil
}

// Read parses one query from r, leaving r positioned after it.
func Read(r *wire.Reader) (Query, error) {
	kind := r.Byte()
	var q Query
	switch kind {
	case kindGet:
		q = Get{Key: r.String()}
	case kindRange:
		q = Range{From: r.String(), To: r.String(), Limit: int(r.Varint())}
	case kindPrefix:
		q = Prefix{P: r.String(), Limit: int(r.Varint())}
	case kindCount:
		q = Count{P: r.String()}
	case kindSum:
		q = Sum{P: r.String()}
	case kindGrep:
		q = Grep{Pattern: r.String(), PathPrefix: r.String()}
	default:
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("query: unknown kind %d", kind)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return q, nil
}
