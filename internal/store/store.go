// Package store implements the replicated data content: a versioned,
// ordered key/value store (backed by an in-memory B-tree) that supports
// the write operations ordered by the master set and the read queries
// executed by slaves and the auditor.
//
// The same store serves as a database-like content (keys are record ids)
// and as a filesystem-like content (keys are paths, values are file
// bodies), matching the paper's two motivating examples (§2).
//
// Determinism is the critical property: two replicas that apply the same
// write sequence must reach byte-identical state, so that honest slaves
// and the auditor compute identical result hashes. The package maintains
// an incremental state digest (a set-homomorphic XOR of per-entry hashes,
// cryptoutil.HashConcat: truncated SHA-256) used by tests and the harness
// to assert replica convergence; it is an engineering check, not a
// security primitive — integrity guarantees come from the protocol's
// signed pledges. A write walks the B-tree once: the descent that stores
// its value hands back the one it replaced, and both go into the digest.
package store

import (
	"errors"
	"fmt"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// Op is a write operation on the content. Ops are created by clients,
// ordered by the master set, and applied by every replica.
type Op interface {
	// Apply mutates the store. It must be deterministic.
	apply(s *Store) error
	// Encode appends the op to w (including its kind tag).
	Encode(w *wire.Writer)
	// String renders the op for logs.
	String() string
}

// Op kind tags on the wire.
const (
	opPut byte = iota + 1
	opDelete
	opAppend
)

// Put stores value under key, replacing any previous value.
type Put struct {
	Key   string
	Value []byte
}

// Delete removes key; deleting an absent key is a no-op.
type Delete struct {
	Key string
}

// Append appends data to the value at key, creating it if absent.
type Append struct {
	Key  string
	Data []byte
}

func (p Put) apply(s *Store) error {
	if old, replaced := s.tree.put(p.Key, p.Value); replaced {
		s.xorEntry(p.Key, old)
	}
	s.xorEntry(p.Key, p.Value)
	return nil
}

func (p Put) Encode(w *wire.Writer) {
	w.Byte(opPut)
	w.String_(p.Key)
	w.Bytes_(p.Value)
}

func (p Put) String() string { return fmt.Sprintf("put(%q,%dB)", p.Key, len(p.Value)) }

func (d Delete) apply(s *Store) error {
	if old, removed := s.tree.delete(d.Key); removed {
		s.xorEntry(d.Key, old)
	}
	return nil
}

func (d Delete) Encode(w *wire.Writer) {
	w.Byte(opDelete)
	w.String_(d.Key)
}

func (d Delete) String() string { return fmt.Sprintf("delete(%q)", d.Key) }

func (a Append) apply(s *Store) error {
	old, merged, replaced := s.tree.appendTo(a.Key, a.Data)
	if replaced {
		s.xorEntry(a.Key, old)
	}
	s.xorEntry(a.Key, merged)
	return nil
}

func (a Append) Encode(w *wire.Writer) {
	w.Byte(opAppend)
	w.String_(a.Key)
	w.Bytes_(a.Data)
}

func (a Append) String() string { return fmt.Sprintf("append(%q,%dB)", a.Key, len(a.Data)) }

// EncodeOp serializes an op to a fresh byte slice.
func EncodeOp(op Op) []byte {
	return wire.EncodeFrame(op.Encode)
}

// ValidateOp reports whether b is a well-formed encoded op without
// materializing it: the admission paths (master write admission, auditor
// delivery) only need the decodability verdict, and walking the fields
// through zero-copy views keeps rejection and acceptance alloc-free.
func ValidateOp(b []byte) error {
	r := wire.NewReader(b)
	kind := r.Byte()
	switch kind {
	case opPut, opAppend:
		r.BytesView() // key
		r.BytesView() // value / data
	case opDelete:
		r.BytesView() // key
	default:
		if err := r.Err(); err != nil {
			return err
		}
		return fmt.Errorf("store: unknown op kind %d", kind)
	}
	return r.Done()
}

// KeyOf returns the key an op addresses (shard routing input).
func KeyOf(op Op) string {
	switch o := op.(type) {
	case Put:
		return o.Key
	case Delete:
		return o.Key
	case Append:
		return o.Key
	}
	return ""
}

// OpKey extracts the addressed key from an encoded op without
// materializing the rest of it: masters route or reject writes by key at
// admission, before the op is ever applied. The key is a view into b.
func OpKey(b []byte) ([]byte, error) {
	r := wire.NewReader(b)
	kind := r.Byte()
	switch kind {
	case opPut, opDelete, opAppend:
		key := r.BytesView()
		if err := r.Err(); err != nil {
			return nil, err
		}
		return key, nil
	default:
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("store: unknown op kind %d", kind)
	}
}

// DecodeOp parses an op from its wire form.
func DecodeOp(b []byte) (Op, error) {
	r := wire.NewReader(b)
	op, err := ReadOp(r)
	if err != nil {
		return nil, err
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return op, nil
}

// ReadOp parses one op from r, leaving r positioned after it.
func ReadOp(r *wire.Reader) (Op, error) {
	kind := r.Byte()
	switch kind {
	case opPut:
		key := r.String()
		val := r.Bytes()
		if err := r.Err(); err != nil {
			return nil, err
		}
		return Put{Key: key, Value: val}, nil
	case opDelete:
		key := r.String()
		if err := r.Err(); err != nil {
			return nil, err
		}
		return Delete{Key: key}, nil
	case opAppend:
		key := r.String()
		data := r.Bytes()
		if err := r.Err(); err != nil {
			return nil, err
		}
		return Append{Key: key, Data: data}, nil
	default:
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("store: unknown op kind %d", kind)
	}
}

// ErrVersionGap is returned by ApplyAt when a replica is asked to apply a
// write whose version is not exactly current version + 1.
var ErrVersionGap = errors.New("store: write version is not contiguous")

// Store is a versioned content replica.
type Store struct {
	tree    btree
	version uint64
	digest  cryptoutil.Digest // XOR of per-entry hashes (replica check)
}

// New returns an empty store at content version zero, as created by the
// content owner (§3.1: "initialized zero when the content is created").
func New() *Store {
	return &Store{tree: newBtree()}
}

// Version returns the content version: the number of writes applied.
func (s *Store) Version() uint64 { return s.version }

// Len returns the number of keys.
func (s *Store) Len() int { return s.tree.size }

// ContentBytes returns the total stored key+value bytes (cost model input).
func (s *Store) ContentBytes() int { return s.tree.bytes }

// Apply executes one committed write, incrementing the content version.
func (s *Store) Apply(op Op) error {
	if err := op.apply(s); err != nil {
		return err
	}
	s.version++
	return nil
}

// ApplyAt executes a write that must carry version s.Version()+1; replicas
// use it to detect lost or reordered updates.
func (s *Store) ApplyAt(version uint64, op Op) error {
	if version != s.version+1 {
		return fmt.Errorf("%w: have %d, got %d", ErrVersionGap, s.version, version)
	}
	return s.Apply(op)
}

// Get returns the value stored under key.
func (s *Store) Get(key string) ([]byte, bool) { return s.tree.get(key) }

// Ascend iterates keys in [from, to) in order ("" = unbounded).
func (s *Store) Ascend(from, to string, fn func(key string, value []byte) bool) {
	s.tree.ascend(from, to, fn)
}

// Clone returns an independent copy of the store at the same version, in
// O(1): the two share the tree's nodes until one writes them (copy on
// write), so either may be read or written while the other is written.
// Clone itself writes s's write token, so it needs a writer's exclusion.
func (s *Store) Clone() *Store {
	return &Store{tree: s.tree.clone(), version: s.version, digest: s.digest}
}

// StateDigest returns the incremental digest over (version, entries).
func (s *Store) StateDigest() cryptoutil.Digest {
	d := s.digest
	var v [8]byte
	for i := 0; i < 8; i++ {
		v[i] = byte(s.version >> (8 * (7 - i)))
	}
	vh := cryptoutil.HashConcat([]byte("version"), v[:])
	for i := range d {
		d[i] ^= vh[i]
	}
	return d
}

// xorEntry adds the entry (key, value) to the state digest, or takes it
// out: XOR is its own inverse. A write passes the values its one tree
// descent replaced and stored, so the digest costs no lookup.
func (s *Store) xorEntry(key string, value []byte) {
	h := cryptoutil.HashConcat([]byte("entry"), []byte(key), value)
	for i := range s.digest {
		s.digest[i] ^= h[i]
	}
}

// NumericValue parses a stored value as a decimal integer, for aggregate
// queries (Sum). Unparseable values count as zero, so that aggregation is
// total and deterministic on arbitrary content. It accepts exactly what
// strconv.ParseInt(string(v), 10, 64) accepts — an optional sign, then
// digits, within int64 — reading the bytes in place: Sum calls it once per
// key scanned.
func NumericValue(v []byte) int64 {
	neg := false
	if len(v) > 0 && (v[0] == '+' || v[0] == '-') {
		neg = v[0] == '-'
		v = v[1:]
	}
	if len(v) == 0 {
		return 0
	}
	const limit = 1 << 63 // |math.MinInt64|; one more than math.MaxInt64
	var n uint64
	for _, c := range v {
		d := uint64(c - '0')
		if d > 9 || n > limit/10 {
			return 0
		}
		if n = n*10 + d; n > limit {
			return 0
		}
	}
	if neg {
		return -int64(n) // n == limit wraps to math.MinInt64, its own negation
	}
	if n == limit {
		return 0
	}
	return int64(n)
}
