package store

import (
	"errors"
	"fmt"

	"repro/internal/wire"
)

// Snapshot serialization: the full (version, entries) state of a replica
// in key order. Used to bootstrap new slaves and to re-admit recovered
// ones (§3.5: a compromised slave, "after recovering it to a safe state
// ... can be brought back to use") without replaying the whole op log.
//
//	snapshot  string "snap.v2" ‖ uvarint version ‖ uvarint n ‖
//	          n × (key ‖ bytes value)
//
// Each key is front-coded against the one before it (wire's KeyAfter:
// uvarint shared ‖ string suffix), so a sorted run stops repeating the
// prefixes its keys share. A snapshot whose keys copy more than
// wire.KeyShareRatio prefix bytes per byte of the buffer it is read from
// is refused (wire.ErrKeyBudget), so a hostile m.sync reply cannot decode
// into the square of its size. The "snap.v1" layout, every key whole, is
// refused by its magic (ErrSnapshotMagic): nothing reads it any more.

// snapshotMagic guards against feeding arbitrary bytes to ReadSnapshot.
const snapshotMagic = "snap.v2"

// ErrSnapshotMagic is returned by ReadSnapshot for bytes that do not open
// with this layout's magic: arbitrary bytes, or a snapshot in an earlier
// layout.
var ErrSnapshotMagic = errors.New("store: not a " + snapshotMagic + " snapshot")

// WriteSnapshot appends the store's full state to w.
func (s *Store) WriteSnapshot(w *wire.Writer) {
	w.String_(snapshotMagic)
	w.Uvarint(s.version)
	w.Uvarint(uint64(s.Len()))
	prev := ""
	s.Ascend("", "", func(k string, v []byte) bool {
		w.KeyAfter(prev, k)
		w.Bytes_(v)
		prev = k
		return true
	})
}

// EncodeSnapshot serializes the store to a fresh byte slice.
func (s *Store) EncodeSnapshot() []byte {
	return wire.EncodeFrame(s.WriteSnapshot)
}

// ReadSnapshot reconstructs a store from a snapshot written by
// WriteSnapshot. The result is byte-identical in state digest to the
// source replica at the same version.
func ReadSnapshot(r *wire.Reader) (*Store, error) {
	if magic := r.String(); magic != snapshotMagic {
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: magic %q", ErrSnapshotMagic, magic)
	}
	version := r.Uvarint()
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	s := New()
	var prev string
	for i := uint64(0); i < n; i++ {
		k := r.KeyAfter(prev)
		v := r.Bytes()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if i > 0 && k <= prev {
			return nil, fmt.Errorf("store: snapshot keys out of order at %q", k)
		}
		prev = k
		s.tree.put(k, v)
		s.xorEntry(k, v)
	}
	s.version = version
	return s, nil
}

// DecodeSnapshot parses a snapshot from its wire form, requiring the
// buffer to be fully consumed.
func DecodeSnapshot(b []byte) (*Store, error) {
	r := wire.NewReader(b)
	s, err := ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return s, nil
}
