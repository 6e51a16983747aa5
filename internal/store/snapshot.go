package store

import (
	"fmt"

	"repro/internal/wire"
)

// Snapshot serialization: the full (version, entries) state of a replica
// in key order. Used to bootstrap new slaves and to re-admit recovered
// ones (§3.5: a compromised slave, "after recovering it to a safe state
// ... can be brought back to use") without replaying the whole op log.

// snapshotMagic guards against feeding arbitrary bytes to ReadSnapshot.
const snapshotMagic = "snap.v1"

// WriteSnapshot appends the store's full state to w.
func (s *Store) WriteSnapshot(w *wire.Writer) {
	w.String_(snapshotMagic)
	w.Uvarint(s.version)
	w.Uvarint(uint64(s.Len()))
	s.Ascend("", "", func(k string, v []byte) bool {
		w.String_(k)
		w.Bytes_(v)
		return true
	})
}

// EncodeSnapshot serializes the store to a fresh byte slice.
func (s *Store) EncodeSnapshot() []byte {
	w := wire.NewWriter(s.ContentBytes() + 64)
	s.WriteSnapshot(w)
	return w.Bytes()
}

// ReadSnapshot reconstructs a store from a snapshot written by
// WriteSnapshot. The result is byte-identical in state digest to the
// source replica at the same version.
func ReadSnapshot(r *wire.Reader) (*Store, error) {
	if magic := r.String(); magic != snapshotMagic {
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("store: bad snapshot magic %q", magic)
	}
	version := r.Uvarint()
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	s := New()
	var prev string
	for i := uint64(0); i < n; i++ {
		k := r.String()
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
