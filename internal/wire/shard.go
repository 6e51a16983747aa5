// Shard routing frames: the key-range reference that names one master
// group's slice of the keyspace. The type lives in wire (not pki or core)
// because it appears inside signed directory structures (the shard table,
// certificates) as well as in master configuration, and its encoding must
// be byte-stable.
package wire

import "fmt"

// ShardRef names one master group's key range. Keys are routed to the
// shard whose half-open range [Lo, Hi) contains them; Lo == "" means the
// start of the keyspace and Hi == "" means the end, so the zero value is
// the full keyspace (the unsharded deployment).
type ShardRef struct {
	ID uint32
	Lo string // inclusive lower bound; "" = keyspace start
	Hi string // exclusive upper bound; "" = keyspace end
}

// Contains reports whether key routes to this shard. It takes the key's
// bytes, and the comparisons below convert them without a copy, so a
// master checks every op of a wave without allocating.
func (s ShardRef) Contains(key []byte) bool {
	if string(key) < s.Lo {
		return false
	}
	return s.Hi == "" || string(key) < s.Hi
}

// IsFull reports whether the shard covers the whole keyspace.
func (s ShardRef) IsFull() bool { return s.Lo == "" && s.Hi == "" }

// Encode appends the shard reference to w.
func (s ShardRef) Encode(w *Writer) {
	w.Uint32(s.ID)
	w.String_(s.Lo)
	w.String_(s.Hi)
}

// DecodeShardRef reads a shard reference written by Encode.
func DecodeShardRef(r *Reader) (ShardRef, error) {
	var s ShardRef
	s.ID = r.Uint32()
	s.Lo = r.String()
	s.Hi = r.String()
	return s, r.Err()
}

// String renders the shard for logs and error text.
func (s ShardRef) String() string {
	lo, hi := s.Lo, s.Hi
	if lo == "" {
		lo = "-inf"
	}
	if hi == "" {
		hi = "+inf"
	}
	return fmt.Sprintf("shard %d [%s, %s)", s.ID, lo, hi)
}
