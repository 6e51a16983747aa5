package store

import "testing"

func TestKeyOfAndOpKey(t *testing.T) {
	ops := []Op{
		Put{Key: "catalog/00003", Value: []byte("v")},
		Delete{Key: "docs/file001"},
		Append{Key: "log", Data: []byte("x")},
	}
	want := []string{"catalog/00003", "docs/file001", "log"}
	for i, op := range ops {
		if got := KeyOf(op); got != want[i] {
			t.Fatalf("KeyOf(%v) = %q, want %q", op, got, want[i])
		}
		// OpKey must agree with KeyOf on the encoded form — the master's
		// shard-admission check routes on the wire bytes, not the Op.
		got, err := OpKey(EncodeOp(op))
		if err != nil {
			t.Fatalf("OpKey(%v): %v", op, err)
		}
		if string(got) != want[i] {
			t.Fatalf("OpKey(%v) = %q, want %q", op, got, want[i])
		}
	}
}

func TestOpKeyRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {}, {0xff}, {0xff, 0x01, 0x02}} {
		if _, err := OpKey(b); err == nil {
			t.Fatalf("OpKey(%v) accepted garbage", b)
		}
	}
}
