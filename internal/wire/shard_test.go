package wire

import "testing"

func TestShardRefRoundTrip(t *testing.T) {
	refs := []ShardRef{
		{},
		{ID: 3, Lo: "catalog/00010", Hi: "catalog/00020"},
		{ID: 0xffffffff, Lo: "", Hi: "m"},
		{ID: 1, Lo: "k\x00odd\xffbytes", Hi: ""},
	}
	for _, ref := range refs {
		w := NewWriter(64)
		ref.Encode(w)
		got, err := DecodeShardRef(NewReader(w.Bytes()))
		if err != nil {
			t.Fatalf("%v: decode: %v", ref, err)
		}
		if got != ref {
			t.Fatalf("round trip: got %v, want %v", got, ref)
		}
	}
}

func TestShardRefContains(t *testing.T) {
	full := ShardRef{}
	if !full.IsFull() || !full.Contains(nil) || !full.Contains([]byte("anything")) {
		t.Fatal("zero ShardRef must cover the whole keyspace")
	}
	mid := ShardRef{Lo: "b", Hi: "d"}
	for key, want := range map[string]bool{
		"a": false, "b": true, "bzz": true, "c": true,
		"d": false, "dz": false, "z": false,
	} {
		if mid.Contains([]byte(key)) != want {
			t.Fatalf("[b,d).Contains(%q) = %v, want %v", key, !want, want)
		}
	}
	open := ShardRef{Lo: "m"}
	if open.Contains([]byte("a")) || !open.Contains([]byte("m")) || !open.Contains([]byte("zzz")) {
		t.Fatal("[m, +inf) bounds wrong")
	}
	if open.IsFull() {
		t.Fatal("half-open shard reported full")
	}
}
