package core

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/wire"
)

func TestStampSignVerifyFresh(t *testing.T) {
	m := cryptoutil.DeriveKeyPair("master", 0)
	ts := time.Unix(1000, 0).UTC()
	st := SignStamp(m, 7, ts)
	if err := st.Verify([]cryptoutil.PublicKey{m.Public}); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !st.Fresh(ts.Add(time.Second), 2*time.Second) {
		t.Fatal("should be fresh")
	}
	if st.Fresh(ts.Add(3*time.Second), 2*time.Second) {
		t.Fatal("should be stale")
	}
}

func TestStampRejectsUnknownMaster(t *testing.T) {
	m := cryptoutil.DeriveKeyPair("master", 0)
	other := cryptoutil.DeriveKeyPair("other", 0)
	st := SignStamp(m, 1, time.Unix(0, 0))
	if err := st.Verify([]cryptoutil.PublicKey{other.Public}); err == nil {
		t.Fatal("unknown master accepted")
	}
}

func TestStampRejectsTampering(t *testing.T) {
	m := cryptoutil.DeriveKeyPair("master", 0)
	st := SignStamp(m, 1, time.Unix(0, 0))
	st.Version = 2
	if err := st.Verify([]cryptoutil.PublicKey{m.Public}); err == nil {
		t.Fatal("tampered version accepted")
	}
}

func TestStampCodec(t *testing.T) {
	m := cryptoutil.DeriveKeyPair("master", 0)
	st := SignStamp(m, 42, time.Unix(7, 3).UTC())
	w := wire.NewWriter(0)
	st.Encode(w)
	r := wire.NewReader(w.Bytes())
	got, err := DecodeStamp(r)
	if err != nil || r.Done() != nil {
		t.Fatalf("decode: %v/%v", err, r.Done())
	}
	if err := got.Verify([]cryptoutil.PublicKey{m.Public}); err != nil {
		t.Fatalf("decoded stamp invalid: %v", err)
	}
	if got.Version != 42 {
		t.Fatalf("version = %d", got.Version)
	}
}

func TestPledgeSignVerifyCodec(t *testing.T) {
	m := cryptoutil.DeriveKeyPair("master", 0)
	s := cryptoutil.DeriveKeyPair("slave", 0)
	st := SignStamp(m, 3, time.Unix(50, 0).UTC())
	qb := query.Encode(query.Get{Key: "k"})
	h := cryptoutil.HashBytes([]byte("result"))
	p := SignPledge(s, qb, h, st)
	if err := p.VerifySig(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	r := wire.NewReader(EncodePledge(p))
	got, err := DecodePledge(r)
	if err != nil || r.Done() != nil {
		t.Fatalf("decode: %v/%v", err, r.Done())
	}
	if err := got.VerifySig(); err != nil {
		t.Fatalf("decoded pledge invalid: %v", err)
	}
}

func TestPledgeCannotFrameSlave(t *testing.T) {
	// §3.3: a client cannot frame an innocent slave — any modification of
	// the pledge breaks the slave's signature.
	m := cryptoutil.DeriveKeyPair("master", 0)
	s := cryptoutil.DeriveKeyPair("slave", 0)
	st := SignStamp(m, 1, time.Unix(0, 0).UTC())
	qb := query.Encode(query.Get{Key: "price"})
	honest := cryptoutil.HashBytes([]byte("100"))
	p := SignPledge(s, qb, honest, st)

	forged := p
	forged.ResultHash = cryptoutil.HashBytes([]byte("999"))
	if err := forged.VerifySig(); err == nil {
		t.Fatal("forged hash verified — slave could be framed")
	}
	forged2 := p
	forged2.QueryBytes = query.Encode(query.Get{Key: "other"})
	if err := forged2.VerifySig(); err == nil {
		t.Fatal("forged query verified")
	}
	forged3 := p
	forged3.Stamp = SignStamp(m, 9, time.Unix(1, 0).UTC())
	if err := forged3.VerifySig(); err == nil {
		t.Fatal("forged stamp verified")
	}
}

func TestCheckPledgeAgainstHonestAndLie(t *testing.T) {
	m := cryptoutil.DeriveKeyPair("master", 0)
	sl := cryptoutil.DeriveKeyPair("slave", 0)
	st := store.New()
	st.Apply(store.Put{Key: "k", Value: []byte("v")})
	stamp := SignStamp(m, st.Version(), time.Unix(0, 0).UTC())
	q := query.Get{Key: "k"}
	qb := query.Encode(q)
	res, _ := q.Execute(st)

	honest := SignPledge(sl, qb, res.Digest(), stamp)
	proven, _, err := CheckPledgeAgainst(st, &honest)
	if err != nil || proven {
		t.Fatalf("honest pledge flagged: proven=%v err=%v", proven, err)
	}

	lie := SignPledge(sl, qb, cryptoutil.HashBytes([]byte("lie")), stamp)
	proven, correct, err := CheckPledgeAgainst(st, &lie)
	if err != nil || !proven {
		t.Fatalf("lie not proven: proven=%v err=%v", proven, err)
	}
	if !correct.Equal(res.Digest()) {
		t.Fatal("correct hash mismatch")
	}
}

func TestCheckPledgeVersionMismatch(t *testing.T) {
	m := cryptoutil.DeriveKeyPair("master", 0)
	sl := cryptoutil.DeriveKeyPair("slave", 0)
	st := store.New()
	stamp := SignStamp(m, 5, time.Unix(0, 0).UTC()) // store is at 0
	p := SignPledge(sl, query.Encode(query.Get{Key: "k"}), cryptoutil.Digest{}, stamp)
	if _, _, err := CheckPledgeAgainst(st, &p); err == nil {
		t.Fatal("version mismatch not detected")
	}
}

func TestCheckPledgeGarbageQueryIsProof(t *testing.T) {
	m := cryptoutil.DeriveKeyPair("master", 0)
	sl := cryptoutil.DeriveKeyPair("slave", 0)
	st := store.New()
	stamp := SignStamp(m, 0, time.Unix(0, 0).UTC())
	p := SignPledge(sl, []byte{0xff, 0xfe}, cryptoutil.Digest{}, stamp)
	proven, _, err := CheckPledgeAgainst(st, &p)
	if err != nil || !proven {
		t.Fatalf("garbage query not proof: %v/%v", proven, err)
	}
}

func TestWriteRequestSignVerify(t *testing.T) {
	c := cryptoutil.DeriveKeyPair("client", 0)
	wr := SignWrite(c, store.Put{Key: "k", Value: []byte("v")})
	if err := wr.VerifySig(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	wr.OpBytes = store.EncodeOp(store.Delete{Key: "k"})
	if err := wr.VerifySig(); err == nil {
		t.Fatal("tampered op accepted")
	}
}

func TestWriteRequestCodec(t *testing.T) {
	c := cryptoutil.DeriveKeyPair("client", 0)
	wr := SignWrite(c, store.Append{Key: "log", Data: []byte("x")})
	w := wire.NewWriter(0)
	wr.Encode(w)
	r := wire.NewReader(w.Bytes())
	got, err := DecodeWriteRequest(r)
	if err != nil || r.Done() != nil {
		t.Fatalf("decode: %v/%v", err, r.Done())
	}
	if err := got.VerifySig(); err != nil {
		t.Fatalf("decoded request invalid: %v", err)
	}
}

// waveOps builds n distinct catalogue puts, the shape the real-clock
// benchmark's write waves carry.
func waveOps(n int) []store.Op {
	ops := make([]store.Op, n)
	for i := range ops {
		ops[i] = store.Put{Key: fmt.Sprintf("catalog/%05d", i), Value: []byte("12345")}
	}
	return ops
}

func encodeWave(ww WriteWave) []byte { return wire.EncodeFrame(ww.Encode) }

// waveTamper is one way of presenting a wave the master must refuse.
// body builds the m.writemulti request: client is the honest, permitted
// signer; other is a second permitted key; outsider is not in the ACL.
// sigValid marks requests whose signature does verify — they are refused
// by a later admission step, so only the master-level table rejects them.
// denied marks refusals that must surface as ErrDenied (the rest fail in
// the decoder).
type waveTamper struct {
	name     string
	body     func(client, other, outsider *cryptoutil.KeyPair) []byte
	sigValid bool
	denied   bool
}

// waveCountOffset is where a wave frame's op count sits: after the
// length-prefixed 32-byte client key.
const waveCountOffset = 1 + 32

var waveTamperCases = []waveTamper{
	{name: "op byte flipped", denied: true, body: func(c, _, _ *cryptoutil.KeyPair) []byte {
		ww := SignWave(c, waveOps(8))
		op := append([]byte(nil), ww.Ops[3]...)
		op[len(op)-1] ^= 1 // inside the value: the op still decodes
		ww.Ops[3] = op
		return encodeWave(ww)
	}},
	{name: "ops reordered", denied: true, body: func(c, _, _ *cryptoutil.KeyPair) []byte {
		ww := SignWave(c, waveOps(8))
		ww.Ops[1], ww.Ops[2] = ww.Ops[2], ww.Ops[1]
		return encodeWave(ww)
	}},
	{name: "last op dropped", denied: true, body: func(c, _, _ *cryptoutil.KeyPair) []byte {
		ww := SignWave(c, waveOps(8))
		ww.Ops = ww.Ops[:7]
		return encodeWave(ww)
	}},
	{name: "op appended", denied: true, body: func(c, _, _ *cryptoutil.KeyPair) []byte {
		ww := SignWave(c, waveOps(8))
		ww.Ops = append(ww.Ops, store.EncodeOp(store.Delete{Key: "catalog/00000"}))
		return encodeWave(ww)
	}},
	{name: "count lowered", body: func(c, _, _ *cryptoutil.KeyPair) []byte {
		b := encodeWave(SignWave(c, waveOps(8)))
		b[waveCountOffset]--
		return b
	}},
	{name: "count raised", body: func(c, _, _ *cryptoutil.KeyPair) []byte {
		b := encodeWave(SignWave(c, waveOps(8)))
		b[waveCountOffset]++
		return b
	}},
	{name: "client key swapped", denied: true, body: func(c, other, _ *cryptoutil.KeyPair) []byte {
		ww := SignWave(c, waveOps(8))
		ww.ClientPub = other.Public
		return encodeWave(ww)
	}},
	{name: "signature truncated", denied: true, body: func(c, _, _ *cryptoutil.KeyPair) []byte {
		ww := SignWave(c, waveOps(8))
		ww.Sig = ww.Sig[:32]
		return encodeWave(ww)
	}},
	{name: "signature garbage", denied: true, body: func(c, _, _ *cryptoutil.KeyPair) []byte {
		ww := SignWave(c, waveOps(8))
		ww.Sig = bytes.Repeat([]byte{0x5a}, len(ww.Sig))
		return encodeWave(ww)
	}},
	{name: "signature missing", denied: true, body: func(c, _, _ *cryptoutil.KeyPair) []byte {
		ww := SignWave(c, waveOps(8))
		ww.Sig = nil
		return encodeWave(ww)
	}},
	{name: "write.v1 signature presented as a wave", denied: true, body: func(c, _, _ *cryptoutil.KeyPair) []byte {
		wr := SignWrite(c, waveOps(1)[0])
		return encodeWave(WriteWave{ClientPub: wr.ClientPub, Ops: [][]byte{wr.OpBytes}, Sig: wr.Sig})
	}},
	{name: "trailing bytes", body: func(c, _, _ *cryptoutil.KeyPair) []byte {
		return append(encodeWave(SignWave(c, waveOps(8))), 0)
	}},
	{name: "key not in the ACL", sigValid: true, denied: true, body: func(_, _, outsider *cryptoutil.KeyPair) []byte {
		return encodeWave(SignWave(outsider, waveOps(8)))
	}},
	{name: "empty wave", sigValid: true, body: func(c, _, _ *cryptoutil.KeyPair) []byte {
		return encodeWave(SignWave(c, nil))
	}},
	{name: "undecodable op in the middle", sigValid: true, denied: true, body: func(c, _, _ *cryptoutil.KeyPair) []byte {
		ww := WriteWave{ClientPub: c.Public}
		for _, op := range waveOps(8) {
			ww.Ops = append(ww.Ops, store.EncodeOp(op))
		}
		ww.Ops[4] = []byte{0xff, 0xfe}
		w := wire.NewWriter(0)
		ww.appendSignedBytes(w)
		ww.Sig = c.Sign(w.Bytes())
		return encodeWave(ww)
	}},
}

func TestWriteWaveSignVerifyCodec(t *testing.T) {
	c := cryptoutil.DeriveKeyPair("client", 0)
	for _, n := range []int{1, 64, 256} {
		ww := SignWave(c, waveOps(n))
		if err := ww.VerifySig(); err != nil {
			t.Fatalf("wave of %d: verify: %v", n, err)
		}
		got, err := DecodeWriteWave(encodeWave(ww))
		if err != nil {
			t.Fatalf("wave of %d: decode: %v", n, err)
		}
		if len(got.Ops) != n {
			t.Fatalf("wave of %d decoded to %d ops", n, len(got.Ops))
		}
		if err := got.VerifySig(); err != nil {
			t.Fatalf("wave of %d: decoded wave invalid: %v", n, err)
		}
	}
}

func TestWriteWaveTamperRejected(t *testing.T) {
	c := cryptoutil.DeriveKeyPair("client", 0)
	other := cryptoutil.DeriveKeyPair("client", 1)
	outsider := cryptoutil.DeriveKeyPair("outsider", 0)
	for _, tc := range waveTamperCases {
		t.Run(tc.name, func(t *testing.T) {
			ww, err := DecodeWriteWave(tc.body(c, other, outsider))
			if err != nil {
				if tc.sigValid || tc.denied {
					t.Fatalf("frame should decode: %v", err)
				}
				return // refused by the decoder
			}
			if err := ww.VerifySig(); (err == nil) != tc.sigValid {
				t.Fatalf("VerifySig = %v, want valid=%v", err, tc.sigValid)
			}
		})
	}
}

// TestWriteWaveDomainSeparation: a wave signature over one op is not a
// write signature over that op, and vice versa.
func TestWriteWaveDomainSeparation(t *testing.T) {
	c := cryptoutil.DeriveKeyPair("client", 0)
	op := waveOps(1)
	ww := SignWave(c, op)
	wr := WriteRequest{OpBytes: ww.Ops[0], ClientPub: ww.ClientPub, Sig: ww.Sig}
	if err := wr.VerifySig(); err == nil {
		t.Fatal("wave signature accepted as a write.v1 signature")
	}
	single := SignWrite(c, op[0])
	asWave := WriteWave{ClientPub: single.ClientPub, Ops: [][]byte{single.OpBytes}, Sig: single.Sig}
	if err := asWave.VerifySig(); err == nil {
		t.Fatal("write.v1 signature accepted as a wave signature")
	}
}

// --- layer ledger: what the client signature of a wave costs ----------------

func BenchmarkWaveSign(b *testing.B) {
	c := cryptoutil.DeriveKeyPair("client", 0)
	for _, n := range []int{1, 64, 256} {
		ops := waveOps(n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += len(SignWave(c, ops).Sig)
			}
		})
	}
}

func BenchmarkWaveVerify(b *testing.B) {
	c := cryptoutil.DeriveKeyPair("client", 0)
	for _, n := range []int{1, 64, 256} {
		ww := SignWave(c, waveOps(n))
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := ww.VerifySig(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var benchSink int

func TestACL(t *testing.T) {
	a := cryptoutil.DeriveKeyPair("a", 0)
	b := cryptoutil.DeriveKeyPair("b", 0)
	acl := NewACL(a.Public)
	if !acl.Permits(a.Public) {
		t.Fatal("allowed key denied")
	}
	if acl.Permits(b.Public) {
		t.Fatal("unknown key permitted")
	}
	acl.Allow(b.Public)
	if !acl.Permits(b.Public) {
		t.Fatal("Allow did not take effect")
	}
}

func TestBehaviorModels(t *testing.T) {
	payload := []byte("truth")
	qb := []byte("query")
	if (Honest{}).Corrupt(qb, payload, nil) != nil {
		t.Fatal("honest corrupted")
	}
	out := AlwaysLie{}.Corrupt(qb, payload, nil)
	if out == nil || string(out) == string(payload) {
		t.Fatal("always-lie did not corrupt")
	}
	if !cryptoutil.HashBytes(out).Equal(cryptoutil.HashBytes(AlwaysLie{}.Corrupt(qb, payload, nil))) {
		t.Fatal("corruption not deterministic (collusion would fail)")
	}
}

func TestTargetedLieFraction(t *testing.T) {
	tl := TargetedLie{TargetFrac: 0.3}
	lied := 0
	const n = 2000
	for i := 0; i < n; i++ {
		qb := query.Encode(query.Get{Key: string(rune(i))})
		if tl.Corrupt(qb, []byte("p"), nil) != nil {
			lied++
		}
	}
	frac := float64(lied) / n
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("targeted fraction = %v, want ~0.3", frac)
	}
	// Determinism: the same query is always targeted or never.
	qb := query.Encode(query.Get{Key: "fixed"})
	first := tl.Corrupt(qb, []byte("p"), nil) != nil
	for i := 0; i < 10; i++ {
		if (tl.Corrupt(qb, []byte("p"), nil) != nil) != first {
			t.Fatal("targeting not deterministic")
		}
	}
}

func TestQuickPledgeRoundTrip(t *testing.T) {
	m := cryptoutil.DeriveKeyPair("master", 0)
	s := cryptoutil.DeriveKeyPair("slave", 0)
	f := func(qb []byte, version uint64, unix int64) bool {
		st := SignStamp(m, version, time.Unix(unix%1e9, 0).UTC())
		p := SignPledge(s, qb, cryptoutil.HashBytes(qb), st)
		r := wire.NewReader(EncodePledge(p))
		got, err := DecodePledge(r)
		if err != nil || r.Done() != nil {
			return false
		}
		return got.VerifySig() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyTrackerFlagsAbuser(t *testing.T) {
	p := DefaultParams()
	g := newGreedyTracker(p)
	now := time.Unix(0, 0)
	// 5 fair clients at ~1 check per tick, 1 abuser at 20 per tick.
	flagged := false
	for tick := 0; tick < 30; tick++ {
		now = now.Add(time.Second)
		for c := 0; c < 5; c++ {
			g.record(string(rune('a'+c)), now)
		}
		for j := 0; j < 20; j++ {
			if g.record("abuser", now) {
				flagged = true
			}
		}
	}
	if !flagged {
		t.Fatal("abuser never flagged")
	}
	if g.isFlagged("a") {
		t.Fatal("fair client flagged")
	}
}

func TestGreedyTrackerWindowExpiry(t *testing.T) {
	p := DefaultParams()
	p.GreedyWindow = 10 * time.Second
	g := newGreedyTracker(p)
	now := time.Unix(0, 0)
	for i := 0; i < 100; i++ {
		g.record("c", now)
		g.record("d", now)
	}
	// Far in the future, a single record should not be flagged.
	now = now.Add(time.Hour)
	if g.record("c", now) {
		t.Fatal("stale window entries still counted")
	}
}
