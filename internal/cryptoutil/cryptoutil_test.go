package cryptoutil

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"
)

func TestSignVerify(t *testing.T) {
	kp, err := GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("pledge packet")
	sig := kp.Sign(msg)
	if err := Verify(kp.Public, msg, sig); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	kp := DeriveKeyPair("test", 0)
	msg := []byte("original")
	sig := kp.Sign(msg)
	bad := []byte("0riginal")
	if err := Verify(kp.Public, bad, sig); err == nil {
		t.Fatal("tampered message verified")
	}
}

func TestVerifyRejectsTamperedSignature(t *testing.T) {
	kp := DeriveKeyPair("test", 1)
	msg := []byte("original")
	sig := kp.Sign(msg)
	sig[0] ^= 0xff
	if err := Verify(kp.Public, msg, sig); err == nil {
		t.Fatal("tampered signature verified")
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	a := DeriveKeyPair("test", 2)
	b := DeriveKeyPair("test", 3)
	msg := []byte("msg")
	sig := a.Sign(msg)
	if err := Verify(b.Public, msg, sig); err == nil {
		t.Fatal("wrong key verified")
	}
}

func TestVerifyRejectsMalformedKey(t *testing.T) {
	if err := Verify([]byte{1, 2, 3}, []byte("m"), []byte("s")); err != ErrBadKeySize {
		t.Fatalf("err = %v, want ErrBadKeySize", err)
	}
}

func TestDeriveKeyPairDeterministic(t *testing.T) {
	a := DeriveKeyPair("master", 7)
	b := DeriveKeyPair("master", 7)
	if !bytes.Equal(a.Public, b.Public) {
		t.Fatal("same (domain,index) produced different keys")
	}
	c := DeriveKeyPair("master", 8)
	if bytes.Equal(a.Public, c.Public) {
		t.Fatal("different index produced same key")
	}
	d := DeriveKeyPair("slave", 7)
	if bytes.Equal(a.Public, d.Public) {
		t.Fatal("different domain produced same key")
	}
}

func TestHashConcatLengthDelimited(t *testing.T) {
	a := HashConcat([]byte("ab"), []byte("c"))
	b := HashConcat([]byte("a"), []byte("bc"))
	if a.Equal(b) {
		t.Fatal("length-delimited hashing failed: boundary shift collided")
	}
}

// TestDigestKnownAnswers pins the hash: the first 20 bytes of SHA-256
// (FIPS 180-4's "abc" vector), and HashConcat's framing — each part behind
// its 8-byte big-endian length — under the same hash.
func TestDigestKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		name string
		got  Digest
		want string
	}{
		{`HashBytes("abc")`, HashBytes([]byte("abc")), "ba7816bf8f01cfea414140de5dae2223b00361a3"},
		{`HashConcat("a", "bc")`, HashConcat([]byte("a"), []byte("bc")), "3fafa1cf2f19a7c1129beb20cf0983f73a489a22"},
		{`HashConcat("")`, HashConcat(nil), "af5570f5a1810b7af78caf4bc70a660f0df51e42"},
	} {
		if c.got.String() != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
}

func TestHashBytesMatchesKnownProperty(t *testing.T) {
	a := HashBytes([]byte("x"))
	b := HashBytes([]byte("x"))
	if !a.Equal(b) {
		t.Fatal("hash not deterministic")
	}
	if a.IsZero() {
		t.Fatal("hash of nonempty input is zero")
	}
	if a.Equal(HashBytes([]byte("y"))) {
		t.Fatal("distinct inputs collided (astronomically unlikely)")
	}
}

func TestDigestStrings(t *testing.T) {
	d := HashBytes([]byte("q"))
	if len(d.String()) != DigestSize*2 {
		t.Fatalf("hex length = %d", len(d.String()))
	}
	if len(d.Short()) != 8 {
		t.Fatalf("short length = %d", len(d.Short()))
	}
}

func TestKeyFingerprintStable(t *testing.T) {
	kp := DeriveKeyPair("fp", 0)
	if KeyFingerprint(kp.Public) != KeyFingerprint(kp.Public) {
		t.Fatal("fingerprint unstable")
	}
	if len(KeyFingerprint(kp.Public)) != 12 {
		t.Fatalf("fingerprint length = %d", len(KeyFingerprint(kp.Public)))
	}
}

func TestQuickSignVerifyRoundTrip(t *testing.T) {
	kp := DeriveKeyPair("quick", 0)
	f := func(msg []byte) bool {
		sig := kp.Sign(msg)
		return Verify(kp.Public, msg, sig) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickHashConcatDeterministic(t *testing.T) {
	f := func(a, b []byte) bool {
		return HashConcat(a, b).Equal(HashConcat(a, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelScaling(t *testing.T) {
	c := DefaultCosts()
	if c.HashCost(2048) != 2*c.HashPerKB {
		t.Fatalf("hash cost = %v", c.HashCost(2048))
	}
	if c.HashCost(0) != 0 {
		t.Fatalf("hash cost of 0 bytes = %v", c.HashCost(0))
	}
	q := c.QueryCost(1024)
	if q != c.QueryBase+c.QueryPerKB {
		t.Fatalf("query cost = %v", q)
	}
}

func TestCostModelsOrdered(t *testing.T) {
	old, modern := DefaultCosts(), ModernCosts()
	if old.Sign <= modern.Sign {
		t.Fatal("2003-era signing should cost more than modern")
	}
	if old.Sign < 50*old.VerifySig/10 {
		t.Fatalf("sign/verify asymmetry too small: sign=%v verify=%v", old.Sign, old.VerifySig)
	}
	if old.Sign <= time.Duration(0) {
		t.Fatal("zero sign cost")
	}
}
