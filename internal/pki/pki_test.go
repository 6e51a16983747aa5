package pki

import (
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

func TestCertificateSignVerify(t *testing.T) {
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	master := cryptoutil.DeriveKeyPair("master", 0)
	c := Certificate{
		Role:     RoleMaster,
		Addr:     "master-0",
		Subject:  master.Public,
		IssuedAt: time.Unix(1000, 0).UTC(),
		Serial:   1,
	}
	c.Sign(owner)
	if err := c.Verify(owner.Public); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestCertificateRejectsWrongIssuer(t *testing.T) {
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	evil := cryptoutil.DeriveKeyPair("evil", 0)
	c := Certificate{Role: RoleMaster, Addr: "m", Subject: owner.Public}
	c.Sign(evil)
	if err := c.Verify(owner.Public); err != ErrWrongIssuer {
		t.Fatalf("err = %v, want ErrWrongIssuer", err)
	}
}

func TestCertificateRejectsTampering(t *testing.T) {
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	m := cryptoutil.DeriveKeyPair("master", 0)
	c := Certificate{Role: RoleMaster, Addr: "real-addr", Subject: m.Public}
	c.Sign(owner)
	c.Addr = "attacker-addr"
	if err := c.Verify(owner.Public); err == nil {
		t.Fatal("tampered certificate verified")
	}
}

func TestCertificateCodec(t *testing.T) {
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	m := cryptoutil.DeriveKeyPair("master", 1)
	c := Certificate{
		Role: RoleSlave, Addr: "slave-3", Subject: m.Public,
		IssuedAt: time.Unix(5, 0).UTC(), Serial: 9,
	}
	c.Sign(owner)
	w := wire.NewWriter(0)
	c.Encode(w)
	r := wire.NewReader(w.Bytes())
	got, err := DecodeCertificate(r)
	if err != nil || r.Done() != nil {
		t.Fatalf("decode: %v / %v", err, r.Done())
	}
	if err := got.Verify(owner.Public); err != nil {
		t.Fatalf("decoded cert does not verify: %v", err)
	}
	if got.Addr != c.Addr || got.Serial != c.Serial || got.Role != c.Role {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestExclusionSignVerifyCodec(t *testing.T) {
	master := cryptoutil.DeriveKeyPair("master", 0)
	slave := cryptoutil.DeriveKeyPair("slave", 0)
	e := Exclusion{
		Subject:  slave.Public,
		Reason:   "wrong answer to get(catalog/001)",
		At:       time.Unix(99, 0).UTC(),
		Evidence: []byte("pledge-bytes"),
	}
	e.Sign(master)
	if err := e.Verify(master.Public); err != nil {
		t.Fatalf("verify: %v", err)
	}
	w := wire.NewWriter(0)
	e.Encode(w)
	r := wire.NewReader(w.Bytes())
	got, err := DecodeExclusion(r)
	if err != nil || r.Done() != nil {
		t.Fatalf("decode: %v / %v", err, r.Done())
	}
	if err := got.Verify(master.Public); err != nil {
		t.Fatalf("decoded exclusion does not verify: %v", err)
	}
	e.Reason = "something else"
	e.Sig = got.Sig
	if err := e.Verify(master.Public); err == nil {
		t.Fatal("tampered exclusion verified")
	}
}

func TestDirectoryPublishLookup(t *testing.T) {
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	d := NewDirectory()
	if _, err := d.Lookup(owner.Public); err != ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	for i := 0; i < 3; i++ {
		m := cryptoutil.DeriveKeyPair("master", i)
		c := Certificate{Role: RoleMaster, Addr: "m", Subject: m.Public}
		c.Sign(owner)
		d.Publish(owner.Public, c)
	}
	certs, err := d.Lookup(owner.Public)
	if err != nil || len(certs) != 3 {
		t.Fatalf("lookup: %v, %d certs", err, len(certs))
	}
}

func TestDirectoryPublishReplacesSameSubject(t *testing.T) {
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	m := cryptoutil.DeriveKeyPair("master", 0)
	d := NewDirectory()
	c1 := Certificate{Role: RoleMaster, Addr: "old", Subject: m.Public}
	c1.Sign(owner)
	c2 := Certificate{Role: RoleMaster, Addr: "new", Subject: m.Public}
	c2.Sign(owner)
	d.Publish(owner.Public, c1)
	d.Publish(owner.Public, c2)
	certs, _ := d.Lookup(owner.Public)
	if len(certs) != 1 || certs[0].Addr != "new" {
		t.Fatalf("certs = %+v", certs)
	}
}

func TestDirectoryWithdraw(t *testing.T) {
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	m := cryptoutil.DeriveKeyPair("master", 0)
	d := NewDirectory()
	c := Certificate{Role: RoleMaster, Addr: "m", Subject: m.Public}
	c.Sign(owner)
	d.Publish(owner.Public, c)
	r := Retraction{Kind: RetractWithdraw, Subject: m.Public, At: time.Unix(1, 0)}
	r.Sign(m)
	if err := d.Retract(owner.Public, r); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Lookup(owner.Public); err != ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound after withdraw", err)
	}
}

func TestVerifiedMastersFiltersForgeries(t *testing.T) {
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	evil := cryptoutil.DeriveKeyPair("evil", 0)
	d := NewDirectory()
	good := cryptoutil.DeriveKeyPair("master", 0)
	c := Certificate{Role: RoleMaster, Addr: "good", Subject: good.Public}
	c.Sign(owner)
	d.Publish(owner.Public, c)
	// A forged certificate stuffed into the directory by an attacker.
	bad := Certificate{Role: RoleMaster, Addr: "evil", Subject: evil.Public}
	bad.Sign(evil)
	d.Publish(owner.Public, bad)
	// A slave cert published in the wrong place.
	sc := Certificate{Role: RoleSlave, Addr: "s", Subject: good.Public}
	sc.Sign(owner)
	d.Publish(owner.Public, sc)

	certs, err := d.VerifiedMasters(owner.Public)
	if err != nil {
		t.Fatal(err)
	}
	if len(certs) != 1 || certs[0].Addr != "good" {
		t.Fatalf("verified = %+v", certs)
	}
}

func TestDirectoryExclusions(t *testing.T) {
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	master := cryptoutil.DeriveKeyPair("master", 0)
	slave := cryptoutil.DeriveKeyPair("slave", 0)
	d := NewDirectory()
	if d.IsExcluded(owner.Public, slave.Public) {
		t.Fatal("excluded before any record")
	}
	e := Exclusion{Subject: slave.Public, Reason: "caught"}
	e.Sign(master)
	d.RecordExclusion(owner.Public, e)
	if !d.IsExcluded(owner.Public, slave.Public) {
		t.Fatal("not excluded after record")
	}
	if got := d.Exclusions(owner.Public); len(got) != 1 || got[0].Reason != "caught" {
		t.Fatalf("exclusions = %+v", got)
	}
}
