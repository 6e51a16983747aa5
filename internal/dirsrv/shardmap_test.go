package dirsrv

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/pki"
	"repro/internal/wire"
)

// TestShardMapAgreesWithBoundDirectory: every client sets up from
// ShardMap, in-process through core.BoundDirectory or over the wire
// through Client. Over the same directory state both must answer the
// same table, the same certificates and the same error — an unsharded
// deployment included, whose masters ride beside pki.ErrNoShardTable.
func TestShardMapAgreesWithBoundDirectory(t *testing.T) {
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	master := pki.Certificate{Role: pki.RoleMaster, Addr: "m0", Subject: cryptoutil.DeriveKeyPair("master", 0).Public}
	master.Sign(owner)
	auditor := pki.Certificate{Role: pki.RoleAuditor, Addr: "aud", Subject: cryptoutil.DeriveKeyPair("auditor", 0).Public, Shard: 1}
	auditor.Sign(owner)
	for _, tc := range []struct {
		name  string
		table bool
		certs []pki.Certificate
	}{
		{"empty directory", false, nil},
		{"certificates, no table", false, []pki.Certificate{master, auditor}},
		{"table, no certificates", true, nil},
		{"table and certificates", true, []pki.Certificate{master, auditor}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, srv, cl, _ := rig(t)
			if tc.table {
				if err := srv.Dir.PublishShardTable(owner.Public, ownerTable(owner, 1, "m")); err != nil {
					t.Fatal(err)
				}
			}
			for _, c := range tc.certs {
				srv.Dir.Publish(owner.Public, c)
			}
			local := core.BoundDirectory{Dir: srv.Dir, ContentKey: owner.Public}
			lt, lc, lerr := local.ShardMap()
			var rt pki.ShardTable
			var rc []pki.Certificate
			var rerr error
			s.Go(func() { rt, rc, rerr = cl.ShardMap() })
			s.Run()
			if lerr != rerr {
				t.Fatalf("errors differ: in-process %v, remote %v", lerr, rerr)
			}
			if a, b := wire.EncodeFrame(lt.Encode), wire.EncodeFrame(rt.Encode); !bytes.Equal(a, b) {
				t.Fatalf("tables differ: in-process %+v, remote %+v", lt, rt)
			}
			if a, b := wire.EncodeFrame(func(w *wire.Writer) { encodeCerts(w, lc) }), wire.EncodeFrame(func(w *wire.Writer) { encodeCerts(w, rc) }); !bytes.Equal(a, b) {
				t.Fatalf("certificates differ: in-process %d, remote %d", len(lc), len(rc))
			}
			if len(rc) != len(tc.certs) {
				t.Fatalf("%d certificates served, %d published", len(rc), len(tc.certs))
			}
		})
	}
}

// FuzzDecodeShardMap drives the d.shardmap reply decoder — what every
// client's Setup reads from the untrusted directory — over arbitrary
// bytes. The invariants: no panic on any input, in the decoder or in the
// signature checks a client runs on what came out; whatever decodes
// re-encodes to a reply that decodes to the same table and certificates,
// and that re-encoding is a fixed point; and a decoded table that
// verifies still verifies from its re-encoding.
func FuzzDecodeShardMap(f *testing.F) {
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	table := ownerTable(owner, 3, "g", "p")
	cert := pki.Certificate{Role: pki.RoleMaster, Addr: "m0", Subject: cryptoutil.DeriveKeyPair("master", 0).Public, Shard: 1}
	cert.Sign(owner)
	reply := func(t *pki.ShardTable, certs ...pki.Certificate) []byte {
		return wire.EncodeFrame(func(w *wire.Writer) { encodeShardMap(w, t, certs) })
	}
	f.Add(reply(&table, cert))
	f.Add(reply(nil, cert))
	f.Add(reply(nil))
	f.Add(reply(&table))
	f.Add(reply(&table, cert)[:20])             // truncated inside the table
	f.Add(append(reply(nil, cert), 0x7))        // trailing byte
	f.Add([]byte{0x01, 0x01, 0xff, 0xff, 0x0f}) // shard count far beyond the frame
	f.Add([]byte{0x00, 0x81, 0x00})             // certificate count 1 as an overlong varint
	f.Add([]byte{})

	encode := func(t pki.ShardTable, certs []pki.Certificate, err error) []byte {
		if err != nil {
			return reply(nil, certs...)
		}
		return reply(&t, certs...)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, certs, err := decodeShardMap(data)
		if err != nil && err != pki.ErrNoShardTable {
			return
		}
		verified := err == nil && tbl.Verify(tbl.Issuer) == nil
		for i := range certs {
			_ = certs[i].Verify(owner.Public) // any key and signature length must be survivable
		}
		enc := encode(tbl, certs, err)
		tbl2, certs2, err2 := decodeShardMap(enc)
		if err2 != err {
			t.Fatalf("re-encoded reply decodes with %v, first decode %v", err2, err)
		}
		if len(certs2) != len(certs) {
			t.Fatalf("round trip changed the certificates: %d -> %d", len(certs), len(certs2))
		}
		if !bytes.Equal(encode(tbl2, certs2, err2), enc) {
			t.Fatal("re-encoding is not canonical")
		}
		if verified && tbl2.Verify(tbl2.Issuer) != nil {
			t.Fatal("a verified table no longer verifies after a round trip")
		}
	})
}
