package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/wal"
	"repro/internal/wire"
)

// FuzzDecodeWriteWave drives the m.writemulti frame decoder over
// arbitrary bytes. The invariants under fuzz: no panic on any input
// (decode or verification); whatever decodes re-encodes to a frame that
// decodes to the same wave (round-trip identity); and that re-encoding
// is a fixed point — the signature covers bytes rebuilt from the decoded
// fields, so two frames that decode alike must sign alike however their
// varints were padded on the wire.
func FuzzDecodeWriteWave(f *testing.F) {
	c := cryptoutil.DeriveKeyPair("client", 0)
	f.Add(encodeWave(SignWave(c, waveOps(3))))
	f.Add(encodeWave(SignWave(c, nil)))
	f.Add([]byte{})
	f.Add([]byte{0x00, 0xff, 0xff, 0xff, 0xff, 0x0f})       // count far beyond the frame
	f.Add([]byte{0x00, 0x81, 0x00, 0x01, 'x', 0x00})        // count 1 as an overlong varint
	f.Add(encodeWave(SignWave(c, waveOps(3)))[:40])         // truncated inside the ops
	f.Add(append(encodeWave(SignWave(c, waveOps(1))), 0x7)) // trailing byte

	signed := func(ww WriteWave) []byte {
		w := wire.NewWriter(0)
		ww.appendSignedBytes(w)
		return w.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ww, err := DecodeWriteWave(data)
		if err != nil {
			return
		}
		_ = ww.VerifySig() // any key and signature length must be survivable
		enc := encodeWave(ww)
		again, err := DecodeWriteWave(enc)
		if err != nil {
			t.Fatalf("re-encoded wave does not decode: %v", err)
		}
		if !bytes.Equal(again.ClientPub, ww.ClientPub) || !bytes.Equal(again.Sig, ww.Sig) || len(again.Ops) != len(ww.Ops) {
			t.Fatalf("round trip changed the wave: %d ops -> %d", len(ww.Ops), len(again.Ops))
		}
		for i := range ww.Ops {
			if !bytes.Equal(again.Ops[i], ww.Ops[i]) {
				t.Fatalf("round trip changed op %d", i)
			}
		}
		if !bytes.Equal(encodeWave(again), enc) {
			t.Fatal("re-encoding is not canonical")
		}
		if !bytes.Equal(signed(again), signed(ww)) {
			t.Fatal("equal waves sign different bytes")
		}
	})
}

// FuzzDecodeBatchUpdate drives the s.updatebatch frame decoder over
// arbitrary bytes, seeded with every frame of the slave's tamper table.
// The invariants: no panic on any input, in the decoder or in the check a
// slave runs on what it decoded; an op count above wire.MaxBatchItems is
// refused; whatever decodes re-encodes to a frame that decodes to the
// same batch, and that re-encoding is a fixed point.
func FuzzDecodeBatchUpdate(f *testing.F) {
	m, evil := cryptoutil.DeriveKeyPair("master", 0), cryptoutil.DeriveKeyPair("evil", 0)
	now := time.Unix(1, 0)
	f.Add(EncodeBatchUpdate(signedBatch(m, 2, waveOps(3), now)))
	for _, tc := range batchTamperCases {
		f.Add(tc.frame(m, evil, now))
	}
	overCount := []byte{0x02, 0x81, 0x80, 0x04} // first 2, count MaxBatchItems+1
	if _, err := DecodeBatchUpdate(overCount); !errors.Is(err, wire.ErrTooLarge) {
		f.Fatalf("count above MaxBatchItems: err = %v, want ErrTooLarge", err)
	}
	f.Add(overCount)
	f.Add([]byte{})
	f.Add([]byte{0x02, 0xff, 0xff, 0xff, 0xff, 0x0f}) // count far beyond the frame
	f.Add([]byte{0x82, 0x00, 0x01, 0x01, 'x'})        // first as an overlong varint

	trusted := []cryptoutil.PublicKey{m.Public}
	f.Fuzz(func(t *testing.T, data []byte) {
		bu, err := DecodeBatchUpdate(data)
		if err != nil {
			return
		}
		if len(bu.Ops) > wire.MaxBatchItems {
			t.Fatalf("decoded %d ops, above wire.MaxBatchItems", len(bu.Ops))
		}
		_ = bu.Verify(trusted) // any stamp, key and signature length must be survivable
		_ = bu.VerifyMembers(new(batchScratch))
		enc := EncodeBatchUpdate(bu)
		again, err := DecodeBatchUpdate(enc)
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if again.First != bu.First || again.MasterAddr != bu.MasterAddr || len(again.Ops) != len(bu.Ops) ||
			!bytes.Equal(again.Stamp.signedBytes(), bu.Stamp.signedBytes()) || !bytes.Equal(again.Stamp.Sig, bu.Stamp.Sig) {
			t.Fatalf("round trip changed the batch: %+v -> %+v", bu, again)
		}
		for i := range bu.Ops {
			if !bytes.Equal(again.Ops[i], bu.Ops[i]) {
				t.Fatalf("round trip changed op %d", i)
			}
		}
		if !bytes.Equal(EncodeBatchUpdate(again), enc) {
			t.Fatal("re-encoding is not canonical")
		}
	})
}

// FuzzDecodePledge drives the pledge decoder — what s.read replies,
// a.pledge, a.pledgemulti, m.report and bcExclude all carry — over
// arbitrary bytes. The invariants: no panic on any input, in either
// decoder or in the signature checks run on what came out; the copying
// decoder and the view decoder accept the same frames and read the same
// pledge from them; whatever decodes re-encodes to a frame that decodes to
// the same pledge, that re-encoding is a fixed point, and equal pledges
// sign equal bytes.
func FuzzDecodePledge(f *testing.F) {
	fx := newCacheFixture()
	honest := EncodePledge(fx.pledge)
	batch := fx.pledge
	batch.Stamp = SignBatchStamp(fx.master, 7, time.Unix(1000, 0), cryptoutil.Digest{1})
	f.Add(honest)
	f.Add(EncodePledge(batch))
	f.Add(EncodePledge(Pledge{}))
	f.Add(honest[:len(honest)/2]) // truncated inside the stamp
	f.Add(append(bytes.Clone(honest), 0x7))
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x03, 1, 2, 3})             // result hash of the wrong length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0}) // query length far beyond the frame

	trusted := []cryptoutil.PublicKey{fx.master.Public}
	signed := func(p Pledge) []byte {
		w := wire.NewWriter(0)
		p.appendSignedBytes(w)
		return w.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		view, verr := decodePledgeFrame(data)
		r := wire.NewReader(data)
		p, err := DecodePledge(r)
		if err == nil {
			err = r.Done()
		}
		if (err == nil) != (verr == nil) {
			t.Fatalf("copying decoder: %v, view decoder: %v", err, verr)
		}
		if err != nil {
			return
		}
		_ = p.VerifySig() // any key and signature length must be survivable
		_ = p.Stamp.Verify(trusted)
		enc := EncodePledge(p)
		if !bytes.Equal(EncodePledge(view), enc) {
			t.Fatal("the two decoders read different pledges from one frame")
		}
		again, err := decodePledgeFrame(enc)
		if err != nil {
			t.Fatalf("re-encoded pledge does not decode: %v", err)
		}
		if !bytes.Equal(again.QueryBytes, p.QueryBytes) || again.ResultHash != p.ResultHash ||
			!bytes.Equal(again.SlavePub, p.SlavePub) || !bytes.Equal(again.Sig, p.Sig) ||
			!bytes.Equal(again.Stamp.signedBytes(), p.Stamp.signedBytes()) || !bytes.Equal(again.Stamp.Sig, p.Stamp.Sig) {
			t.Fatalf("round trip changed the pledge: %+v -> %+v", p, again)
		}
		if !bytes.Equal(EncodePledge(again), enc) {
			t.Fatal("re-encoding is not canonical")
		}
		if !bytes.Equal(signed(again), signed(p)) {
			t.Fatal("equal pledges sign different bytes")
		}
	})
}

// FuzzDecodeStateTransfer drives the m.sync reply verifier — what a slave's
// sync, a slave's Bootstrap, a restarted master's catch-up and a durable
// master's snapshot file all read — over arbitrary bytes, seeded with
// every reply of the tamper table and two snapshot files. The invariants:
// no panic on any input; no more batches or ops come out than bytes went
// in; whatever is accepted re-encodes to a reply that is accepted again
// and reads the same, and that re-encoding is a fixed point.
func FuzzDecodeStateTransfer(f *testing.F) {
	m, evil := cryptoutil.DeriveKeyPair("master", 0), cryptoutil.DeriveKeyPair("evil", 0)
	now := time.Unix(1, 0)
	for _, tc := range transferTamperCases {
		f.Add(tc.reply(m, evil, now, max(tc.at, 1)+1))
	}
	records := honestTransfer(m, now, 1)
	records.snap = nil
	f.Add(records.encode())
	// Snapshot files: the state at 7 as persistState writes it, and the
	// state at 3 in the same shape with the WAL records that follow it on
	// disk carried as the batches after it.
	dir := f.TempDir()
	wl, _, err := wal.Open(filepath.Join(dir, "wal"))
	if err != nil {
		f.Fatal(err)
	}
	whole := honestTransfer(m, now, 7)
	durable := &Master{cfg: MasterConfig{DataDir: dir}, wlog: wl}
	durable.persistState(whole.anchor, whole.snap)
	wl.Close()
	file, err := os.ReadFile(durable.snapFilePath())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(file)
	withWAL := honestTransfer(m, now, 3)
	withWAL.closing = withWAL.snap.stamp
	f.Add(withWAL.encode())
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x81, 0x00}) // count 1 as an overlong varint, nothing after it

	trusted := []cryptoutil.PublicKey{m.Public}
	encode := func(st *stateTransfer) []byte {
		p := transferParts{batches: st.batches, closing: st.closing, anchor: st.anchor}
		if st.snap != nil {
			p.snap = &ckptSnapshot{bytes: st.snapBytes, stamp: st.snapStamp}
		}
		return p.encode()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeStateTransfer(data, trusted, nil)
		if err != nil {
			if st != nil {
				t.Fatal("a refused reply still handed its contents back")
			}
			return
		}
		ops := 0
		for i := range st.batches {
			if len(st.ops[i]) != len(st.batches[i].Ops) {
				t.Fatalf("batch %d: %d ops decoded of %d", i, len(st.ops[i]), len(st.batches[i].Ops))
			}
			ops += len(st.ops[i])
		}
		if len(st.batches) > len(data) || ops > len(data) || len(st.ops) != len(st.batches) {
			t.Fatalf("%d batches and %d ops out of %d bytes", len(st.batches), ops, len(data))
		}
		enc := encode(st)
		again, err := decodeStateTransfer(enc, trusted, nil)
		if err != nil {
			t.Fatalf("re-encoded reply is refused: %v", err)
		}
		if (again.snap == nil) != (st.snap == nil) || !bytes.Equal(again.snapBytes, st.snapBytes) ||
			len(again.batches) != len(st.batches) || again.anchor != st.anchor ||
			!bytes.Equal(again.closing.signedBytes(), st.closing.signedBytes()) || !bytes.Equal(again.closing.Sig, st.closing.Sig) {
			t.Fatalf("round trip changed the reply: %+v -> %+v", st, again)
		}
		for i, bu := range st.batches {
			if again.batches[i].First != bu.First || len(again.batches[i].Ops) != len(bu.Ops) ||
				!bytes.Equal(again.batches[i].Stamp.Sig, bu.Stamp.Sig) {
				t.Fatalf("round trip changed batch %d", i)
			}
			for j := range bu.Ops {
				if !bytes.Equal(again.batches[i].Ops[j], bu.Ops[j]) {
					t.Fatalf("round trip changed op %d of batch %d", j, i)
				}
			}
		}
		if !bytes.Equal(encode(again), enc) {
			t.Fatal("re-encoding is not canonical")
		}
	})
}
