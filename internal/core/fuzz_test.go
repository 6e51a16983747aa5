package core

import (
	"bytes"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/pki"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/store"
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

// FuzzDecodeBatchMessage drives the bcBatch body decoder — what every
// master and the auditor read from a delivered broadcast slot, and what
// b.submit takes from anyone — over arbitrary bytes. The invariants: no
// panic; whatever decodes re-encodes through encodeBatchMessage to a
// frame that decodes to the same ops; and that re-encoding is a fixed
// point, byte for byte. (A body with overlong varints decodes too, so it
// is the re-encoding, not the body, that is canonical.)
func FuzzDecodeBatchMessage(f *testing.F) {
	body := func(ops ...[]byte) []byte {
		return encodeBatchMessage([]queuedWave{{ops: ops}})[1:] // after the kind byte
	}
	f.Add(body(store.EncodeOp(store.Put{Key: "a", Value: []byte("1")}),
		store.EncodeOp(store.Delete{Key: "b"}), []byte{0xff})) // the last op does not decode; the frame does
	f.Add(body())
	f.Add([]byte{})
	f.Add([]byte{0x81, 0x00})                   // op count as an overlong varint
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}) // op count far beyond the frame
	f.Add(append(body([]byte("op")), 0x00))     // trailing byte

	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := decodeBatchMessage(wire.NewReader(data))
		if err != nil {
			return
		}
		enc := encodeBatchMessage([]queuedWave{{ops: ops}})
		if enc[0] != bcBatch {
			t.Fatalf("re-encoded frame starts with kind %d", enc[0])
		}
		ops2, err := decodeBatchMessage(wire.NewReader(enc[1:]))
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if !slices.EqualFunc(ops2, ops, bytes.Equal) {
			t.Fatalf("round trip changed the batch: %d ops -> %d", len(ops), len(ops2))
		}
		if !bytes.Equal(encodeBatchMessage([]queuedWave{{ops: ops2}}), enc) {
			t.Fatal("re-encoding is not canonical")
		}
	})
}

// FuzzDecodePledge drives the evidence-frame decoder — what a.pledge,
// m.report, bcExclude and pki.Exclusion.Evidence carry —
// over arbitrary bytes. The invariants: no panic on any input, in either
// decoder or in the signature check run on what came out; the copying
// decoder and the view decoder accept the same frames and read the same
// pledge from them; whatever decodes re-encodes to a frame that decodes to
// the same pledge, that re-encoding is a fixed point, and equal pledges
// sign equal bytes; and a decoded pledge's stamp holds its version and
// nothing else.
func FuzzDecodePledge(f *testing.F) {
	fx := newCacheFixture()
	honest := EncodePledge(fx.pledge)
	f.Add(honest)
	f.Add(EncodePledge(Pledge{}))
	f.Add(honest[:len(honest)/2]) // truncated inside the slave key
	f.Add(append(bytes.Clone(honest), 0x7))
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x03, 1, 2, 3})             // result hash of the wrong length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0}) // query length far beyond the frame
	// The frame before the evidence frame: the whole master stamp between
	// the hash and the slave key.
	f.Add(wire.EncodeFrame(func(w *wire.Writer) {
		w.Bytes_(fx.pledge.QueryBytes)
		w.Bytes_(fx.pledge.ResultHash[:])
		fx.pledge.Stamp.Encode(w)
		w.Bytes_(fx.pledge.SlavePub)
		w.Bytes_(fx.pledge.Sig)
	}))

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
		if st := p.Stamp; !st.Timestamp.IsZero() || st.OpDigest != (cryptoutil.Digest{}) || st.MasterPub != nil || st.Kind != 0 || st.Sig != nil {
			t.Fatalf("evidence decoded to more of a stamp than its version: %+v", p.Stamp)
		}
		enc := EncodePledge(p)
		if !bytes.Equal(EncodePledge(view), enc) {
			t.Fatal("the two decoders read different pledges from one frame")
		}
		again, err := decodePledgeFrame(enc)
		if err != nil {
			t.Fatalf("re-encoded pledge does not decode: %v", err)
		}
		if !bytes.Equal(again.QueryBytes, p.QueryBytes) || again.ResultHash != p.ResultHash ||
			again.Stamp.Version != p.Stamp.Version || !bytes.Equal(again.SlavePub, p.SlavePub) || !bytes.Equal(again.Sig, p.Sig) {
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

// FuzzDecodeReadReply drives the s.read reply decoder — the frame every
// client decodes from a slave it does not trust — over arbitrary bytes.
// The invariants: no panic on any input, in the decoder or in the checks a
// client runs on what came out; whatever decodes re-encodes to a reply
// that decodes to the same payload, stamp, signature and flag; and that
// re-encoding is a fixed point.
func FuzzDecodeReadReply(f *testing.F) {
	fx := newCacheFixture()
	honest := EncodeReadReply(ReadReply{Payload: []byte("result"), Pledge: fx.pledge})
	batch := fx.pledge
	batch.Stamp = SignBatchStamp(fx.master, 7, time.Unix(1000, 0), cryptoutil.Digest{1})
	f.Add(honest)
	f.Add(EncodeReadReply(ReadReply{Payload: []byte("a lie"), Pledge: batch, XLie: true}))
	f.Add(EncodeReadReply(ReadReply{}))
	f.Add(honest[:len(honest)/2]) // truncated inside the stamp
	f.Add(append(bytes.Clone(honest), 0x7))
	f.Add([]byte{})
	f.Add(append([]byte{0x86, 0x00}, honest[1:]...))  // payload length as an overlong varint
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0})    // payload length far beyond the frame
	f.Add([]byte{0x00, 0x01, 0x00, 0x03, 1, 2, 3, 0}) // op digest of the wrong length

	trusted := []cryptoutil.PublicKey{fx.master.Public}
	f.Fuzz(func(t *testing.T, data []byte) {
		rr, err := DecodeReadReply(data)
		if err != nil {
			return
		}
		enc := EncodeReadReply(rr)
		// What a client does with it; any length of key or signature must
		// be survivable.
		_ = rr.completePledge(fx.pledge.QueryBytes, fx.slave.Public).VerifySig()
		_ = rr.Pledge.Stamp.Verify(trusted)
		again, err := DecodeReadReply(enc)
		if err != nil {
			t.Fatalf("re-encoded reply does not decode: %v", err)
		}
		if !bytes.Equal(again.Payload, rr.Payload) || again.XLie != rr.XLie || !bytes.Equal(again.Pledge.Sig, rr.Pledge.Sig) ||
			!bytes.Equal(again.Pledge.Stamp.signedBytes(), rr.Pledge.Stamp.signedBytes()) ||
			again.Pledge.Stamp.Kind != rr.Pledge.Stamp.Kind || !bytes.Equal(again.Pledge.Stamp.Sig, rr.Pledge.Stamp.Sig) {
			t.Fatalf("round trip changed the reply: %+v -> %+v", rr, again)
		}
		if !bytes.Equal(EncodeReadReply(again), enc) {
			t.Fatal("re-encoding is not canonical")
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

// deliverState is what a delivered control message may change: the
// version, this master's slave set, its peers' slave sets, the dead
// masters it has adopted from and the slaves it has excluded.
type deliverState struct {
	version  uint64
	slaves   []string
	peers    map[string]int
	adopted  map[string]bool
	excluded map[string]bool
}

func snapshotDeliverState(m *Master) deliverState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := deliverState{version: m.store.Version(), peers: map[string]int{},
		adopted: maps.Clone(m.adopted), excluded: maps.Clone(m.excluded)}
	for _, e := range m.slaves {
		st.slaves = append(st.slaves, e.addr)
	}
	for p, es := range m.peerSlaves {
		st.peers[p] = len(es)
	}
	return st
}

// FuzzMasterDeliver feeds Master.deliver fuzzed ordered messages of every
// kind — b.submit takes them from anyone, and every master delivers what
// the sequencer orders. The kinds form a table, each with a decoder that
// reads the message as its arm of deliver must; the seeds are well-formed
// messages of each kind. The invariants: no panic; and a message that does
// not decode leaves the version, the slave set, the peers' slave sets, the
// adoptions and the exclusions as they were. A bcBatch comes with no
// waiting waves, as on every master but its origin.
func FuzzMasterDeliver(f *testing.F) {
	certs := func(r *wire.Reader, owners bool) bool {
		n := r.Count()
		for i := 0; i < n; i++ {
			if owners {
				_ = r.String()
			}
			if _, err := pki.DecodeCertificate(r); err != nil {
				return false
			}
		}
		return true
	}
	decodes := map[byte]func(r *wire.Reader) bool{
		bcSlaveList: func(r *wire.Reader) bool { _ = r.String(); return certs(r, false) && r.Done() == nil },
		bcAdopt:     func(r *wire.Reader) bool { _ = r.String(); return certs(r, true) && r.Done() == nil },
		bcExclude: func(r *wire.Reader) bool {
			evidence := r.Bytes()
			r.BytesView()
			r.BytesView()
			_, err := decodePledgeFrame(evidence)
			return err == nil && r.Done() == nil
		},
		bcReadmit: func(r *wire.Reader) bool {
			_ = r.String()
			_, err := pki.DecodeCertificate(r)
			return err == nil && r.Done() == nil
		},
		bcBatch: func(r *wire.Reader) bool { _, err := decodeBatchMessage(r); return err == nil },
	}

	master := cryptoutil.DeriveKeyPair("master", 0) // the rig's master, certified in its directory
	slave := cryptoutil.DeriveKeyPair("slave", 0)
	cert := pki.Certificate{Role: pki.RoleSlave, Addr: "slave-0", Subject: slave.Public, IssuedAt: sim.Epoch}
	cert.Sign(master)
	frame := func(kind byte, enc func(w *wire.Writer)) []byte {
		return wire.EncodeFrame(func(w *wire.Writer) { w.Byte(kind); enc(w) })
	}
	evidence := EncodePledge(SignPledge(slave, query.Encode(query.Get{Key: "k"}), cryptoutil.Digest{1}, SignStamp(master, 1, sim.Epoch)))
	f.Add(frame(bcSlaveList, func(w *wire.Writer) { w.String_("master-9"); w.Uvarint(1); cert.Encode(w) }))
	f.Add(frame(bcAdopt, func(w *wire.Writer) { w.String_("master-9"); w.Uvarint(1); w.String_("master"); cert.Encode(w) }))
	f.Add(frame(bcExclude, func(w *wire.Writer) {
		w.Bytes_(evidence)
		w.Bytes_(master.Public)
		w.Bytes_(master.Sign(excludeSignedBytes(evidence)))
	}))
	f.Add(frame(bcReadmit, func(w *wire.Writer) { w.String_("master"); cert.Encode(w) }))
	f.Add(encodeBatchMessage([]queuedWave{{ops: [][]byte{store.EncodeOp(store.Put{Key: "a", Value: []byte("1")})}}}))
	f.Add(frame(bcSlaveList, func(w *wire.Writer) { w.String_("master-9"); w.Uvarint(1 << 40) }))
	f.Add(frame(bcReadmit, func(w *wire.Writer) { w.String_("master"); cert.Encode(w); w.Byte(0) })) // trailing byte

	f.Fuzz(func(t *testing.T, msg []byte) {
		r := newMasterRig(t, nil)
		before := snapshotDeliverState(r.master)
		r.s.Go(func() { r.master.deliver(1, msg, nil) })
		r.s.Run()
		if len(msg) == 0 {
			return
		}
		decode, known := decodes[msg[0]]
		if known && decode(wire.NewReader(msg[1:])) {
			return
		}
		if after := snapshotDeliverState(r.master); !reflect.DeepEqual(after, before) {
			t.Fatalf("a kind-%d message that does not decode changed the master:\n%+v\n->\n%+v", msg[0], before, after)
		}
	})
}

// FuzzWALRecord drives the WAL record framing replayWALRecord reads —
// uvarint broadcast slot, then the batch entry: first version, ops and
// stamp — over arbitrary bytes, through replay itself on a fresh master.
// The invariants: no panic; a record that decodes re-encodes through
// encodeWALRecord to one that decodes to the same slot and batch; and that
// re-encoding is a fixed point, byte for byte. (A record with overlong
// varints decodes too, so it is the re-encoding, not the record, that is
// canonical.)
func FuzzWALRecord(f *testing.F) {
	keys := cryptoutil.DeriveKeyPair("master", 0)
	ops := [][]byte{store.EncodeOp(store.Put{Key: "a", Value: []byte("1")}), store.EncodeOp(store.Delete{Key: "k"})}
	var sc batchScratch
	record := encodeWALRecord(4, &BatchUpdate{First: 2, Ops: ops,
		Stamp: SignBatchStamp(keys, 3, time.Unix(1, 0), sc.rebuild(2, ops).Root())})
	f.Add(record) // continues the rig's store: replay applies it
	f.Add(record[:len(record)-1])
	f.Add(append(bytes.Clone(record), 0))
	f.Add([]byte{})
	f.Add([]byte{0x81, 0x00, 0x02, 0xff, 0xff, 0xff, 0xff, 0x0f}) // overlong slot, op count beyond the record

	decode := func(data []byte) (uint64, BatchUpdate, error) {
		r := wire.NewReader(data)
		seq := r.Uvarint()
		bu, err := decodeBatchEntry(r, (*wire.Reader).BytesSlice)
		if err == nil {
			err = r.Done()
		}
		return seq, bu, err
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = newMasterRig(t, nil).master.replayWALRecord(data)
		seq, bu, err := decode(data)
		if err != nil {
			return
		}
		enc := encodeWALRecord(seq, &bu)
		seq2, bu2, err := decode(enc)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if seq2 != seq || bu2.First != bu.First || !slices.EqualFunc(bu2.Ops, bu.Ops, bytes.Equal) {
			t.Fatalf("round trip changed the record: slot %d, %d ops from %d -> slot %d, %d ops from %d",
				seq, len(bu.Ops), bu.First, seq2, len(bu2.Ops), bu2.First)
		}
		if !bytes.Equal(encodeWALRecord(seq2, &bu2), enc) {
			t.Fatal("re-encoding is not canonical")
		}
	})
}

// FuzzAuditorHandlePledge drives the auditor's a.pledge handler over
// arbitrary bodies, against an auditor at version cur that has cached
// Get k there and holds three batches it has not applied: j at cur+1, k
// at cur+2, and k and j again at cur+3 and cur+4 in one batch, so cur+3 is
// no batch boundary. The invariants: no panic; the reply is the vouch
// exactly when every frame decodes, sits on a held boundary (cur, cur+1,
// cur+2 or cur+4) and names a query whose answer replayed at its version
// is its result hash, and empty otherwise; and every received pledge is
// settled or waiting, never both or neither.
func FuzzAuditorHandlePledge(f *testing.F) {
	put := func(key, value string) store.Op { return store.Put{Key: key, Value: []byte(value)} }
	batches := [][]store.Op{{put("j", "1")}, {put("k", "v2")}, {put("k", "v3"), put("j", "2")}}
	// warm returns the rig and its content at cur, cur+1, ..., cur+4.
	warm := func(t testing.TB) (*auditorRig, []*store.Store) {
		r := newAuditorRig(t, nil)
		r.auditor.dlr = nopDialer{}
		if err := r.sendPledge(r.pledgeFor(query.Get{Key: "k"}, false)); err != nil {
			t.Fatal(err)
		}
		at := []*store.Store{r.initial.Clone()}
		for _, ops := range batches {
			for _, op := range ops {
				next := at[len(at)-1].Clone()
				next.Apply(op)
				at = append(at, next)
			}
			r.commit(ops...)
		}
		return r, at
	}
	boundary := map[int]bool{0: true, 1: true, 2: true, 4: true}
	r, at := warm(f)
	cur := r.auditor.Version()
	k, other := query.Get{Key: "k"}, query.Get{Key: "other"}
	// pledge is q's answer in the content at version answerAt, pledged at
	// version v.
	pledge := func(q query.Query, answerAt, v uint64) []byte {
		res, err := q.Execute(at[answerAt-cur])
		if err != nil {
			f.Fatal(err)
		}
		stamp := SignStamp(r.master, v, r.s.Now())
		return EncodePledge(SignPledge(r.slave, query.Encode(q), res.Digest(), stamp))
	}
	honest := pledge(k, cur, cur)
	ahead := pledge(other, cur+1, cur+1)
	conflict := pledge(k, cur+2, cur+2) // k's new value, written at cur+2
	stale := pledge(k, cur, cur+2)      // k's answer at cur, a lie at cur+2
	beyond := pledge(k, cur+4, cur+5)
	lie := EncodePledge(r.resign(r.pledgeFor(k, true), cur))
	f.Add(honest)
	f.Add(ahead)
	f.Add(append(bytes.Clone(honest), ahead...))
	f.Add(conflict)
	f.Add(stale)
	f.Add(beyond)
	f.Add(lie)
	f.Add(append(bytes.Clone(honest), lie...))
	f.Add(honest[:len(honest)-1])
	f.Add(append(bytes.Clone(honest), 0x00))
	f.Add([]byte{})
	f.Add(pledge(k, cur+3, cur+3))                                     // right inside a batch: late
	f.Add(pledge(k, cur+4, cur+4))                                     // the batch's boundary
	f.Add(append(pledge(k, cur+1, cur+1), conflict...))                // two held versions
	f.Add(append(pledge(k, cur+4, cur+4), pledge(k, cur+3, cur+2)...)) // the later answer at cur+2

	f.Fuzz(func(t *testing.T, body []byte) {
		r, at := warm(t)
		a := r.auditor
		cur := a.Version()
		ack, err := a.handlePledge(body)
		vouched := bytes.Equal(ack, pledgeVouch)
		right := true
		rd := wire.NewReader(body)
		for n := 0; right && (n == 0 || rd.Remaining() > 0); n++ {
			p, derr := decodePledge(rd)
			q, qerr := query.Decode(p.QueryBytes)
			d := int(p.Stamp.Version - cur)
			if derr != nil || qerr != nil || p.Stamp.Version < cur || !boundary[d] {
				right = false
				break
			}
			res, xerr := q.Execute(at[d])
			right = xerr == nil && res.Digest().Equal(p.ResultHash)
		}
		if vouched != right || (!vouched && len(ack) != 0) {
			t.Fatalf("ack %x for a body whose frames are all right at their versions: %v (err %v)", ack, right, err)
		}
		r.checkPartition(t)
	})
}
