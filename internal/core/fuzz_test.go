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

// FuzzDecodeBatchUpdate drives the one rule every batch a replica takes
// passes (openBatch) over a bare batch entry — uvarint first ‖ ops ‖ stamp,
// one entry of an m.sync reply, a WAL record after its slot — over
// arbitrary bytes, seeded with a signed entry and every entry of the
// tamper table. The invariants: no panic on any input, whatever length a
// stamp's key or signature has; an op count above wire.MaxBatchItems is
// refused; an entry that opens holds every op decoded, and re-encodes to
// an entry that opens to the same batch, and that re-encoding is a fixed
// point.
func FuzzDecodeBatchUpdate(f *testing.F) {
	m, evil := cryptoutil.DeriveKeyPair("master", 0), cryptoutil.DeriveKeyPair("evil", 0)
	trusted := []cryptoutil.PublicKey{m.Public}
	now := time.Unix(1, 0)
	open := func(entry []byte) (openedBatch, error) {
		r := wire.NewReader(entry)
		b, _, err := openBatch(r, trusted, nil)
		if err != nil {
			return b, err
		}
		return b, r.Done()
	}
	f.Add(entryBytes(signedBatch(m, 2, waveOps(3), now)))
	for _, tc := range batchTamperCases {
		f.Add(tc.entry(m, evil, now))
	}
	overCount := []byte{0x02, 0x81, 0x80, 0x04} // first 2, count MaxBatchItems+1
	if _, err := open(overCount); !errors.Is(err, wire.ErrTooLarge) {
		f.Fatalf("count above MaxBatchItems: err = %v, want ErrTooLarge", err)
	}
	f.Add(overCount)
	f.Add([]byte{})
	f.Add([]byte{0x02, 0xff, 0xff, 0xff, 0xff, 0x0f}) // count far beyond the entry
	f.Add([]byte{0x82, 0x00, 0x01, 0x01, 'x'})        // first as an overlong varint

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := open(data)
		if err != nil {
			return
		}
		if len(b.Ops) > wire.MaxBatchItems || len(b.ops) != len(b.Ops) {
			t.Fatalf("opened %d ops with %d decoded", len(b.Ops), len(b.ops))
		}
		enc := entryBytes(b.BatchUpdate)
		again, err := open(enc)
		if err != nil {
			t.Fatalf("re-encoded batch does not open: %v", err)
		}
		if again.First != b.First || len(again.Ops) != len(b.Ops) ||
			!bytes.Equal(again.Stamp.signedBytes(), b.Stamp.signedBytes()) || !bytes.Equal(again.Stamp.Sig, b.Stamp.Sig) {
			t.Fatalf("round trip changed the batch: %+v -> %+v", b.BatchUpdate, again.BatchUpdate)
		}
		for i := range b.Ops {
			if !bytes.Equal(again.Ops[i], b.Ops[i]) {
				t.Fatalf("round trip changed op %d", i)
			}
		}
		if !bytes.Equal(entryBytes(again.BatchUpdate), enc) {
			t.Fatal("re-encoding is not canonical")
		}
	})
}

// FuzzSlaveHandleKeepAlive drives a real slave's s.keepalive handler — the
// frame a master sends every interval and with every batch, and the one
// that starts every fetch — over arbitrary bodies, against a master log
// holding one batch past the replica. The invariants: no panic; a body
// that is not stamp ‖ string address, or whose stamp no trusted master
// signed, is refused; an accepted one is acknowledged with a version; and
// the slave never holds a stamp for a version its replica has not reached
// (the hold rule), whatever the fetches it starts bring back.
func FuzzSlaveHandleKeepAlive(f *testing.F) {
	master, evil := cryptoutil.DeriveKeyPair("master", 0), cryptoutil.DeriveKeyPair("evil", 0)
	trusted := []cryptoutil.PublicKey{master.Public}
	initial := store.New()
	initial.Apply(store.Put{Key: "k", Value: []byte("v")})
	log := new(batchLog)
	now := time.Unix(1, 0)
	batch := signedBatch(master, 2, waveOps(3), now)
	log.add(batch)
	sl := NewSlave(SlaveConfig{
		Addr: "slave", Keys: cryptoutil.DeriveKeyPair("slave", 0), Params: DefaultParams(),
		MasterAddr: "master", MasterPubs: trusted,
	}, sim.RealClock{}, log, initial)
	honest := keepAliveFrame(SignStamp(master, 1, now))
	for _, body := range [][]byte{
		honest,
		keepAliveFrame(batch.Stamp), // the batch's announce
		keepAliveFrame(SignStamp(master, 9, now)),                                                // ahead of anything the log holds
		keepAliveFrame(SignStamp(evil, 1, now)),                                                  // an untrusted key
		keepAliveFrame(SignStamp(master, 1, now))[:40],                                           // truncated inside the stamp
		append(bytes.Clone(honest), 0),                                                           // trailing byte
		wire.EncodeFrame(func(w *wire.Writer) { st := SignStamp(master, 1, now); st.Encode(w) }), // no address
		{},
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		ack, err := sl.Handle("master", MethodKeepAlive, body)
		r := wire.NewReader(body)
		stamp, decodeErr := DecodeStamp(r)
		_ = r.String() // the master address
		if decodeErr != nil || r.Done() != nil || stamp.Verify(trusted) != nil {
			if err == nil {
				t.Fatal("accepted a keep-alive that is not a trusted stamp ‖ address")
			}
			return
		}
		if err != nil {
			t.Fatalf("refused a trusted keep-alive: %v", err)
		}
		if _, ok := parseAck(ack); !ok {
			t.Fatalf("ack %x does not decode", ack)
		}
		if held := sl.adoptedStamp().Version; held > sl.Version() {
			t.Fatalf("holds a stamp for version %d over a replica at %d", held, sl.Version())
		}
	})
}

// FuzzDecodeBatchMessage drives the bcBatch body decoder — what every
// master and the auditor read from a delivered broadcast slot, and what
// b.submit takes from anyone — over arbitrary bytes. The invariants: no
// panic; what decodes holds at least one op and comes with every op
// decoded, as DecodeOp decodes it (applyBatch and the auditor apply those
// without a second look); whatever decodes re-encodes through encodeBatchMessage to a
// frame that decodes to the same ops; and that re-encoding is a fixed
// point, byte for byte. (A body with overlong varints decodes too, so it
// is the re-encoding, not the body, that is canonical.)
func FuzzDecodeBatchMessage(f *testing.F) {
	body := func(ops ...[]byte) []byte {
		return encodeBatchMessage([]queuedWave{{ops: ops}})[1:] // after the kind byte
	}
	put := store.EncodeOp(store.Put{Key: "a", Value: []byte("1")})
	f.Add(body(put, store.EncodeOp(store.Delete{Key: "b"})))
	f.Add(body(put, store.EncodeOp(store.Delete{Key: "b"}), []byte{0xff})) // the last op does not decode: refused whole
	f.Add(body())
	f.Add([]byte{})
	f.Add([]byte{0x81, 0x00})                   // op count as an overlong varint
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}) // op count far beyond the frame
	f.Add(append(body(put), 0x00))              // trailing byte

	f.Fuzz(func(t *testing.T, data []byte) {
		ops, decoded, err := decodeBatchMessage(wire.NewReader(data))
		if err != nil {
			return
		}
		if len(ops) == 0 || len(decoded) != len(ops) {
			t.Fatalf("%d ops decoded to %d", len(ops), len(decoded))
		}
		for i, op := range ops {
			if want, err := store.DecodeOp(op); err != nil || !reflect.DeepEqual(decoded[i], want) {
				t.Fatalf("op %d came back as %v, DecodeOp gives %v, %v", i, decoded[i], want, err)
			}
		}
		enc := encodeBatchMessage([]queuedWave{{ops: ops}})
		if enc[0] != bcBatch {
			t.Fatalf("re-encoded frame starts with kind %d", enc[0])
		}
		ops2, _, err := decodeBatchMessage(wire.NewReader(enc[1:]))
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

// FuzzBatchDigestInput reads two batches (uvarint first ‖ uvarint n ‖ n ×
// bytes op) from two arbitrary inputs and checks what BatchDigest hashes
// for them: two different batches never have the same digest input, and
// each one's input reads back as that batch. It assumes nothing about the
// hash: the encoding itself must be injective, op boundaries included.
func FuzzBatchDigestInput(f *testing.F) {
	prefix := func(first uint64, ops [][]byte) []byte {
		return wire.EncodeFrame(func(w *wire.Writer) { appendBatchPrefix(w, first, ops) })
	}
	ops := [][]byte{[]byte("ab"), []byte("c"), []byte("de")}
	f.Add(prefix(2, ops), prefix(2, ops))
	f.Add(prefix(2, ops), prefix(2, [][]byte{[]byte("abc"), []byte("de")})) // two ops merged
	f.Add(prefix(2, ops), prefix(2, [][]byte{[]byte("ab"), []byte("c"), []byte("d"), []byte("e")}))
	f.Add(prefix(2, ops), prefix(3, ops))
	f.Add(prefix(2, nil), prefix(2, [][]byte{{}}))
	f.Add([]byte{0x82, 0x00, 0x00}, []byte{0x02, 0x00}) // one batch, padded and not

	read := func(data []byte) (uint64, [][]byte, bool) {
		r := wire.NewReader(data)
		first := r.Uvarint()
		ops := r.BytesSlice()
		return first, ops, r.Done() == nil
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		firstA, opsA, okA := read(a)
		firstB, opsB, okB := read(b)
		if !okA || !okB {
			return
		}
		inA, inB := prefix(firstA, opsA), prefix(firstB, opsB)
		same := firstA == firstB && slices.EqualFunc(opsA, opsB, bytes.Equal)
		if same != bytes.Equal(inA, inB) {
			t.Fatalf("batches equal %v, digest inputs equal %v: (%d, %q) and (%d, %q)", same, !same, firstA, opsA, firstB, opsB)
		}
		if first, ops, ok := read(inA); !ok || first != firstA || !slices.EqualFunc(ops, opsA, bytes.Equal) {
			t.Fatalf("digest input of (%d, %q) reads back as (%d, %q)", firstA, opsA, first, ops)
		}
		if !BatchDigest(firstA, opsA).Equal(cryptoutil.HashBytes(inA)) {
			t.Fatal("BatchDigest is not the hash of the batch's prefix")
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
// client decodes from a slave it does not trust — over arbitrary bytes, in
// both forms: with the stamp whole and without it. The invariants: no
// panic on any input, in the decoder or in the checks a client runs on
// what came out; a reply without a stamp is refused by a client that holds
// none; whatever decodes re-encodes, in the same form, to a reply that
// decodes to the same payload, stamp, signature and flag; and that
// re-encoding is a fixed point.
func FuzzDecodeReadReply(f *testing.F) {
	fx := newCacheFixture()
	honest := EncodeReadReply(ReadReply{Payload: []byte("result"), Pledge: fx.pledge})
	batch := fx.pledge
	batch.Stamp = SignBatchStamp(fx.master, 7, time.Unix(1000, 0), cryptoutil.Digest{1})
	left := fx.pledge
	left.Stamp.Sig = nil
	withoutStamp := EncodeReadReply(ReadReply{Payload: []byte("result"), Pledge: left})
	f.Add(honest)
	f.Add(EncodeReadReply(ReadReply{Payload: []byte("a lie"), Pledge: batch, XLie: true}))
	f.Add(EncodeReadReply(ReadReply{}))
	f.Add(withoutStamp)
	f.Add(EncodeReadReply(ReadReply{Payload: []byte("a lie"), Pledge: left, XLie: true}))
	f.Add(honest[:len(honest)/2]) // truncated inside the stamp
	f.Add(withoutStamp[:len(withoutStamp)-3])
	f.Add(append(bytes.Clone(honest), 0x7))
	f.Add([]byte{})
	f.Add(append([]byte{0x86, 0x00}, honest[1:]...))           // payload length as an overlong varint
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0})             // payload length far beyond the frame
	f.Add([]byte{0x00, 0x01, 0x00, 0x01, 0x03, 1, 2, 3, 0})    // op digest of the wrong length
	f.Add([]byte{0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0}) // a full flag that is not 1

	trusted := []cryptoutil.PublicKey{fx.master.Public}
	c := NewClient(ClientConfig{Params: DefaultParams()}, sim.RealClock{}, nullDialer{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rr, err := DecodeReadReply(data)
		if err != nil {
			return
		}
		enc := EncodeReadReply(rr)
		// What a client does with it; any length of key or signature must
		// be survivable.
		sl := &slaveAssignment{addr: "slave", pub: fx.slave.Public}
		for _, held := range []*VersionStamp{nil, &fx.stamp} {
			checked := rr
			err := c.checkReply(sl, held, trusted, fx.pledge.QueryBytes, &checked)
			if err == nil && held == nil && rr.Pledge.Stamp.Sig == nil {
				t.Fatal("a reply without a stamp passed a client that holds none")
			}
			_ = checked.Pledge.VerifySig()
		}
		_ = rr.completePledge(fx.pledge.QueryBytes, fx.slave.Public).VerifySig()
		_ = rr.Pledge.Stamp.Verify(trusted)
		again, err := DecodeReadReply(enc)
		if err != nil {
			t.Fatalf("re-encoded reply does not decode: %v", err)
		}
		if !bytes.Equal(again.Payload, rr.Payload) || again.XLie != rr.XLie || !bytes.Equal(again.Pledge.Sig, rr.Pledge.Sig) ||
			(again.Pledge.Stamp.Sig == nil) != (rr.Pledge.Stamp.Sig == nil) ||
			!bytes.Equal(again.Pledge.Stamp.signedBytes(), rr.Pledge.Stamp.signedBytes()) ||
			again.Pledge.Stamp.Kind != rr.Pledge.Stamp.Kind || !bytes.Equal(again.Pledge.Stamp.Sig, rr.Pledge.Stamp.Sig) {
			t.Fatalf("round trip changed the reply: %+v -> %+v", rr, again)
		}
		if !bytes.Equal(EncodeReadReply(again), enc) {
			t.Fatal("re-encoding is not canonical")
		}
	})
}

// FuzzSlaveHandleRead drives a real slave's s.read handler — the one
// frame a client sends a slave — over arbitrary request bodies. The
// invariants: no panic; a body that is not bytes query ‖ bytes ref, with
// ref of 0 or stampRefLen bytes, is refused; every reply decodes; and it
// leaves the stamp out only when ref is the first stampRefLen bytes of the
// slave's stamp signature, carrying that stamp whole otherwise.
func FuzzSlaveHandleRead(f *testing.F) {
	master := cryptoutil.DeriveKeyPair("master", 0)
	params := DefaultParams()
	params.MaxLatency = 24 * time.Hour // the one stamp stays fresh for the whole run
	initial := store.New()
	initial.Apply(store.Put{Key: "k", Value: []byte("v")})
	sl := NewSlave(SlaveConfig{
		Addr: "slave", Keys: cryptoutil.DeriveKeyPair("slave", 0), Params: params,
		MasterPubs: []cryptoutil.PublicKey{master.Public},
	}, sim.RealClock{}, nullDialer{}, initial)
	stamp := SignStamp(master, 1, time.Now())
	w := wire.NewWriter(128)
	stamp.Encode(w)
	w.String_("")
	if _, err := sl.Handle("master", MethodKeepAlive, w.Bytes()); err != nil {
		f.Fatal(err)
	}
	get := query.Encode(query.Get{Key: "k"})
	wrong := bytes.Clone(stamp.Sig[:stampRefLen])
	wrong[0] ^= 1
	for _, body := range [][]byte{
		encodeReadRequest(get, nil),
		encodeReadRequest(get, &stamp),
		encodeReadRequest(query.Encode(query.Count{P: ""}), &stamp),
		encodeReadRequest([]byte("not a query"), &stamp),
		wire.EncodeFrame(func(w *wire.Writer) { w.Bytes_(get); w.Bytes_(wrong) }),
		wire.EncodeFrame(func(w *wire.Writer) { w.Bytes_(get); w.Bytes_(stamp.Sig[:stampRefLen-1]) }),
		wire.EncodeFrame(func(w *wire.Writer) { w.Bytes_(get); w.Bytes_(stamp.Sig) }),
		wire.EncodeFrame(func(w *wire.Writer) { w.Bytes_(get) }), // no ref at all
		{},
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := sl.Handle("client", MethodRead, body)
		r := wire.NewReader(body)
		r.BytesView()
		ref := r.BytesView()
		if r.Done() != nil || len(ref) != 0 && len(ref) != stampRefLen {
			if err == nil {
				t.Fatalf("served a request that is not query ‖ ref of 0 or %d bytes", stampRefLen)
			}
			return
		}
		if err != nil {
			return // a query that does not decode or execute
		}
		rr, err := DecodeReadReply(resp)
		if err != nil {
			t.Fatalf("the slave's reply does not decode: %v", err)
		}
		named := len(ref) == stampRefLen && bytes.Equal(ref, stamp.Sig[:stampRefLen])
		if named != (rr.Pledge.Stamp.Sig == nil) {
			t.Fatalf("ref %x: stamp left out: %v", ref, rr.Pledge.Stamp.Sig == nil)
		}
		if !named && !bytes.Equal(rr.Pledge.Stamp.Sig, stamp.Sig) {
			t.Fatal("the reply carries a stamp that is not the slave's")
		}
	})
}

// FuzzDecodeStateTransfer drives the m.sync reply verifier — what a slave's
// sync, a slave's Bootstrap, a restarted master's catch-up and a durable
// master's snapshot file all read — over arbitrary bytes, seeded with
// every reply of the tamper table and a snapshot file. The invariants:
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
	// A snapshot file: the state at 7 as persistState writes it. (The state
	// at 3 with the batches after it, the same shape, is a tamper-table row.)
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
	// The reply to a requester already at the master's version: no
	// snapshot, no batches, the anchor alone.
	f.Add(transferParts{anchor: 42}.encode())
	// Two replies in the shape that closed with one more stamp, which is
	// refused now: the snapshot file with its stamp twice, and the
	// batches after a snapshot at 1 closed by a keep-alive stamp.
	closed := func(p transferParts, closing VersionStamp) []byte {
		b := p.encode()
		n := len(wire.EncodeFrame(func(w *wire.Writer) { w.Uvarint(p.anchor) }))
		return append(append(b[:len(b)-n:len(b)-n], wire.EncodeFrame(closing.Encode)...), b[len(b)-n:]...)
	}
	f.Add(closed(whole, whole.snap.stamp))
	f.Add(closed(honestTransfer(m, now, 1), SignStamp(m, 7, now)))
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x81, 0x00}) // count 1 as an overlong varint, nothing after it

	trusted := []cryptoutil.PublicKey{m.Public}
	encode := func(st *stateTransfer) []byte {
		p := transferParts{anchor: st.anchor}
		for _, b := range st.batches {
			p.batches = append(p.batches, b.BatchUpdate)
		}
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
		for i, b := range st.batches {
			if len(b.ops) != len(b.Ops) {
				t.Fatalf("batch %d: %d ops decoded of %d", i, len(b.ops), len(b.Ops))
			}
			ops += len(b.ops)
		}
		if len(st.batches) > len(data) || ops > len(data) {
			t.Fatalf("%d batches and %d ops out of %d bytes", len(st.batches), ops, len(data))
		}
		enc := encode(st)
		again, err := decodeStateTransfer(enc, trusted, nil)
		if err != nil {
			t.Fatalf("re-encoded reply is refused: %v", err)
		}
		if (again.snap == nil) != (st.snap == nil) || !bytes.Equal(again.snapBytes, st.snapBytes) ||
			len(again.batches) != len(st.batches) || again.anchor != st.anchor {
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
		st.slaves = append(st.slaves, e.cert.Addr)
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
		bcBatch: func(r *wire.Reader) bool { _, _, err := decodeBatchMessage(r); return err == nil },
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
	record := encodeWALRecord(4, &BatchUpdate{First: 2, Ops: ops,
		Stamp: SignBatchStamp(keys, 3, time.Unix(1, 0), BatchDigest(2, ops))})
	f.Add(record) // continues the rig's store: replay applies it
	f.Add(record[:len(record)-1])
	f.Add(append(bytes.Clone(record), 0))
	f.Add([]byte{})
	f.Add([]byte{0x81, 0x00, 0x02, 0xff, 0xff, 0xff, 0xff, 0x0f}) // overlong slot, op count beyond the record

	decode := func(data []byte) (uint64, BatchUpdate, error) {
		r := wire.NewReader(data)
		seq := r.Uvarint()
		bu, err := decodeBatchEntry(r)
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

// FuzzMasterHandleReport drives the m.report handler, which any client can
// call, over arbitrary bodies, against a master at version 1 holding k = v.
// The invariants: no panic; a report whose pledge does not verify under
// its own slave key broadcasts nothing; and one without a valid auditor
// signature excludes exactly when re-execution at the master's own version
// contradicts the pledge — so the exclusion broadcast, the error returned
// and the slave excluded all agree with that rule.
func FuzzMasterHandleReport(f *testing.F) {
	mk := cryptoutil.DeriveKeyPair("master", 0)
	aud := cryptoutil.DeriveKeyPair("auditor", 0) // the rig master's AuditorPub
	slave := cryptoutil.DeriveKeyPair("slave", 0)
	qb := query.Encode(query.Get{Key: "k"})
	honest, _ := query.Get{Key: "k"}.Execute(storeWith(f, "k", "v"))
	pledgeAt := func(v uint64, h cryptoutil.Digest) []byte {
		return EncodePledge(SignPledge(slave, qb, h, SignStamp(mk, v, time.Unix(1000, 0))))
	}
	report := func(pledgeBytes, sig []byte) []byte {
		return wire.EncodeFrame(func(w *wire.Writer) { w.Bytes_(pledgeBytes); w.Bytes_(sig) })
	}
	wrong := cryptoutil.HashBytes([]byte("wrong"))
	lie, old := pledgeAt(1, wrong), pledgeAt(0, wrong)
	fake := bytes.Clone(lie)
	fake[len(fake)-1] ^= 0xff // the signature is the frame's last field
	f.Add(report(pledgeAt(1, honest.Digest()), nil))
	f.Add(report(lie, nil))
	f.Add(report(old, nil))
	f.Add(report(old, aud.Sign(old)))
	f.Add(report(fake, nil))
	f.Add(report(fake, aud.Sign(fake)))
	f.Add(report(lie, nil)[:len(lie)/2])
	f.Add(report(old, aud.Sign(old))[:len(old)+3])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		r := newMasterRig(t, nil)
		content := storeWith(t, "k", "v")
		var err error
		r.s.Go(func() { _, err = r.master.Handle("anyone", MethodReport, body) })
		r.s.Run()
		excluded := snapshotDeliverState(r.master).excluded

		rd := wire.NewReader(body)
		pledgeBytes, sig := rd.Bytes(), rd.Bytes()
		p, perr := decodePledgeFrame(pledgeBytes)
		if rd.Done() != nil || perr != nil || p.VerifySig() != nil {
			if len(excluded) != 0 || err == nil {
				t.Fatalf("a report whose pledge does not verify: err %v, excluded %d slaves", err, len(excluded))
			}
			return
		}
		proven, _, cerr := CheckPledgeAgainst(content, &p)
		want := (cerr == nil && proven) || (len(sig) > 0 && cryptoutil.Verify(aud.Public, pledgeBytes, sig) == nil)
		if want != (err == nil) || want != (len(excluded) == 1) || (want && !excluded[string(p.SlavePub)]) {
			t.Fatalf("report (re-execution contradicts: %v, auditor-signed: %v): err %v, excluded %v",
				cerr == nil && proven, len(sig) > 0, err, excluded)
		}
	})
}
