package rpc

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"repro/internal/wire"
)

// readOnce does a single Read into a buffer far larger than the frame
// and checks that it returned one whole frame: the 4-byte length and the
// payload it announces. A sender that writes header and payload
// separately on a TCP_NODELAY socket delivers the 4 header bytes alone.
func readOnce(t *testing.T, conn net.Conn, who string) []byte {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64<<10)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("%s: read: %v", who, err)
	}
	if n < 4 || int(binary.BigEndian.Uint32(buf))+4 != n {
		t.Fatalf("%s: first Read returned %d bytes (% x...), want one whole frame", who, n, buf[:min(n, 8)])
	}
	return buf[4:n]
}

func TestTCPFrameIsOneWrite(t *testing.T) {
	body := bytes.Repeat([]byte{0xab}, 256)

	// Dialer side: a raw listener plays the server.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	d := NewTCPDialer()
	defer d.Close()
	reply := make(chan error, 1)
	go func() {
		got, err := d.CallTimeout(ln.Addr().String(), "echo", body, 5*time.Second)
		if err == nil && !bytes.Equal(got, body) {
			err = ErrClosed
		}
		reply <- err
	}()
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	r := wire.NewReader(readOnce(t, peer, "request"))
	id, kind, method, got := r.Uvarint(), r.Byte(), r.String(), r.Bytes()
	if r.Done() != nil || kind != frameRequest || method != "echo" || !bytes.Equal(got, body) {
		t.Fatalf("request frame: id=%d kind=%d method=%q body=%d bytes err=%v", id, kind, method, len(got), r.Err())
	}
	w := wire.GetWriter()
	encodeFrame(w, id, frameResponse, "", got)
	_, err = peer.Write(w.Bytes())
	wire.PutWriter(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-reply; err != nil {
		t.Fatalf("call through the raw server: %v", err)
	}

	// Server side: a raw connection plays the client.
	srv, err := ListenTCP("127.0.0.1:0", func(from, method string, body []byte) ([]byte, error) {
		return body, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w = wire.GetWriter()
	encodeFrame(w, 7, frameRequest, "echo", body)
	_, err = conn.Write(w.Bytes())
	wire.PutWriter(w)
	if err != nil {
		t.Fatal(err)
	}
	r = wire.NewReader(readOnce(t, conn, "response"))
	id, kind, errmsg, got := r.Uvarint(), r.Byte(), r.String(), r.Bytes()
	if r.Done() != nil || id != 7 || kind != frameResponse || errmsg != "" || !bytes.Equal(got, body) {
		t.Fatalf("response frame: id=%d kind=%d err=%q body=%d bytes", id, kind, errmsg, len(got))
	}
}

// FuzzDecodeFrame drives the frame decoder both ends of a connection run
// on bytes nobody has authenticated: no panic on any input, and whatever
// decodes survives encodeFrame and a second decode unchanged, with the
// re-encoding stable.
func FuzzDecodeFrame(f *testing.F) {
	for _, seed := range []struct {
		id         uint64
		kind       byte
		head, body string
	}{
		{0, frameRequest, "s.read", "query"},
		{1 << 40, frameResponse, "", "result"},
		{7, frameResponse, "core: stale", ""},
	} {
		w := wire.NewWriter(64)
		encodeFrame(w, seed.id, seed.kind, seed.head, []byte(seed.body))
		f.Add(w.Bytes()[4:])
	}
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0x05, 'a'})                          // method longer than the frame
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0xff})                   // trailing byte
	f.Add(bytes.Repeat([]byte{0x80}, 12))                         // non-terminating id
	f.Add([]byte{0x01, 0x01, 0x00, 0xff, 0xff, 0xff, 0xff, 0x7f}) // body length past every limit

	f.Fuzz(func(t *testing.T, data []byte) {
		id, kind, head, body, err := decodeFrame(data)
		if err != nil {
			return
		}
		w := wire.NewWriter(len(data) + 16)
		encodeFrame(w, id, kind, string(head), body)
		enc := w.Bytes()
		if int(binary.BigEndian.Uint32(enc))+4 != len(enc) {
			t.Fatalf("length prefix %d on a frame of %d bytes", binary.BigEndian.Uint32(enc), len(enc))
		}
		id2, kind2, head2, body2, err := decodeFrame(enc[4:])
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if id2 != id || kind2 != kind || !bytes.Equal(head2, head) || !bytes.Equal(body2, body) {
			t.Fatalf("round trip changed the frame: (%d %d %q %q) -> (%d %d %q %q)", id, kind, head, body, id2, kind2, head2, body2)
		}
		again := wire.NewWriter(len(enc))
		encodeFrame(again, id2, kind2, string(head2), body2)
		if !bytes.Equal(again.Bytes(), enc) {
			t.Fatal("re-encoding is not stable")
		}
	})
}
