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

// BenchmarkTCPRoundTrip is the rpc row of the layer ledger: one call with
// a 256-byte body, echoed, over a loopback connection.
func BenchmarkTCPRoundTrip(b *testing.B) {
	srv, err := ListenTCP("127.0.0.1:0", func(from, method string, body []byte) ([]byte, error) {
		return body, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	d := NewTCPDialer()
	defer d.Close()
	body := bytes.Repeat([]byte{0xab}, 256)
	if _, err := d.Call(srv.Addr(), "echo", body); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Call(srv.Addr(), "echo", body); err != nil {
			b.Fatal(err)
		}
	}
}
