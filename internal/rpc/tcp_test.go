package rpc

import (
	"bufio"
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// serve starts a server for h and a dialer, both closed with the test.
func serve(t testing.TB, h Handler) (*TCPServer, *TCPDialer) {
	t.Helper()
	srv, err := ListenTCP("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	d := NewTCPDialer()
	t.Cleanup(func() {
		d.Close()
		srv.Close()
	})
	return srv, d
}

// goroutineID names the calling goroutine, from the first line of its
// stack ("goroutine 42 [running]:").
func goroutineID() string {
	var buf [64]byte
	fields := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	return fields[1]
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// A blocked handler holds up nothing else on its connection, a burst runs
// all at once, and the workers the burst started are gone once it drains.
func TestTCPWorkersNoHeadOfLine(t *testing.T) {
	const burst = 64
	entered := make(chan struct{}, burst+1)
	release := make(chan struct{})
	srv, d := serve(t, func(from, method string, body []byte) ([]byte, error) {
		if method == "slow" {
			entered <- struct{}{}
			<-release
		}
		return body, nil
	})
	addr := srv.Addr()
	if _, err := d.Call(addr, "fast", nil); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine() // reader, one parked worker, and whatever else lives

	var wg sync.WaitGroup
	slow := func() {
		defer wg.Done()
		if got, err := d.Call(addr, "slow", []byte("s")); err != nil || string(got) != "s" {
			t.Errorf("slow call: %q, %v", got, err)
		}
	}
	wg.Add(1)
	go slow()
	<-entered
	if got, err := d.CallTimeout(addr, "fast", []byte("f"), 5*time.Second); err != nil || string(got) != "f" {
		t.Fatalf("fast call behind a blocked handler on the same connection: %q, %v", got, err)
	}

	wg.Add(burst)
	for i := 0; i < burst; i++ {
		go slow()
	}
	for i := 0; i < burst; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d slow handlers running at once", i, burst)
		}
	}
	close(release)
	wg.Wait()

	// The callers are gone; of the burst's workers at most the idle ceiling
	// stay, one of which base already counts.
	waitFor(t, "the burst's workers to exit", func() bool {
		return runtime.NumGoroutine() <= base+maxIdleWorkers-1
	})
}

// Sequential calls are all served by the goroutine that served the first.
func TestTCPWorkerReused(t *testing.T) {
	var mu sync.Mutex
	workers := map[string]int{}
	srv, d := serve(t, func(from, method string, body []byte) ([]byte, error) {
		id := goroutineID()
		mu.Lock()
		workers[id]++
		mu.Unlock()
		return nil, nil
	})
	addr := srv.Addr()
	for i := 0; i < 10000; i++ {
		if _, err := d.Call(addr, "x", nil); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(workers) != 1 {
		t.Fatalf("10000 sequential calls ran on %d goroutines, want 1: %v", len(workers), workers)
	}
}

// A response that arrives after its call timed out is never delivered to a
// later call: every call gets its own body back or times out.
func TestTCPTimedOutSlotNotReused(t *testing.T) {
	late := make(chan struct{})
	srv, d := serve(t, func(from, method string, body []byte) ([]byte, error) {
		switch method {
		case "late":
			<-late
			return []byte("late"), nil
		case "straddle":
			time.Sleep(time.Millisecond) // answers about when its caller gives up
		}
		return body, nil
	})
	addr := srv.Addr()
	if _, err := d.CallTimeout(addr, "late", nil, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
	close(late)
	for i := 0; i < 1000; i++ {
		want := fmt.Sprintf("body-%d", i)
		got, err := d.CallTimeout(addr, "echo", []byte(want), 5*time.Second)
		if err != nil || string(got) != want {
			t.Fatalf("call %d after a timeout: %q, %v", i, got, err)
		}
	}
	// Responses racing their own timeouts, from several callers at once.
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				want := fmt.Sprintf("caller-%d-%d", c, i)
				method, timeout := "echo", 5*time.Second
				if i%2 == 0 {
					method, timeout = "straddle", time.Millisecond
				}
				got, err := d.CallTimeout(addr, method, []byte(want), timeout)
				if errors.Is(err, ErrTimeout) && method == "straddle" {
					continue
				}
				if err != nil || string(got) != want {
					t.Errorf("%s %s: %q, %v", method, want, got, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// A connection that dies under its calls fails each of them, once, with
// ErrClosed, and the next call dials afresh.
func TestTCPConnectionFailureFailsEveryWaiter(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	d := NewTCPDialer()
	defer d.Close()
	addr := ln.Addr().String()

	const waiters = 32
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := d.CallTimeout(addr, "x", []byte("body"), 5*time.Second)
			errs <- err
		}()
	}
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	// Take every request off the wire, then drop the connection.
	fr := frameReader{br: bufio.NewReader(peer)}
	for i := 0; i < waiters; i++ {
		if _, err := fr.next(); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	peer.Close()
	for i := 0; i < waiters; i++ {
		if err := <-errs; !errors.Is(err, ErrClosed) {
			t.Fatalf("waiter %d: err = %v, want ErrClosed", i, err)
		}
	}
	select {
	case err := <-errs:
		t.Fatalf("a waiter returned twice: %v", err)
	default:
	}

	// The dead connection is replaced, not reused.
	done := make(chan error, 1)
	go func() {
		_, err := d.CallTimeout(addr, "x", nil, 5*time.Second)
		done <- err
	}()
	peer2, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer peer2.Close()
	payload, err := (&frameReader{br: bufio.NewReader(peer2)}).next()
	if err != nil {
		t.Fatal(err)
	}
	id, _, _, _, err := decodeFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	w := wire.NewWriter(32)
	encodeFrame(w, id, frameResponse, "", nil)
	if _, err := peer2.Write(w.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("call after the failure: %v", err)
	}
}

// The handler owns body and the caller owns the response: both are views
// of buffers the transport never touches again, whatever frames follow.
func TestTCPBodyOwnership(t *testing.T) {
	first := bytes.Repeat([]byte{0x5a}, 300)
	keep := make(chan []byte, 1)
	srv, d := serve(t, func(from, method string, body []byte) ([]byte, error) {
		if method == "keep" {
			keep <- body
		}
		return body, nil
	})
	addr := srv.Addr()
	resp, err := d.Call(addr, "keep", first)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		other := bytes.Repeat([]byte{byte(i)}, 1+(i*37)%900)
		if got, err := d.Call(addr, "echo", other); err != nil || !bytes.Equal(got, other) {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if !bytes.Equal(resp, first) {
		t.Fatal("the response the caller kept changed under later frames")
	}
	kept := <-keep
	if !bytes.Equal(kept, first) {
		t.Fatal("the body the handler kept changed under later frames")
	}
	if cap(resp) != len(resp) || cap(kept) != len(kept) {
		t.Fatalf("views not clipped: resp %d/%d, body %d/%d", len(resp), cap(resp), len(kept), cap(kept))
	}
}

// A round trip allocates its two frame buffers — the request's at the
// server, the response's at the client — and nothing else.
func TestTCPRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	srv, d := serve(t, func(from, method string, body []byte) ([]byte, error) { return body, nil })
	addr := srv.Addr()
	body := bytes.Repeat([]byte{0xab}, 256)
	for name, timeout := range map[string]time.Duration{"Call": 0, "CallTimeout": 5 * time.Second} {
		call := func() {
			if _, err := d.CallTimeout(addr, "echo", body, timeout); err != nil {
				t.Fatal(err)
			}
		}
		call()
		if got := testing.AllocsPerRun(500, call); got > 2 {
			t.Errorf("%s: %.1f allocs per round trip, want <= 2", name, got)
		}
	}
}

// Four header bytes announcing the largest frame buy no memory: the buffer
// follows the bytes that arrive.
func TestTCPAnnouncedFrameAllocatesAsReceived(t *testing.T) {
	srv, _ := serve(t, func(from, method string, body []byte) ([]byte, error) { return body, nil })
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A whole request first, so the reader is known to be up.
	w := wire.NewWriter(64)
	encodeFrame(w, 1, frameRequest, "echo", []byte("hi"))
	if _, err := conn.Write(w.Bytes()); err != nil {
		t.Fatal(err)
	}
	readOnce(t, conn, "response")

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	stalled := make([]byte, 4+frameStep+4096) // header, then a little more than one step
	binary.BigEndian.PutUint32(stalled, maxFrame)
	if _, err := conn.Write(stalled); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // nothing signals that the reader took the bytes in
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a stalled frame announcing %d bytes allocated %d", maxFrame, grew)
	}
}

// blockingDial is a dial hook whose dials of hung wait for release and
// then fail; other addresses are dialled for real.
type blockingDial struct {
	hung    string
	entered chan struct{}
	release chan struct{}
	dials   atomic.Int32
}

func (b *blockingDial) dial(addr string) (net.Conn, error) {
	if addr != b.hung {
		return net.DialTimeout("tcp", addr, 5*time.Second)
	}
	b.dials.Add(1)
	b.entered <- struct{}{}
	<-b.release
	return nil, errors.New("connection refused")
}

// A dial that hangs holds up only the calls to its own address, which
// share it; a failed dial leaves nothing behind.
func TestTCPDialOutsideLock(t *testing.T) {
	srv, d := serve(t, func(from, method string, body []byte) ([]byte, error) { return body, nil })
	hook := &blockingDial{hung: "192.0.2.1:9", entered: make(chan struct{}, 2), release: make(chan struct{})}
	d.dial = hook.dial

	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := d.Call(hook.hung, "x", nil)
			errs <- err
		}()
	}
	<-hook.entered
	if got, err := d.CallTimeout(srv.Addr(), "echo", []byte("ok"), 5*time.Second); err != nil || string(got) != "ok" {
		t.Fatalf("call to a healthy address while another dial hangs: %q, %v", got, err)
	}
	// Both callers are inside get: one in the hook, one waiting for it (or,
	// without single-flight, in the hook too — which dials counts).
	waitFor(t, "both callers to reach the dial", func() bool {
		buf := make([]byte, 1<<16)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "rpc.(*TCPDialer).get(") == 2
	})
	if n := hook.dials.Load(); n != 1 {
		t.Fatalf("%d dials in flight for one address, want 1", n)
	}
	close(hook.release)
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, ErrUnreachable) {
			t.Fatalf("err = %v, want ErrUnreachable", err)
		}
	}
	if n := hook.dials.Load(); n != 1 {
		t.Fatalf("two concurrent calls dialled %d times, want 1", n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.dials) != 0 || d.conns[hook.hung] != nil {
		t.Fatalf("failed dial left an entry: dials %d, conn %v", len(d.dials), d.conns[hook.hung])
	}
}

// A dial that completes after Close neither caches its connection nor
// leaves it open: the peer reads EOF, the caller gets ErrClosed, and so
// does every call after Close.
func TestTCPCloseDuringDial(t *testing.T) {
	d := NewTCPDialer()
	local, peer := net.Pipe()
	defer peer.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	d.dial = func(string) (net.Conn, error) {
		close(entered)
		<-release
		return local, nil
	}
	errs := make(chan error, 1)
	go func() {
		_, err := d.Call("pipe", "x", nil)
		errs <- err
	}()
	<-entered
	d.Close()
	close(release)
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := peer.Read(make([]byte, 64)); err != io.EOF {
		t.Fatalf("peer read %d bytes, err %v; want EOF from a connection closed by the dialer", n, err)
	}
	if err := <-errs; !errors.Is(err, ErrClosed) {
		t.Fatalf("call whose dial outlived Close: err = %v, want ErrClosed", err)
	}
	if _, err := d.Call("pipe", "x", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after Close: err = %v, want ErrClosed", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.conns) != 0 || len(d.dials) != 0 {
		t.Fatalf("closed dialer holds %d connections and %d dials", len(d.conns), len(d.dials))
	}
}

// BenchmarkTCPRoundTrip is the rpc row of the layer ledger: calls with a
// 256-byte body over one loopback connection. echo256 is the transport
// alone, sign adds a handler deep enough to grow a fresh stack, timeout
// adds a deadline, parallel8 has eight callers share the connection.
func BenchmarkTCPRoundTrip(b *testing.B) {
	_, key, err := ed25519.GenerateKey(nil)
	if err != nil {
		b.Fatal(err)
	}
	srv, d := serve(b, func(from, method string, body []byte) ([]byte, error) {
		if method == "sign" {
			return ed25519.Sign(key, body), nil
		}
		return body, nil
	})
	addr := srv.Addr()
	body := bytes.Repeat([]byte{0xab}, 256)
	call := func(b *testing.B, method string, timeout time.Duration) {
		if _, err := d.CallTimeout(addr, method, body, timeout); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name, method string
		timeout      time.Duration
	}{
		{"echo256", "echo", 0},
		{"sign", "sign", 0},
		{"timeout", "echo", 5 * time.Second},
	} {
		b.Run(bc.name, func(b *testing.B) {
			call(b, bc.method, bc.timeout)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				call(b, bc.method, bc.timeout)
			}
		})
	}
	b.Run("parallel8", func(b *testing.B) {
		call(b, "echo", 0)
		b.ReportAllocs()
		b.SetParallelism((8 + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := d.Call(addr, "echo", body); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
