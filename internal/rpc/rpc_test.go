package rpc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestSimNetBasicCall(t *testing.T) {
	s := sim.New(1)
	net := NewSimNet(s, sim.Const(10*time.Millisecond))
	net.Register("server", func(from, method string, body []byte) ([]byte, error) {
		if method != "echo" {
			return nil, fmt.Errorf("unknown method %s", method)
		}
		return append([]byte("re:"), body...), nil
	})
	d := net.Dialer("client")
	var got []byte
	var rtt time.Duration
	s.Go(func() {
		start := s.Now()
		b, err := d.CallTimeout("server", "echo", []byte("hi"), 0)
		if err != nil {
			t.Errorf("call: %v", err)
			return
		}
		got = b
		rtt = s.Now().Sub(start)
	})
	s.Run()
	if string(got) != "re:hi" {
		t.Fatalf("got %q", got)
	}
	if rtt != 20*time.Millisecond {
		t.Fatalf("rtt = %v, want 20ms (2x one-way)", rtt)
	}
}

func TestSimNetRemoteError(t *testing.T) {
	s := sim.New(1)
	net := NewSimNet(s, sim.Const(time.Millisecond))
	net.Register("server", func(from, method string, body []byte) ([]byte, error) {
		return nil, errors.New("nope")
	})
	d := net.Dialer("client")
	var err error
	s.Go(func() {
		_, err = d.CallTimeout("server", "x", nil, 0)
	})
	s.Run()
	if !IsRemote(err) {
		t.Fatalf("err = %v, want remote", err)
	}
	if !strings.Contains(err.Error(), "nope") {
		t.Fatalf("err = %v", err)
	}
}

func TestSimNetUnreachable(t *testing.T) {
	s := sim.New(1)
	net := NewSimNet(s, sim.Const(time.Millisecond))
	net.Register("server", func(from, method string, body []byte) ([]byte, error) {
		return nil, nil
	})
	net.SetDown("server", true)
	d := net.Dialer("client")
	var err1, err2 error
	s.Go(func() {
		_, err1 = d.CallTimeout("server", "x", nil, 0)
		_, err2 = d.CallTimeout("ghost", "x", nil, 0)
	})
	s.Run()
	if !errors.Is(err1, ErrUnreachable) || !errors.Is(err2, ErrUnreachable) {
		t.Fatalf("errs = %v, %v", err1, err2)
	}
}

func TestSimNetTimeout(t *testing.T) {
	s := sim.New(1)
	net := NewSimNet(s, sim.Const(time.Millisecond))
	net.Register("slow", func(from, method string, body []byte) ([]byte, error) {
		// Block the handler task for a long virtual time.
		s.Sleep(time.Hour)
		return []byte("late"), nil
	})
	d := net.Dialer("client")
	var err error
	var at time.Duration
	s.Go(func() {
		start := s.Now()
		_, err = d.CallTimeout("slow", "x", nil, 50*time.Millisecond)
		at = s.Now().Sub(start)
	})
	s.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
	if at != 50*time.Millisecond {
		t.Fatalf("timed out after %v", at)
	}
}

func TestSimNetPerLinkLatency(t *testing.T) {
	s := sim.New(1)
	net := NewSimNet(s, sim.Const(time.Millisecond))
	net.Register("server", func(from, method string, body []byte) ([]byte, error) {
		return nil, nil
	})
	net.SetLinkBoth("far", "server", sim.Const(100*time.Millisecond))
	var nearRTT, farRTT time.Duration
	s.Go(func() {
		start := s.Now()
		net.Dialer("near").CallTimeout("server", "x", nil, 0)
		nearRTT = s.Now().Sub(start)
		start = s.Now()
		net.Dialer("far").CallTimeout("server", "x", nil, 0)
		farRTT = s.Now().Sub(start)
	})
	s.Run()
	if nearRTT != 2*time.Millisecond || farRTT != 200*time.Millisecond {
		t.Fatalf("near=%v far=%v", nearRTT, farRTT)
	}
}

func TestSimNetHandlerSeesFrom(t *testing.T) {
	s := sim.New(1)
	net := NewSimNet(s, sim.Const(0))
	var seen string
	net.Register("server", func(from, method string, body []byte) ([]byte, error) {
		seen = from
		return nil, nil
	})
	s.Go(func() { net.Dialer("alice").CallTimeout("server", "x", nil, 0) })
	s.Run()
	if seen != "alice" {
		t.Fatalf("from = %q", seen)
	}
}

func TestSimNetStats(t *testing.T) {
	s := sim.New(1)
	net := NewSimNet(s, sim.Const(0))
	net.Register("server", func(from, method string, body []byte) ([]byte, error) {
		return make([]byte, 10), nil
	})
	s.Go(func() {
		net.Dialer("c").CallTimeout("server", "x", make([]byte, 5), 0)
	})
	s.Run()
	if net.Calls() != 1 {
		t.Fatalf("calls = %d", net.Calls())
	}
	if net.Bytes() != 15 {
		t.Fatalf("bytes = %d", net.Bytes())
	}
}

func TestSimNetUnregister(t *testing.T) {
	s := sim.New(1)
	net := NewSimNet(s, sim.Const(time.Millisecond))
	net.Register("server", func(from, method string, body []byte) ([]byte, error) {
		return nil, nil
	})
	d := net.Dialer("client")
	var before, after error
	s.Go(func() {
		_, before = d.CallTimeout("server", "x", nil, 0)
		net.Unregister("server")
		_, after = d.CallTimeout("server", "x", nil, 0)
	})
	s.Run()
	if before != nil {
		t.Fatalf("before: %v", before)
	}
	if !errors.Is(after, ErrUnreachable) {
		t.Fatalf("after unregister: %v", after)
	}
}

func TestSimNetConcurrentCallsDeterministic(t *testing.T) {
	run := func() string {
		s := sim.New(7)
		net := NewSimNet(s, sim.Uniform{Min: time.Millisecond, Max: 10 * time.Millisecond})
		var log []string
		net.Register("server", func(from, method string, body []byte) ([]byte, error) {
			log = append(log, from)
			return nil, nil
		})
		for i := 0; i < 10; i++ {
			name := fmt.Sprintf("c%d", i)
			s.Go(func() { net.Dialer(name).CallTimeout("server", "x", nil, 0) })
		}
		s.Run()
		return strings.Join(log, ",")
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic arrival order:\n%s\n%s", a, b)
	}
}

// --- TCP transport -------------------------------------------------------

func TestTCPEcho(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(from, method string, body []byte) ([]byte, error) {
		return append([]byte(method+":"), body...), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := NewTCPDialer()
	defer d.Close()
	got, err := d.CallTimeout(srv.Addr(), "echo", []byte("payload"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "echo:payload" {
		t.Fatalf("got %q", got)
	}
}

func TestTCPRemoteError(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(from, method string, body []byte) ([]byte, error) {
		return nil, errors.New("denied")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := NewTCPDialer()
	defer d.Close()
	_, err = d.CallTimeout(srv.Addr(), "op", nil, 0)
	if !IsRemote(err) || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPConcurrentCalls(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(from, method string, body []byte) ([]byte, error) {
		return body, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := NewTCPDialer()
	defer d.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("m%d", i)
			got, err := d.CallTimeout(srv.Addr(), "echo", []byte(want), 0)
			if err != nil {
				errs <- err
				return
			}
			if string(got) != want {
				errs <- fmt.Errorf("got %q want %q", got, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestTCPUnreachable(t *testing.T) {
	d := NewTCPDialer()
	defer d.Close()
	_, err := d.CallTimeout("127.0.0.1:1", "x", nil, 0) // port 1: nothing listens
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPTimeout(t *testing.T) {
	block := make(chan struct{})
	srv, err := ListenTCP("127.0.0.1:0", func(from, method string, body []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(block)
	d := NewTCPDialer()
	defer d.Close()
	_, err = d.CallTimeout(srv.Addr(), "x", nil, 50*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPServerClose(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(from, method string, body []byte) ([]byte, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	d := NewTCPDialer()
	defer d.Close()
	if _, err := d.CallTimeout(srv.Addr(), "x", nil, 0); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// Either the cached connection reports closed, or a fresh dial fails.
	_, err = d.CallTimeout(srv.Addr(), "x", nil, 0)
	if err == nil {
		t.Fatal("call succeeded after server close")
	}
}

func TestTCPLargePayload(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(from, method string, body []byte) ([]byte, error) {
		return body, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := NewTCPDialer()
	defer d.Close()
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	got, err := d.CallTimeout(srv.Addr(), "echo", big, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(big) {
		t.Fatalf("len = %d", len(got))
	}
}
