package rpc

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestDropLosesRequests(t *testing.T) {
	s := sim.New(1)
	net := NewSimNet(s, sim.Const(time.Millisecond))
	served := 0
	net.Register("server", func(from, method string, body []byte) ([]byte, error) {
		served++
		return nil, nil
	})
	net.SetDrop("client", "server", 1.0) // every request lost
	d := net.Dialer("client")
	var err error
	s.Go(func() {
		_, err = d.CallTimeout("server", "x", nil, 20*time.Millisecond)
	})
	s.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
	if served != 0 {
		t.Fatalf("handler ran %d times despite full loss", served)
	}
	if net.Dropped() == 0 {
		t.Fatal("drop not counted")
	}
}

func TestDropLosesReplies(t *testing.T) {
	s := sim.New(2)
	net := NewSimNet(s, sim.Const(time.Millisecond))
	served := 0
	net.Register("server", func(from, method string, body []byte) ([]byte, error) {
		served++
		return []byte("ok"), nil
	})
	net.SetDrop("server", "client", 1.0) // every reply lost
	d := net.Dialer("client")
	var err error
	s.Go(func() {
		_, err = d.CallTimeout("server", "x", nil, 20*time.Millisecond)
	})
	s.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
	if served != 1 {
		t.Fatalf("handler ran %d times, want 1 (request side was fine)", served)
	}
}

func TestDropWithoutTimeoutSurfacesUnreachable(t *testing.T) {
	s := sim.New(3)
	net := NewSimNet(s, sim.Const(time.Millisecond))
	net.Register("server", func(from, method string, body []byte) ([]byte, error) {
		return nil, nil
	})
	net.SetDrop("client", "server", 1.0)
	d := net.Dialer("client")
	var err error
	s.Go(func() {
		_, err = d.CallTimeout("server", "x", nil, 0) // no timeout
	})
	s.Run()
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want unreachable (no-timeout lost message)", err)
	}
}

func TestPartialDropSomeSucceed(t *testing.T) {
	s := sim.New(4)
	net := NewSimNet(s, sim.Const(time.Millisecond))
	net.Register("server", func(from, method string, body []byte) ([]byte, error) {
		return nil, nil
	})
	net.DefaultDrop = 0.3
	d := net.Dialer("client")
	okCount, failCount := 0, 0
	s.Go(func() {
		for i := 0; i < 200; i++ {
			if _, err := d.CallTimeout("server", "x", nil, 10*time.Millisecond); err == nil {
				okCount++
			} else {
				failCount++
			}
		}
	})
	s.Run()
	// P(call survives) = 0.7 * 0.7 = 0.49; allow wide slack.
	if okCount < 60 || okCount > 140 {
		t.Fatalf("ok = %d of 200, want ~98", okCount)
	}
	if failCount == 0 {
		t.Fatal("no failures under 30% loss")
	}
}

func TestDropDeterministic(t *testing.T) {
	run := func() (uint64, int) {
		s := sim.New(77)
		net := NewSimNet(s, sim.Const(time.Millisecond))
		net.Register("server", func(from, method string, body []byte) ([]byte, error) {
			return nil, nil
		})
		net.DefaultDrop = 0.5
		d := net.Dialer("client")
		ok := 0
		s.Go(func() {
			for i := 0; i < 50; i++ {
				if _, err := d.CallTimeout("server", "x", nil, 5*time.Millisecond); err == nil {
					ok++
				}
			}
		})
		s.Run()
		return net.Dropped(), ok
	}
	d1, ok1 := run()
	d2, ok2 := run()
	if d1 != d2 || ok1 != ok2 {
		t.Fatalf("loss model not deterministic: (%d,%d) vs (%d,%d)", d1, ok1, d2, ok2)
	}
}
