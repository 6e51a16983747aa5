package e2e

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/sim"
)

// countingDialer passes every call on and counts the request and reply
// body bytes it carried.
type countingDialer struct {
	rpc.Dialer
	bytes atomic.Int64
}

func (d *countingDialer) CallTimeout(addr, method string, body []byte, timeout time.Duration) ([]byte, error) {
	resp, err := d.Dialer.CallTimeout(addr, method, body, timeout)
	d.bytes.Add(int64(len(body) + len(resp)))
	return resp, err
}

// BenchmarkTCPRead is the read path over real sockets: one client runs a
// closed loop of point reads over loopback TCP against a slave, the
// auditor and a master (the deploy deployment), with no double-check, so
// each read is one s.read and one a.pledge. wire-B/read is the request
// and reply body bytes the client sent and received per read, setup
// excluded; whole-stamps/read the share of replies that carried their
// stamp whole rather than leaving out the one the client held. `make
// profile-read` runs it under the CPU profiler.
func BenchmarkTCPRead(b *testing.B) {
	d := deploy(b, 1, nil, nil)
	defer d.close()
	params := d.params
	params.DoubleCheckP = 0
	dlr := &countingDialer{Dialer: d.dialer}
	c := core.NewClient(core.ClientConfig{
		Addr: reserveAddr(b), Keys: cryptoutil.DeriveKeyPair("reader", 0), Params: params,
		ContentKey: d.owner.Public, Directory: d.dir,
		AuditorAddr: d.auditor.Addr(), PreferredMaster: 0, Seed: 5,
	}, sim.RealClock{}, dlr)
	if err := c.Setup(); err != nil {
		b.Fatal(err)
	}
	q := query.Get{Key: "k"}
	setup := dlr.bytes.Load()
	before := c.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Read(q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := c.Stats()
	b.ReportMetric(float64(dlr.bytes.Load()-setup)/float64(b.N), "wire-B/read")
	b.ReportMetric(float64(st.StampCacheMisses-before.StampCacheMisses)/float64(b.N), "whole-stamps/read")
}
