package e2e

import (
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// countingDialer passes every call on and counts the request and reply
// body bytes it carried, and the largest a.pledge request.
type countingDialer struct {
	rpc.Dialer
	bytes         atomic.Int64
	largestPledge atomic.Int64
}

func (d *countingDialer) CallTimeout(addr, method string, body []byte, timeout time.Duration) ([]byte, error) {
	resp, err := d.Dialer.CallTimeout(addr, method, body, timeout)
	d.bytes.Add(int64(len(body) + len(resp)))
	if method == core.MethodPledge {
		for n := int64(len(body)); ; {
			seen := d.largestPledge.Load()
			if n <= seen || d.largestPledge.CompareAndSwap(seen, n) {
				break
			}
		}
	}
	return resp, err
}

// tcpReader deploys a slave, the auditor and a master over loopback TCP
// (the deploy deployment) and sets up one client with no double-check,
// so each of its reads is one s.read and one a.pledge, through a
// countingDialer. The caller closes the deployment.
func tcpReader(tb testing.TB) (*deployment, *core.Client, *countingDialer) {
	tb.Helper()
	d := deploy(tb, 1, nil, nil)
	params := d.params
	params.DoubleCheckP = 0
	dlr := &countingDialer{Dialer: d.dialer}
	c := core.NewClient(core.ClientConfig{
		Addr: reserveAddr(tb), Keys: cryptoutil.DeriveKeyPair("reader", 0), Params: params,
		ContentKey: d.owner.Public, Directory: d.dir,
		AuditorAddr: d.auditor.Addr(), PreferredMaster: 0, Seed: 5,
	}, sim.RealClock{}, dlr)
	if err := c.Setup(); err != nil {
		d.close()
		tb.Fatal(err)
	}
	return d, c, dlr
}

// BenchmarkTCPRead is the read path over real sockets: one client runs a
// closed loop of point reads against tcpReader's deployment.
// wire-B/read is the request and reply body bytes the client sent and
// received per read, setup excluded; whole-stamps/read the share of
// replies that carried their stamp whole rather than leaving out the one
// the client held. `make profile-read` runs it under the CPU profiler.
func BenchmarkTCPRead(b *testing.B) {
	d, c, dlr := tcpReader(b)
	defer d.close()
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

// TestTCPReadWireBytes holds BenchmarkTCPRead's wire figure under go
// test: 200 point reads the auditor vouches for forward each read's
// statement and never the slave's key or signature, so no a.pledge
// request on them is larger than 48 bytes, and the client sends and
// receives at most 125 bytes per read (≈ 112; 209 when every forward
// carried the whole evidence frame).
func TestTCPReadWireBytes(t *testing.T) {
	const reads, maxPledge, maxPerRead = 200, 48, 125
	d, c, dlr := tcpReader(t)
	defer d.close()
	q := query.Get{Key: "k"}
	setup := dlr.bytes.Load()
	before := c.Stats()
	for i := 0; i < reads; i++ {
		if _, err := c.Read(q); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if n := st.ReadsAccepted - before.ReadsAccepted; n != reads || st.PledgesVerified != before.PledgesVerified {
		t.Fatalf("%d reads accepted, %d pledge verifies: want %d, every one vouched", n, st.PledgesVerified-before.PledgesVerified, reads)
	}
	if got := dlr.largestPledge.Load(); got > maxPledge {
		t.Errorf("an a.pledge request on a vouched read carries %d bytes, want <= %d: the slave's key and signature travel", got, maxPledge)
	}
	if perRead := float64(dlr.bytes.Load()-setup) / reads; perRead > maxPerRead {
		t.Errorf("%.1f wire bytes per read, want <= %d", perRead, maxPerRead)
	}
}

// TestTCPScanWireBytes is TestTCPReadWireBytes for scans: tcpReader's
// deployment gains ten catalog keys in one batch, and 200 vouched
// Range{Limit: 10} reads over them cost the client at most 240 bytes each
// (≈ 227, the ten keys front-coded; ≈ 326 when every key of the answer
// traveled whole).
func TestTCPScanWireBytes(t *testing.T) {
	const reads, maxPerRead = 200, 240
	d, c, dlr := tcpReader(t)
	defer d.close()
	ops := make([]store.Op, 10)
	for i := range ops {
		ops[i] = store.Put{Key: workload.CatalogKey(i), Value: []byte(strconv.Itoa(100 + i))}
	}
	if _, err := d.client.WriteMulti(ops); err != nil {
		t.Fatal(err)
	}
	want := d.master.Version()
	for deadline := time.Now().Add(5 * time.Second); d.slaves[0].Version() < want || d.auditor.Version() < want; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("slave at %d, auditor at %d: want both at %d", d.slaves[0].Version(), d.auditor.Version(), want)
		}
	}
	q := query.Range{From: "catalog/", To: "catalog0", Limit: 10}
	setup := dlr.bytes.Load()
	before := c.Stats()
	for i := 0; i < reads; i++ {
		payload, err := c.Read(q)
		if err != nil {
			t.Fatal(err)
		}
		if pairs, err := query.RangeResult(payload); err != nil || len(pairs) != 10 {
			t.Fatalf("range answer: %d pairs, err %v; want 10", len(pairs), err)
		}
	}
	st := c.Stats()
	if n := st.ReadsAccepted - before.ReadsAccepted; n != reads || st.PledgesVerified != before.PledgesVerified {
		t.Fatalf("%d reads accepted, %d pledge verifies: want %d, every one vouched", n, st.PledgesVerified-before.PledgesVerified, reads)
	}
	perRead := float64(dlr.bytes.Load()-setup) / reads
	t.Logf("%.1f wire bytes per scan read", perRead)
	if perRead > maxPerRead {
		t.Errorf("%.1f wire bytes per scan read, want <= %d", perRead, maxPerRead)
	}
}
