package dirsrv

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/pki"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/wire"
)

func rig(t *testing.T) (*sim.Sim, *Server, *Client, *cryptoutil.KeyPair) {
	t.Helper()
	s := sim.New(1)
	net := rpc.NewSimNet(s, sim.Const(time.Millisecond))
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	srv := NewServer(owner.Public)
	net.Register("dir", srv.Handle)
	cl := &Client{Addr: "dir", Dialer: net.Dialer("client")}
	return s, srv, cl, owner
}

func TestPublishLookupRoundTrip(t *testing.T) {
	s, _, cl, owner := rig(t)
	m := cryptoutil.DeriveKeyPair("master", 0)
	cert := pki.Certificate{Role: pki.RoleMaster, Addr: "m0", Subject: m.Public, Shard: 3}
	cert.Sign(owner)
	var got []pki.Certificate
	s.Go(func() {
		if err := cl.Publish(cert); err != nil {
			t.Errorf("publish: %v", err)
		}
		var err error
		if _, got, err = cl.ShardMap(); !errors.Is(err, pki.ErrNoShardTable) {
			t.Errorf("lookup: %v, want the certificates beside ErrNoShardTable", err)
		}
	})
	s.Run()
	if len(got) != 1 || got[0].Addr != "m0" || got[0].Shard != 3 {
		t.Fatalf("masters = %+v", got)
	}
	if got[0].Verify(owner.Public) != nil {
		t.Fatal("returned cert does not verify")
	}
}

// TestPublishRejectsForgedCertsEveryRole is the regression test for the
// fail-open publish path: only master certificates used to be verified,
// so a forged slave or auditor certificate was stored as-is.
func TestPublishRejectsForgedCertsEveryRole(t *testing.T) {
	for _, role := range []string{pki.RoleMaster, pki.RoleSlave, pki.RoleAuditor} {
		t.Run(role, func(t *testing.T) {
			s, srv, cl, _ := rig(t)
			evil := cryptoutil.DeriveKeyPair("evil", 0)
			cert := pki.Certificate{Role: role, Addr: "evil", Subject: evil.Public}
			cert.Sign(evil) // self-signed, not the content owner
			var pubErr error
			s.Go(func() { pubErr = cl.Publish(cert) })
			s.Run()
			if pubErr == nil {
				t.Fatalf("forged %s cert accepted", role)
			}
			if _, err := srv.Dir.Lookup(srv.ContentKey); err == nil {
				t.Fatalf("forged %s cert stored", role)
			}
		})
	}
}

// TestPublishRejectsGarbage feeds undecodable bytes to every mutating
// method; none may panic or store anything.
func TestPublishRejectsGarbage(t *testing.T) {
	_, srv, _, _ := rig(t)
	garbage := []byte{0xff, 0x01, 0x02, 0x03}
	for _, method := range []string{MethodPublish, MethodExclude, MethodPublishTable} {
		if _, err := srv.Handle("x", method, garbage); err == nil {
			t.Fatalf("%s accepted garbage", method)
		}
	}
	if _, err := srv.Dir.Lookup(srv.ContentKey); err == nil {
		t.Fatal("garbage produced directory state")
	}
}

func TestWithdraw(t *testing.T) {
	s, _, cl, owner := rig(t)
	m := cryptoutil.DeriveKeyPair("master", 0)
	cert := pki.Certificate{Role: pki.RoleMaster, Addr: "m0", Subject: m.Public}
	cert.Sign(owner)
	var left []pki.Certificate
	s.Go(func() {
		if perr := cl.Publish(cert); perr != nil {
			t.Errorf("publish: %v", perr)
		}
		if werr := cl.Retract(retraction(m, pki.RetractWithdraw, m.Public, s.Now())); werr != nil {
			t.Errorf("withdraw: %v", werr)
		}
		_, left, _ = cl.ShardMap()
	})
	s.Run()
	if len(left) != 0 {
		t.Fatalf("certificates remained after withdraw: %+v", left)
	}
}

func retraction(signer *cryptoutil.KeyPair, kind string, subject cryptoutil.PublicKey, at time.Time) pki.Retraction {
	r := pki.Retraction{Kind: kind, Subject: subject, At: at}
	r.Sign(signer)
	return r
}

// TestRetractionsRequireCertifiedMaster: d.withdraw and d.reinstate act
// only on a retraction a certified master signed, and a replayed one
// touches nothing dated after it. Both used to take a bare key from
// anyone, so one frame per key deleted every master certificate or lifted
// any exclusion (the "bare key" rows). The honest rows are the records the
// takeover withdraw (applyAdopt) and readmission (applyReadmit) send.
func TestRetractionsRequireCertifiedMaster(t *testing.T) {
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	dead := cryptoutil.DeriveKeyPair("master", 0)
	survivor := cryptoutil.DeriveKeyPair("master", 1)
	impostor := cryptoutil.DeriveKeyPair("impostor", 0)
	slave := cryptoutil.DeriveKeyPair("slave", 0)
	issued := time.Unix(1000, 0)
	before, after := issued.Add(-time.Second), issued.Add(time.Second)
	encode := func(r pki.Retraction) []byte { return wire.EncodeFrame(r.Encode) }
	bareKey := func(pub cryptoutil.PublicKey) []byte {
		return wire.EncodeFrame(func(w *wire.Writer) { w.Bytes_(pub) })
	}
	unsigned := pki.Retraction{Kind: pki.RetractWithdraw, Subject: dead.Public, At: after}
	for _, row := range []struct {
		name            string
		method          string
		body            []byte
		refused         bool
		withdrawn, lift bool // the dead master's certificate gone, the slave's exclusion lifted
	}{
		{name: "bare key withdraw", method: MethodWithdraw, body: bareKey(dead.Public), refused: true},
		{name: "unsigned withdraw", method: MethodWithdraw, body: encode(unsigned), refused: true},
		{name: "forged withdraw", method: MethodWithdraw, body: encode(retraction(impostor, pki.RetractWithdraw, dead.Public, after)), refused: true},
		{name: "withdraw sent as reinstate", method: MethodReinstate, body: encode(retraction(survivor, pki.RetractWithdraw, dead.Public, after)), refused: true},
		{name: "replayed withdraw", method: MethodWithdraw, body: encode(retraction(survivor, pki.RetractWithdraw, dead.Public, before))},
		{name: "takeover withdraw", method: MethodWithdraw, body: encode(retraction(survivor, pki.RetractWithdraw, dead.Public, after)), withdrawn: true},
		{name: "bare key reinstate", method: MethodReinstate, body: bareKey(slave.Public), refused: true},
		{name: "forged reinstate", method: MethodReinstate, body: encode(retraction(impostor, pki.RetractReinstate, slave.Public, after)), refused: true},
		{name: "replayed reinstate", method: MethodReinstate, body: encode(retraction(survivor, pki.RetractReinstate, slave.Public, before))},
		{name: "readmission", method: MethodReinstate, body: encode(retraction(survivor, pki.RetractReinstate, slave.Public, after)), lift: true},
	} {
		t.Run(row.name, func(t *testing.T) {
			srv := NewServer(owner.Public)
			for i, m := range []*cryptoutil.KeyPair{dead, survivor} {
				cert := pki.Certificate{Role: pki.RoleMaster, Addr: fmt.Sprintf("m%d", i), Subject: m.Public, IssuedAt: issued}
				cert.Sign(owner)
				srv.Dir.Publish(owner.Public, cert)
			}
			excl := pki.Exclusion{Subject: slave.Public, Reason: "lied", At: issued}
			excl.Sign(survivor)
			srv.Dir.RecordExclusion(owner.Public, excl)

			_, err := srv.Handle("x", row.method, row.body)
			if refused := err != nil; refused != row.refused {
				t.Fatalf("refused = %v (%v), want %v", refused, err, row.refused)
			}
			masters, _ := srv.Dir.VerifiedMasters(owner.Public)
			if withdrawn := len(masters) == 1; withdrawn != row.withdrawn {
				t.Errorf("dead master's certificate withdrawn = %v, want %v", withdrawn, row.withdrawn)
			}
			if lifted := !srv.Dir.IsExcluded(owner.Public, slave.Public); lifted != row.lift {
				t.Errorf("exclusion lifted = %v, want %v", lifted, row.lift)
			}
		})
	}
}

func TestExclusionRoundTrip(t *testing.T) {
	s, _, cl, owner := rig(t)
	master := cryptoutil.DeriveKeyPair("master", 0)
	slave := cryptoutil.DeriveKeyPair("slave", 0)
	cert := pki.Certificate{Role: pki.RoleMaster, Addr: "m0", Subject: master.Public}
	cert.Sign(owner)
	e := pki.Exclusion{Subject: slave.Public, Reason: "lied"}
	e.Sign(master)
	var before, after bool
	s.Go(func() {
		if err := cl.Publish(cert); err != nil {
			t.Errorf("publish: %v", err)
		}
		var err error
		before, err = cl.IsExcluded(slave.Public)
		if err != nil {
			t.Errorf("before: %v", err)
		}
		if err := cl.RecordExclusion(e); err != nil {
			t.Errorf("record: %v", err)
		}
		after, err = cl.IsExcluded(slave.Public)
		if err != nil {
			t.Errorf("after: %v", err)
		}
	})
	s.Run()
	if before || !after {
		t.Fatalf("exclusion: before=%v after=%v", before, after)
	}
}

// TestExclusionRequiresCertifiedMaster: an exclusion signed by a key the
// directory never certified as a master is refused.
func TestExclusionRequiresCertifiedMaster(t *testing.T) {
	s, srv, cl, owner := rig(t)
	master := cryptoutil.DeriveKeyPair("master", 0)
	impostor := cryptoutil.DeriveKeyPair("impostor", 0)
	slave := cryptoutil.DeriveKeyPair("slave", 0)
	cert := pki.Certificate{Role: pki.RoleMaster, Addr: "m0", Subject: master.Public}
	cert.Sign(owner)
	e := pki.Exclusion{Subject: slave.Public, Reason: "forged"}
	e.Sign(impostor)
	var recErr error
	s.Go(func() {
		if err := cl.Publish(cert); err != nil {
			t.Errorf("publish: %v", err)
		}
		recErr = cl.RecordExclusion(e)
	})
	s.Run()
	if recErr == nil {
		t.Fatal("exclusion by an uncertified signer accepted")
	}
	if srv.Dir.IsExcluded(srv.ContentKey, slave.Public) {
		t.Fatal("forged exclusion stored")
	}
}

func TestReinstateClearsExclusion(t *testing.T) {
	s, _, cl, owner := rig(t)
	master := cryptoutil.DeriveKeyPair("master", 0)
	slave := cryptoutil.DeriveKeyPair("slave", 0)
	cert := pki.Certificate{Role: pki.RoleMaster, Addr: "m0", Subject: master.Public}
	cert.Sign(owner)
	e := pki.Exclusion{Subject: slave.Public, Reason: "lied"}
	e.Sign(master)
	var excluded, reinstated bool
	s.Go(func() {
		if err := cl.Publish(cert); err != nil {
			t.Errorf("publish: %v", err)
		}
		if err := cl.RecordExclusion(e); err != nil {
			t.Errorf("record: %v", err)
		}
		var err error
		excluded, err = cl.IsExcluded(slave.Public)
		if err != nil {
			t.Errorf("excluded: %v", err)
		}
		if err := cl.Retract(retraction(master, pki.RetractReinstate, slave.Public, s.Now())); err != nil {
			t.Errorf("clear: %v", err)
		}
		still, err := cl.IsExcluded(slave.Public)
		if err != nil {
			t.Errorf("reinstated: %v", err)
		}
		reinstated = !still
	})
	s.Run()
	if !excluded || !reinstated {
		t.Fatalf("excluded=%v reinstated=%v", excluded, reinstated)
	}
}

// failingDialer simulates an unreachable directory.
type failingDialer struct{}

func (failingDialer) CallTimeout(addr, method string, body []byte, d time.Duration) ([]byte, error) {
	return nil, rpc.ErrUnreachable
}

// TestIsExcludedFailsClosed is the regression test for the fail-open
// exclusion check: an RPC failure must surface as an error, never as a
// silent "not excluded" that would reinstate a compromised replica.
func TestIsExcludedFailsClosed(t *testing.T) {
	cl := &Client{Addr: "dir", Dialer: failingDialer{}}
	slave := cryptoutil.DeriveKeyPair("slave", 0)
	excluded, err := cl.IsExcluded(slave.Public)
	if err == nil {
		t.Fatal("IsExcluded swallowed the RPC failure")
	}
	if !errors.Is(err, rpc.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if excluded {
		t.Fatal("excluded should be false alongside the error")
	}
}

// TestMutationsPropagateRPCFailure: a master that publishes through a
// dead directory must learn the directory never heard it.
func TestMutationsPropagateRPCFailure(t *testing.T) {
	cl := &Client{Addr: "dir", Dialer: failingDialer{}}
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	m := cryptoutil.DeriveKeyPair("master", 0)
	cert := pki.Certificate{Role: pki.RoleMaster, Addr: "m0", Subject: m.Public}
	cert.Sign(owner)
	e := pki.Exclusion{Subject: m.Public, Reason: "x"}
	e.Sign(m)
	checks := map[string]error{
		"publish":  cl.Publish(cert),
		"withdraw": cl.Retract(retraction(m, pki.RetractWithdraw, m.Public, time.Time{})),
		"record":   cl.RecordExclusion(e),
		"clear":    cl.Retract(retraction(m, pki.RetractReinstate, m.Public, time.Time{})),
	}
	for name, err := range checks {
		if !errors.Is(err, rpc.ErrUnreachable) {
			t.Errorf("%s: err = %v, want ErrUnreachable", name, err)
		}
	}
	if _, _, err := cl.ShardMap(); !errors.Is(err, rpc.ErrUnreachable) {
		t.Errorf("shardmap: err = %v, want ErrUnreachable", err)
	}
}

func ownerTable(owner *cryptoutil.KeyPair, epoch uint64, bounds ...string) pki.ShardTable {
	t := pki.ShardTable{Epoch: epoch}
	lo := ""
	for i, b := range bounds {
		t.Shards = append(t.Shards, wire.ShardRef{ID: uint32(i), Lo: lo, Hi: b})
		lo = b
	}
	t.Shards = append(t.Shards, wire.ShardRef{ID: uint32(len(bounds)), Lo: lo, Hi: ""})
	t.Sign(owner)
	return t
}

func TestShardTableRoundTripAndRouting(t *testing.T) {
	s, _, cl, owner := rig(t)
	table := ownerTable(owner, 1, "m")
	m0 := cryptoutil.DeriveKeyPair("master", 0)
	m1 := cryptoutil.DeriveKeyPair("master", 1)
	c0 := pki.Certificate{Role: pki.RoleMaster, Addr: "g0-m", Subject: m0.Public, Shard: 0}
	c0.Sign(owner)
	c1 := pki.Certificate{Role: pki.RoleMaster, Addr: "g1-m", Subject: m1.Public, Shard: 1}
	c1.Sign(owner)

	var got pki.ShardTable
	var certs []pki.Certificate
	s.Go(func() {
		if err := cl.PublishShardTable(table); err != nil {
			t.Errorf("publish table: %v", err)
		}
		if err := cl.Publish(c0); err != nil {
			t.Errorf("publish c0: %v", err)
		}
		if err := cl.Publish(c1); err != nil {
			t.Errorf("publish c1: %v", err)
		}
		var err error
		got, certs, err = cl.ShardMap()
		if err != nil {
			t.Errorf("shardmap: %v", err)
		}
	})
	s.Run()
	if got.Epoch != 1 || len(got.Shards) != 2 {
		t.Fatalf("table = %+v", got)
	}
	if err := got.Verify(owner.Public); err != nil {
		t.Fatalf("round-tripped table does not verify: %v", err)
	}
	// Routing is the client's: the table names the owning shard, and the
	// signed shard id on each certificate names its group.
	for key, want := range map[string]string{"apple": "g0-m", "zebra": "g1-m"} {
		id := got.ShardFor(key).ID
		var addrs []string
		for _, c := range certs {
			if c.Shard == id && c.Verify(owner.Public) == nil {
				addrs = append(addrs, c.Addr)
			}
		}
		if len(addrs) != 1 || addrs[0] != want {
			t.Fatalf("masters for %q = %v, want [%s]", key, addrs, want)
		}
	}
}

func TestShardTableRejectsForgeryAndStaleEpoch(t *testing.T) {
	s, srv, cl, owner := rig(t)
	good := ownerTable(owner, 5, "m")
	evil := cryptoutil.DeriveKeyPair("evil", 0)
	forged := ownerTable(evil, 9, "q")
	// Tampered: signed by the owner, then one range bound flipped.
	tampered := ownerTable(owner, 6, "m")
	tampered.Shards[0].Hi = "zzz"
	tampered.Shards[1].Lo = "zzz"
	stale := ownerTable(owner, 4, "k")

	var forgedErr, tamperedErr, staleErr error
	s.Go(func() {
		if err := cl.PublishShardTable(good); err != nil {
			t.Errorf("good table rejected: %v", err)
		}
		forgedErr = cl.PublishShardTable(forged)
		tamperedErr = cl.PublishShardTable(tampered)
		staleErr = cl.PublishShardTable(stale)
	})
	s.Run()
	if forgedErr == nil {
		t.Fatal("forged table accepted")
	}
	if tamperedErr == nil {
		t.Fatal("tampered table accepted")
	}
	if staleErr == nil || !strings.Contains(staleErr.Error(), "epoch") {
		t.Fatalf("stale epoch accepted: %v", staleErr)
	}
	stored, err := srv.Dir.ShardTableFor(srv.ContentKey)
	if err != nil || stored.Epoch != 5 {
		t.Fatalf("stored table = %+v, %v", stored, err)
	}
}

func TestMalformedShardTablesRejected(t *testing.T) {
	owner := cryptoutil.DeriveKeyPair("owner", 0)
	cases := map[string][]wire.ShardRef{
		"empty":    {},
		"open-lo":  {{ID: 0, Lo: "b", Hi: ""}},
		"open-hi":  {{ID: 0, Lo: "", Hi: "m"}},
		"gap":      {{ID: 0, Lo: "", Hi: "d"}, {ID: 1, Lo: "f", Hi: ""}},
		"overlap":  {{ID: 0, Lo: "", Hi: "f"}, {ID: 1, Lo: "d", Hi: ""}},
		"dup-id":   {{ID: 7, Lo: "", Hi: "m"}, {ID: 7, Lo: "m", Hi: ""}},
		"interior": {{ID: 0, Lo: "", Hi: ""}, {ID: 1, Lo: "", Hi: ""}},
	}
	for name, shards := range cases {
		tb := pki.ShardTable{Epoch: 1, Shards: shards}
		tb.Sign(owner)
		if err := tb.Verify(owner.Public); err == nil {
			t.Errorf("%s: malformed table verified", name)
		}
	}
}

func TestUnknownMethod(t *testing.T) {
	_, srv, _, _ := rig(t)
	// d.masters is a frozen name nobody serves: masters read d.shardmap.
	for _, method := range []string{"d.nope", MethodMasters} {
		if _, err := srv.Handle("x", method, nil); err == nil {
			t.Fatalf("unknown method %s accepted", method)
		}
	}
}

// TestStalledDirectoryCallsBounded: a directory that accepts a request and
// never answers costs each call callTimeout, not forever. Masters call
// ShardMap (an exclusion's origin check), RecordExclusion and Retract (a
// readmission) on their broadcast delivery drainer, so an unbounded call
// there would stop every later delivery; the other Client calls share the
// bound.
func TestStalledDirectoryCallsBounded(t *testing.T) {
	release := make(chan struct{})
	srv, err := rpc.ListenTCP("127.0.0.1:0", func(from, method string, body []byte) ([]byte, error) {
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dialer := rpc.NewTCPDialer()
	defer func() {
		close(release)
		dialer.Close()
		srv.Close()
	}()
	cl := &Client{Addr: srv.Addr(), Dialer: dialer}
	m := cryptoutil.DeriveKeyPair("master", 0)
	e := pki.Exclusion{Subject: m.Public, Reason: "x"}
	e.Sign(m)
	cert := pki.Certificate{Role: pki.RoleMaster, Addr: "m0", Subject: m.Public}
	cert.Sign(m)
	r := retraction(m, pki.RetractReinstate, m.Public, time.Now())

	type result struct {
		name string
		err  error
	}
	calls := map[string]func() error{
		"shardmap":   func() error { _, _, err := cl.ShardMap(); return err },
		"record":     func() error { return cl.RecordExclusion(e) },
		"retract":    func() error { return cl.Retract(r) },
		"publish":    func() error { return cl.Publish(cert) },
		"isexcluded": func() error { _, err := cl.IsExcluded(m.Public); return err },
		"table":      func() error { return cl.PublishShardTable(ownerTable(m, 1, "m")) },
	}
	results := make(chan result, len(calls))
	for name, call := range calls {
		go func() { results <- result{name, call()} }()
	}
	deadline := time.After(callTimeout + 2*time.Second)
	for range calls {
		select {
		case r := <-results:
			if !errors.Is(r.err, rpc.ErrTimeout) {
				t.Errorf("%s: err = %v, want ErrTimeout", r.name, r.err)
			}
		case <-deadline:
			t.Fatalf("a call to a stalled directory still waits after %v", callTimeout+2*time.Second)
		}
	}
}
