package main

import (
	"encoding/binary"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/dirsrv"
	"repro/internal/rpc"
)

// Every layer is measured from outside the system under test: the
// benchmark hands each node a counting dialer and serves each node
// behind a counting handler. Counters are always on (the end-to-end
// wire-byte metric needs them); spans are recorded only while tracing.

// role identifies a node of the bench deployment.
type role uint8

const (
	roleDir role = iota
	roleM0
	roleM1
	roleAud
	roleS0
	roleS1
	roleC0
	roleC1
	roleC2
	nRoles
)

var roleNames = [nRoles]string{"dir", "m0", "m1", "auditor", "s0", "s1", "c0", "c1", "c2"}

// roleKind groups roles for handler span names ("handle.<kind>.<method>").
func (r role) kind() string {
	switch r {
	case roleDir:
		return "dir"
	case roleM0, roleM1:
		return "master"
	case roleAud:
		return "auditor"
	case roleS0, roleS1:
		return "slave"
	}
	return "client"
}

// methodNames is the fixed method table; index 0 collects anything not
// listed so an unknown method cannot index out of range.
var methodNames = []string{
	"other",
	core.MethodRead, core.MethodPledge, core.MethodCheck, core.MethodWriteMulti,
	core.MethodUpdateBatch, core.MethodKeepAlive, core.MethodSync,
	broadcast.MethodSubmit, broadcast.MethodCommit, broadcast.MethodHello,
	broadcast.MethodFetch, broadcast.MethodStatus,
	core.MethodWrite, core.MethodUpdate, core.MethodGetSlave, core.MethodReport,
	core.MethodSnapshot, core.MethodPledgeMulti, core.MethodNotify,
	dirsrv.MethodMasters, dirsrv.MethodPublish, dirsrv.MethodExcluded,
	dirsrv.MethodExclude, dirsrv.MethodShardMap,
}

var methodIndex = func() map[string]uint8 {
	m := make(map[string]uint8, len(methodNames))
	for i, n := range methodNames {
		m[n] = uint8(i)
	}
	return m
}()

func methodID(name string) uint8 { return methodIndex[name] } // 0 = "other"

// callCounters accumulate one (caller role, method) cell of dialer
// traffic, or one (serving role, method) cell of handler work.
type callCounters struct {
	calls, reqBytes, respBytes, ns, errs, timeouts atomic.Int64
}

type counterSnapshot struct {
	calls, reqBytes, respBytes, ns, errs, timeouts int64
}

func (c *callCounters) snapshot() counterSnapshot {
	return counterSnapshot{
		calls: c.calls.Load(), reqBytes: c.reqBytes.Load(), respBytes: c.respBytes.Load(),
		ns: c.ns.Load(), errs: c.errs.Load(), timeouts: c.timeouts.Load(),
	}
}

func (a counterSnapshot) sub(b counterSnapshot) counterSnapshot {
	return counterSnapshot{
		calls: a.calls - b.calls, reqBytes: a.reqBytes - b.reqBytes, respBytes: a.respBytes - b.respBytes,
		ns: a.ns - b.ns, errs: a.errs - b.errs, timeouts: a.timeouts - b.timeouts,
	}
}

func (a counterSnapshot) add(b counterSnapshot) counterSnapshot {
	return counterSnapshot{
		calls: a.calls + b.calls, reqBytes: a.reqBytes + b.reqBytes, respBytes: a.respBytes + b.respBytes,
		ns: a.ns + b.ns, errs: a.errs + b.errs, timeouts: a.timeouts + b.timeouts,
	}
}

func (a counterSnapshot) bytes() int64 { return a.reqBytes + a.respBytes }

// Span kinds.
const (
	spanRoot    uint8 = iota // one client operation, recorded by the driver
	spanRPC                  // one dialer call, recorded by the caller's dialer
	spanHandler              // one served request, recorded by the handler wrapper
)

// Root-span operation codes (stored in span.method for spanRoot).
const (
	opRead uint8 = iota
	opWriteMulti
)

var rootNames = [...]string{"client.read", "client.writemulti"}

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch (monotonic). parent is the parent's index + 1, 0 for
// none; handler spans get theirs when the trace is resolved, never on
// the hot path.
type span struct {
	kind   uint8
	role   uint8 // calling role (root, rpc) or serving role (handler)
	dest   uint8 // destination role (rpc only)
	method uint8
	failed bool
	bytes  uint32
	parent int32
	start  int64
	end    int64
	op     uint64 // client operation id shared by a root and its rpc children
	key    uint64 // leading 8 bytes of SHA-1(request body): pairs handler and caller
}

// recorder holds the deployment-wide counters and the span slab.
type recorder struct {
	epoch    time.Time
	addrRole map[string]role // filled before any node runs; read-only after

	dial   [nRoles][]callCounters // [caller][method]
	served [nRoles][]callCounters // [server][method]; reqBytes/respBytes unused

	tracing atomic.Bool
	spans   []span
	next    atomic.Int64 // slots handed out
	written atomic.Int64 // slots filled: publishes them to the reader
	dropped atomic.Int64
}

func newRecorder(spanCap int) *recorder {
	r := &recorder{epoch: time.Now(), addrRole: make(map[string]role), spans: make([]span, spanCap)}
	for i := range r.dial {
		r.dial[i] = make([]callCounters, len(methodNames))
		r.served[i] = make([]callCounters, len(methodNames))
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// alloc reserves a span slot, or returns -1 when the slab is full (the
// run then fails its trace check rather than reporting partial numbers).
func (r *recorder) alloc() int {
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return -1
	}
	return int(i)
}

// put records one finished span.
func (r *recorder) put(s span) {
	if i := r.alloc(); i >= 0 {
		r.spans[i] = s
		r.written.Add(1)
	}
}

// recorded returns the spans once tracing is off and the load has
// stopped. A call that saw tracing on just before it was switched off
// may still be filling its slot; wait for it, so that every slot read
// here was published by its writer.
func (r *recorder) recorded() []span {
	n := min(r.next.Load(), int64(len(r.spans)))
	for r.written.Load() < n {
		time.Sleep(100 * time.Microsecond)
	}
	return r.spans[:n]
}

func bodyKey(body []byte) uint64 {
	d := cryptoutil.HashBytes(body)
	return binary.BigEndian.Uint64(d[:8])
}

// dialSnapshot sums the dialer counters of every caller for one method.
func (r *recorder) dialSnapshot(method uint8) counterSnapshot {
	var s counterSnapshot
	for c := range r.dial {
		s = s.add(r.dial[c][method].snapshot())
	}
	return s
}

// countingDialer wraps one node's TCP dialer, so the calling role of
// every request is known.
type countingDialer struct {
	rec   *recorder
	role  role
	inner *rpc.TCPDialer

	// curOp/curRoot attribute rpc calls to the client operation in
	// flight. Only client dialers set them, and each bench client is
	// driven by exactly one goroutine, so one slot suffices.
	curOp   atomic.Uint64
	curRoot atomic.Int32
}

func (d *countingDialer) Call(addr, method string, body []byte) ([]byte, error) {
	return d.CallTimeout(addr, method, body, 0)
}

func (d *countingDialer) CallTimeout(addr, method string, body []byte, timeout time.Duration) ([]byte, error) {
	mid := methodID(method)
	start := d.rec.now()
	resp, err := d.inner.CallTimeout(addr, method, body, timeout)
	end := d.rec.now()

	c := &d.rec.dial[d.role][mid]
	c.calls.Add(1)
	c.reqBytes.Add(int64(len(body)))
	c.respBytes.Add(int64(len(resp)))
	c.ns.Add(end - start)
	if err != nil {
		c.errs.Add(1)
		if errors.Is(err, rpc.ErrTimeout) {
			c.timeouts.Add(1)
		}
	}
	if d.rec.tracing.Load() {
		d.rec.put(span{
			kind: spanRPC, role: uint8(d.role), dest: uint8(d.rec.addrRole[addr]), method: mid,
			failed: err != nil, bytes: uint32(len(body) + len(resp)),
			parent: d.curRoot.Load(), start: start, end: end,
			op: d.curOp.Load(), key: bodyKey(body),
		})
	}
	return resp, err
}

// beginOp opens a root span for a client operation and routes the
// client's rpc calls to it until endOp.
func (d *countingDialer) beginOp(op uint8, id uint64) int {
	if !d.rec.tracing.Load() {
		return -1
	}
	i := d.rec.alloc()
	if i < 0 {
		return -1
	}
	d.rec.spans[i] = span{kind: spanRoot, role: uint8(d.role), method: op, start: d.rec.now(), op: id}
	d.curOp.Store(id)
	d.curRoot.Store(int32(i + 1))
	return i
}

func (d *countingDialer) endOp(i int, failed bool) {
	if i < 0 {
		return
	}
	d.curOp.Store(0)
	d.curRoot.Store(0)
	d.rec.spans[i].end = d.rec.now()
	d.rec.spans[i].failed = failed
	d.rec.written.Add(1)
}

// wrapHandler counts and (while tracing) records every request a node
// serves.
func (r *recorder) wrapHandler(serving role, h rpc.Handler) rpc.Handler {
	return func(from, method string, body []byte) ([]byte, error) {
		mid := methodID(method)
		start := r.now()
		resp, err := h(from, method, body)
		end := r.now()
		c := &r.served[serving][mid]
		c.calls.Add(1)
		c.ns.Add(end - start)
		if err != nil {
			c.errs.Add(1)
		}
		if r.tracing.Load() {
			r.put(span{
				kind: spanHandler, role: uint8(serving), dest: uint8(serving), method: mid,
				failed: err != nil, bytes: uint32(len(body) + len(resp)),
				start: start, end: end, key: bodyKey(body),
			})
		}
		return resp, err
	}
}

// lateHandler lets a listener be bound (and its address learned) before
// the node that will serve it exists: bind, read Addr(), construct the
// node on that address, then set the handler. Nothing is ever closed and
// re-listened, so no other process can take the port in between.
type lateHandler struct {
	h atomic.Pointer[rpc.Handler]
}

var errNotServing = errors.New("replbench: node not constructed yet")

func (l *lateHandler) handle(from, method string, body []byte) ([]byte, error) {
	h := l.h.Load()
	if h == nil {
		return nil, errNotServing
	}
	return (*h)(from, method, body)
}

func (l *lateHandler) set(h rpc.Handler) { l.h.Store(&h) }
