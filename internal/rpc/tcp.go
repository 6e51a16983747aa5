package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Frame layout (both directions):
//
//	uint32 big-endian frame length (bytes after this field)
//	payload (wire encoding):
//	  request:  uvarint id, byte 0, string method, bytes body
//	  response: uvarint id, byte 1, string errmsg ("" = ok), bytes body
const maxFrame = 64 << 20

// frameStep is the largest buffer a frame header alone can make a peer
// allocate: a longer frame's buffer doubles as its bytes arrive, so memory
// follows what was received, not what four unauthenticated bytes announce.
const frameStep = 64 << 10

const (
	frameRequest  = 0
	frameResponse = 1
)

// maxIdleWorkers is how many parked workers a connection keeps. A burst
// starts as many as it needs; the ones above this exit as they finish.
const maxIdleWorkers = 4

// A connection interns up to maxInterned method names of at most
// maxInternedLen bytes, so a request costs no string; a peer that invents
// names pays for a fresh one per frame instead of growing the table.
const (
	maxInterned    = 64
	maxInternedLen = 64
)

// TCPServer serves a Handler on a TCP listener.
type TCPServer struct {
	h  Handler
	ln net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// ListenTCP starts serving h on addr ("host:port"; ":0" picks a port).
func ListenTCP(addr string, h Handler) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	s := &TCPServer{h: h, ln: ln, conns: make(map[net.Conn]struct{})}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and all open connections.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	return err
}

func (s *TCPServer) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

type request struct {
	id     uint64
	method string
	body   []byte
}

// serverConn is one accepted connection: the goroutine that reads its
// frames and the workers that run the handler and write the responses.
type serverConn struct {
	h    Handler
	conn net.Conn
	from string
	wmu  sync.Mutex // one response frame on the socket at a time

	// work is unbuffered: a request is never queued behind a running
	// handler. idle counts the workers that are receiving from work or
	// have committed to (park); only the reader takes from it.
	work chan request
	idle atomic.Int32
}

// serveConn reads the connection's requests and hands each to a worker: a
// parked one if there is one, a new one otherwise, so a slow handler never
// blocks the pipe. Closing work on the way out ends every worker.
func (s *TCPServer) serveConn(conn net.Conn) {
	sc := &serverConn{h: s.h, conn: conn, from: conn.RemoteAddr().String(), work: make(chan request)}
	defer func() {
		close(sc.work)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	fr := frameReader{br: bufio.NewReader(conn)}
	methods := make(map[string]string)
	for {
		payload, err := fr.next()
		if err != nil {
			return
		}
		id, kind, head, body, err := decodeFrame(payload)
		if err != nil || kind != frameRequest {
			return // protocol violation: drop the connection
		}
		method, ok := methods[string(head)]
		if !ok {
			method = string(head)
			if len(methods) < maxInterned && len(method) <= maxInternedLen {
				methods[method] = method
			}
		}
		req := request{id: id, method: method, body: body}
		if sc.idle.Load() > 0 {
			sc.idle.Add(-1)
			sc.work <- req
		} else {
			go sc.worker(req)
		}
	}
}

// worker serves req, then the requests the reader hands it, until the
// connection closes or enough other workers are parked already.
func (sc *serverConn) worker(req request) {
	for {
		respBody, herr := sc.h(sc.from, req.method, req.body)
		errmsg := ""
		if herr != nil {
			errmsg = herr.Error()
		}
		parked := false
		wire.Borrow(func(w *wire.Writer) { encodeFrame(w, req.id, frameResponse, errmsg, respBody) }, func(frame []byte) {
			// Park before the response leaves: the caller's next request then
			// finds this worker instead of starting another.
			parked = sc.park()
			sc.wmu.Lock()
			sc.conn.Write(frame) // a failed write surfaces as the reader's error
			sc.wmu.Unlock()
		})
		if !parked {
			return
		}
		var ok bool
		if req, ok = <-sc.work; !ok {
			return
		}
	}
}

// park commits the calling worker to receive from work next, unless
// maxIdleWorkers already have.
func (sc *serverConn) park() bool {
	for {
		n := sc.idle.Load()
		if n >= maxIdleWorkers {
			return false
		}
		if sc.idle.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// frameReader reads one connection's frames. hdr is scratch for the length
// prefix: a local array would escape through io.ReadFull, once per frame.
type frameReader struct {
	br  *bufio.Reader
	hdr [4]byte
}

// next returns the next frame's payload in a buffer allocated for that
// frame alone, which the transport never reads or writes again.
func (f *frameReader) next() ([]byte, error) {
	if _, err := io.ReadFull(f.br, f.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(f.hdr[:]))
	if n > maxFrame {
		return nil, fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, min(n, frameStep))
	for got := 0; ; {
		if _, err := io.ReadFull(f.br, buf[got:]); err != nil {
			return nil, err
		}
		if got = len(buf); got == n {
			return buf, nil
		}
		grown := make([]byte, min(n, 2*got))
		copy(grown, buf)
		buf = grown
	}
}

// encodeFrame encodes one whole frame into the empty writer w, length
// prefix included, so the caller sends it with a single Write: one
// syscall and one segment per message on a TCP_NODELAY socket, where a
// separate header write would cost a second of each. head is the method
// of a request or the error message of a response.
func encodeFrame(w *wire.Writer, id uint64, kind byte, head string, body []byte) {
	w.Uint32(0) // frame length, patched below once the payload is encoded
	w.Uvarint(id)
	w.Byte(kind)
	w.String_(head)
	w.Bytes_(body)
	binary.BigEndian.PutUint32(w.Bytes(), uint32(w.Len()-4))
}

// decodeFrame splits a frame's payload (what follows the length prefix)
// into the fields encodeFrame wrote. head and body are views of payload.
// The reader is not pooled: it does not escape, and the views outlive it.
func decodeFrame(payload []byte) (id uint64, kind byte, head, body []byte, err error) {
	r := wire.NewReader(payload)
	id = r.Uvarint()
	kind = r.Byte()
	head = r.BytesView()
	body = r.BytesView()
	return id, kind, head, body, r.Done()
}

// TCPDialer is a Dialer over real TCP connections. Connections are cached
// per destination and multiplex concurrent calls by request id.
type TCPDialer struct {
	mu     sync.Mutex
	conns  map[string]*tcpConn
	dials  map[string]*dialing // addresses being dialled, outside mu
	closed bool                // set by Close; nothing is dialled or cached after it
	dial   func(addr string) (net.Conn, error)
}

// dialing is one dial in flight; everyone who wants its address waits on
// done and then shares the outcome.
type dialing struct {
	done chan struct{}
	c    *tcpConn
	err  error
}

// NewTCPDialer returns an empty connection cache.
func NewTCPDialer() *TCPDialer {
	return &TCPDialer{
		conns: make(map[string]*tcpConn),
		dials: make(map[string]*dialing),
		dial: func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		},
	}
}

type tcpConn struct {
	conn    net.Conn
	mu      sync.Mutex // guards writes and the pending map
	pending map[uint64]*callSlot
	nextID  uint64
	dead    atomic.Bool // set under mu; the dialer reads it without
}

type tcpResult struct {
	body []byte
	errs string
	err  error
}

// callSlot is what a call waits on. A call that got its response returns
// the slot for the next call; one that timed out or lost its connection
// drops it, because a result may still be sent to it.
type callSlot struct {
	ch    chan tcpResult // capacity 1: a registered slot is sent to at most once
	timer *time.Timer    // made by the slot's first call with a timeout
}

var slotPool = sync.Pool{
	New: func() any { return &callSlot{ch: make(chan tcpResult, 1)} },
}

// Close shuts every cached connection. A dial still in flight closes its
// connection when it completes, and every later call fails with ErrClosed.
func (d *TCPDialer) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	for _, c := range d.conns {
		c.conn.Close()
	}
	d.conns = make(map[string]*tcpConn)
}

// get returns the live connection to addr, dialling if there is none. The
// dial runs outside d.mu, one at a time per address: calls to other
// addresses do not wait for it, and a failed one leaves nothing behind.
func (d *TCPDialer) get(addr string) (*tcpConn, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrClosed
	}
	if c, ok := d.conns[addr]; ok && !c.dead.Load() {
		d.mu.Unlock()
		return c, nil
	}
	if dl, ok := d.dials[addr]; ok {
		d.mu.Unlock()
		<-dl.done
		return dl.c, dl.err
	}
	dl := &dialing{done: make(chan struct{})}
	d.dials[addr] = dl
	d.mu.Unlock()

	nc, err := d.dial(addr)
	d.mu.Lock()
	delete(d.dials, addr)
	switch {
	case err != nil:
		dl.err = fmt.Errorf("%w: %v", ErrUnreachable, err)
	case d.closed:
		nc.Close()
		dl.err = ErrClosed
	default:
		dl.c = &tcpConn{conn: nc, pending: make(map[uint64]*callSlot)}
		go dl.c.readLoop()
		d.conns[addr] = dl.c
	}
	d.mu.Unlock()
	close(dl.done)
	return dl.c, dl.err
}

func (c *tcpConn) readLoop() {
	fr := frameReader{br: bufio.NewReader(c.conn)}
	for {
		payload, err := fr.next()
		if err != nil {
			c.fail(err)
			return
		}
		id, kind, head, body, err := decodeFrame(payload)
		if err != nil || kind != frameResponse {
			c.fail(errors.New("rpc: malformed response frame"))
			return
		}
		c.mu.Lock()
		slot, ok := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ok {
			slot.ch <- tcpResult{body: body, errs: string(head)}
		}
	}
}

func (c *tcpConn) fail(err error) {
	c.mu.Lock()
	c.dead.Store(true)
	pending := c.pending
	c.pending = make(map[uint64]*callSlot)
	c.mu.Unlock()
	for _, slot := range pending {
		slot.ch <- tcpResult{err: fmt.Errorf("%w: %v", ErrClosed, err)}
	}
	c.conn.Close()
}

// CallTimeout implements Dialer.
func (d *TCPDialer) CallTimeout(addr, method string, body []byte, timeout time.Duration) ([]byte, error) {
	c, err := d.get(addr)
	if err != nil {
		return nil, err
	}
	slot := slotPool.Get().(*callSlot)
	c.mu.Lock()
	if c.dead.Load() {
		c.mu.Unlock()
		slotPool.Put(slot) // never registered: nothing can be sent to it
		return nil, ErrClosed
	}
	id := c.nextID
	c.nextID++
	c.pending[id] = slot

	var werr error
	wire.Borrow(func(w *wire.Writer) { encodeFrame(w, id, frameRequest, method, body) },
		func(frame []byte) { _, werr = c.conn.Write(frame) })
	c.mu.Unlock()
	if werr != nil {
		c.fail(werr)
		return nil, fmt.Errorf("%w: %v", ErrClosed, werr)
	}

	var expired <-chan time.Time
	if timeout > 0 {
		if slot.timer == nil {
			slot.timer = time.NewTimer(timeout)
		} else {
			slot.timer.Reset(timeout)
		}
		expired = slot.timer.C
	}
	select {
	case res := <-slot.ch:
		if expired != nil {
			slot.timer.Stop() // go 1.23 timers: nothing stale is left in C
		}
		if res.err != nil {
			return nil, res.err
		}
		slotPool.Put(slot)
		if res.errs != "" {
			return nil, &RemoteError{Method: method, Msg: res.errs}
		}
		return res.body, nil
	case <-expired:
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, ErrTimeout
	}
}

var _ Dialer = (*TCPDialer)(nil)
var _ Dialer = (*simDialer)(nil)
