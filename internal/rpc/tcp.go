package rpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
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

const (
	frameRequest  = 0
	frameResponse = 1
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

func (s *TCPServer) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	from := conn.RemoteAddr().String()
	br := bufio.NewReader(conn)
	var wmu sync.Mutex
	for {
		payload, err := readFrame(br)
		if err != nil {
			return
		}
		r := wire.GetReader(payload)
		id := r.Uvarint()
		kind := r.Byte()
		method := r.String()
		body := r.Bytes() // copies: the handler goroutine outlives the reader
		rerr := r.Done()
		wire.PutReader(r)
		if rerr != nil || kind != frameRequest {
			return // protocol violation: drop the connection
		}
		// Handle concurrently: one slow request must not block the pipe.
		go func() {
			respBody, herr := s.h(from, method, body)
			errmsg := ""
			if herr != nil {
				errmsg = herr.Error()
			}
			w := wire.GetWriter()
			encodeFrame(w, id, frameResponse, errmsg, respBody)
			wmu.Lock()
			conn.Write(w.Bytes()) // a failed write surfaces as the read loop's error
			wmu.Unlock()
			wire.PutWriter(w)
		}()
	}
}

func readFrame(r io.Reader) ([]byte, error) {
	var lenbuf [4]byte
	if _, err := io.ReadFull(r, lenbuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenbuf[:])
	if n > maxFrame {
		return nil, fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
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

// TCPDialer is a Dialer over real TCP connections. Connections are cached
// per destination and multiplex concurrent calls by request id.
type TCPDialer struct {
	mu    sync.Mutex
	conns map[string]*tcpConn
}

// NewTCPDialer returns an empty connection cache.
func NewTCPDialer() *TCPDialer {
	return &TCPDialer{conns: make(map[string]*tcpConn)}
}

type tcpConn struct {
	conn    net.Conn
	mu      sync.Mutex // guards writes and the pending map
	pending map[uint64]chan tcpResult
	nextID  uint64
	dead    bool
}

type tcpResult struct {
	body []byte
	errs string
	err  error
}

// Close shuts every cached connection.
func (d *TCPDialer) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.conns {
		c.conn.Close()
	}
	d.conns = make(map[string]*tcpConn)
}

func (d *TCPDialer) get(addr string) (*tcpConn, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if c, ok := d.conns[addr]; ok && !c.dead {
		return c, nil
	}
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	c := &tcpConn{conn: nc, pending: make(map[uint64]chan tcpResult)}
	d.conns[addr] = c
	go c.readLoop()
	return c, nil
}

func (c *tcpConn) readLoop() {
	br := bufio.NewReader(c.conn)
	for {
		payload, err := readFrame(br)
		if err != nil {
			c.fail(err)
			return
		}
		r := wire.GetReader(payload)
		id := r.Uvarint()
		kind := r.Byte()
		errs := r.String()
		body := r.Bytes() // copies: the result outlives the reader
		rerr := r.Done()
		wire.PutReader(r)
		if rerr != nil || kind != frameResponse {
			c.fail(fmt.Errorf("rpc: malformed response frame"))
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ok {
			ch <- tcpResult{body: body, errs: errs}
		}
	}
}

func (c *tcpConn) fail(err error) {
	c.mu.Lock()
	c.dead = true
	pending := c.pending
	c.pending = make(map[uint64]chan tcpResult)
	c.mu.Unlock()
	for _, ch := range pending {
		ch <- tcpResult{err: fmt.Errorf("%w: %v", ErrClosed, err)}
	}
	c.conn.Close()
}

// Call implements Dialer.
func (d *TCPDialer) Call(addr, method string, body []byte) ([]byte, error) {
	return d.CallTimeout(addr, method, body, 0)
}

// CallTimeout implements Dialer.
func (d *TCPDialer) CallTimeout(addr, method string, body []byte, timeout time.Duration) ([]byte, error) {
	c, err := d.get(addr)
	if err != nil {
		return nil, err
	}
	ch := make(chan tcpResult, 1)
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	id := c.nextID
	c.nextID++
	c.pending[id] = ch

	w := wire.GetWriter()
	encodeFrame(w, id, frameRequest, method, body)
	_, werr := c.conn.Write(w.Bytes())
	wire.PutWriter(w)
	c.mu.Unlock()
	if werr != nil {
		c.fail(werr)
		return nil, fmt.Errorf("%w: %v", ErrClosed, werr)
	}

	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case res := <-ch:
		if res.err != nil {
			return nil, res.err
		}
		if res.errs != "" {
			return nil, &RemoteError{Method: method, Msg: res.errs}
		}
		return res.body, nil
	case <-timer:
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, ErrTimeout
	}
}

var _ Dialer = (*TCPDialer)(nil)
var _ Dialer = (*simDialer)(nil)
