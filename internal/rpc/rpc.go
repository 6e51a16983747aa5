// Package rpc provides the request/response messaging layer the
// replication protocol runs on. Protocol nodes (masters, slaves, clients,
// the auditor) are written against the small Dialer/Handler interfaces
// here and therefore run unchanged on two transports:
//
//   - SimNet: virtual-time, deterministic, per-link latency distributions
//     (used by every experiment), and
//   - TCP: real sockets with length-prefixed frames and request
//     multiplexing (used by the tcploop example and cmd/replnode).
//
// Application-level errors returned by a remote handler travel back to
// the caller as *RemoteError; transport failures are ordinary local
// errors (ErrUnreachable, timeouts).
//
// # Who owns the bytes
//
// A Handler owns the body it is given and a caller owns the response it
// gets back, on both transports: either may keep the slice, or slices of
// it, for as long as it likes. Over TCP both are views (capacity clipped)
// of a buffer allocated for that one frame, which the transport never
// reads or writes again — no copy is made and nothing is pooled, so a
// round trip allocates its two frame buffers and nothing else. A frame
// longer than 64 KiB gets its buffer as its bytes arrive, not when its
// length is announced. In the other direction, a caller does not write to
// a body it has passed in, nor a handler to a response it has returned:
// TCP only reads them, once, but the simulator hands the very slice to
// the other side.
//
// # TCP server: workers per connection
//
// Each accepted connection has one reader, which hands every request to
// a parked worker of that connection and starts another only when all
// are busy: a slow handler never holds up the requests behind it, and a
// steady caller is served by the same goroutine, its stack already grown,
// every time. A worker parks again before its response leaves, so a
// caller's next request finds it. At most maxIdleWorkers stay parked per
// connection; a burst's extra workers exit as they finish, and all exit
// when the connection closes. Nothing caps the workers in flight.
//
// # TCP dialer: slots, timeouts, dials
//
// Connections are cached per address and calls multiplexed by id. A call
// waits on a slot (result channel and timer) that the next call reuses —
// unless the call timed out or its connection failed: then a result may
// still be on its way to the slot, so the slot is dropped, and a late
// response can never reach a later call. A connection that fails returns
// ErrClosed to each call waiting on it, once, and the next call dials
// again. Dials run outside the dialer's lock, one at a time per address:
// calls to an address being dialled share that dial's outcome, calls to
// any other address do not wait for it.
package rpc

import (
	"errors"
	"fmt"
	"time"
)

// Handler processes one request addressed to a node. from identifies the
// caller's address (informational; authentication is cryptographic, in
// the payloads). It returns the response body or an application error.
type Handler func(from, method string, body []byte) ([]byte, error)

// Dialer issues requests to remote nodes by address.
type Dialer interface {
	// CallTimeout sends a request and waits for the response, for at most
	// timeout; 0 waits for as long as the transport does. Every call site
	// states its bound.
	CallTimeout(addr, method string, body []byte, timeout time.Duration) ([]byte, error)
}

// RemoteError is an application error returned by a remote handler.
type RemoteError struct {
	Method string
	Msg    string
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote %s: %s", e.Method, e.Msg)
}

// Transport-level errors.
var (
	ErrUnreachable = errors.New("rpc: destination unreachable")
	ErrTimeout     = errors.New("rpc: call timed out")
	ErrClosed      = errors.New("rpc: endpoint closed")
)

// IsRemote reports whether err is an application error from the remote
// handler rather than a transport failure.
func IsRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}
