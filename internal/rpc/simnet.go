package rpc

import (
	"time"

	"repro/internal/sim"
)

// SimNet is the virtual-time transport. Every node registers a handler
// under a string address; calls experience sampled one-way latencies in
// each direction, and handler execution runs as a simulation task so it
// can block on CPU resources and sleeps.
type SimNet struct {
	S              *sim.Sim
	DefaultLatency sim.Latency

	nodes    map[string]*simNode
	links    map[linkKey]sim.Latency
	drops    map[linkKey]float64 // per-link message loss probability
	isolated map[string]bool     // partitioned addresses: all their traffic is lost

	// DefaultDrop is the loss probability applied to links without an
	// override. A lost request or reply surfaces to the caller as a
	// timeout (or as ErrUnreachable when no timeout is set).
	DefaultDrop float64

	// Stats
	calls   uint64
	bytes   uint64
	dropped uint64
}

type linkKey struct{ from, to string }

type simNode struct {
	handler Handler
	down    bool
}

// NewSimNet creates a transport on s with the given default one-way link
// latency (used for any pair without a specific link override).
func NewSimNet(s *sim.Sim, def sim.Latency) *SimNet {
	if def == nil {
		def = sim.Const(0)
	}
	return &SimNet{
		S:              s,
		DefaultLatency: def,
		nodes:          make(map[string]*simNode),
		links:          make(map[linkKey]sim.Latency),
		drops:          make(map[linkKey]float64),
		isolated:       make(map[string]bool),
	}
}

// Register installs the handler for addr, replacing any previous one.
func (n *SimNet) Register(addr string, h Handler) {
	n.nodes[addr] = &simNode{handler: h}
}

// Unregister removes addr from the network (subsequent calls fail).
func (n *SimNet) Unregister(addr string) { delete(n.nodes, addr) }

// SetDown marks a node crashed (true) or recovered (false). Calls to a
// down node fail with ErrUnreachable after the one-way latency.
func (n *SimNet) SetDown(addr string, down bool) {
	if nd, ok := n.nodes[addr]; ok {
		nd.down = down
	}
}

// SetLink overrides the one-way latency from one address to another.
func (n *SimNet) SetLink(from, to string, l sim.Latency) {
	n.links[linkKey{from, to}] = l
}

// SetLinkBoth overrides both directions between two addresses.
func (n *SimNet) SetLinkBoth(a, b string, l sim.Latency) {
	n.SetLink(a, b, l)
	n.SetLink(b, a, l)
}

// SetDrop overrides the loss probability on one directed link.
func (n *SimNet) SetDrop(from, to string, p float64) {
	n.drops[linkKey{from, to}] = p
}

// Isolate cuts addr off the network (true) or reconnects it (false):
// every message to or from an isolated address is lost in flight. Unlike
// SetDown this is a partition, not a crash — the node keeps running and,
// from its own point of view, it is everyone else who went silent.
func (n *SimNet) Isolate(addr string, isolated bool) {
	if isolated {
		n.isolated[addr] = true
	} else {
		delete(n.isolated, addr)
	}
}

func (n *SimNet) lost(from, to string) bool {
	if n.isolated[from] || n.isolated[to] {
		n.dropped++
		return true
	}
	p, ok := n.drops[linkKey{from, to}]
	if !ok {
		p = n.DefaultDrop
	}
	if p <= 0 {
		return false
	}
	if n.S.Rand().Float64() < p {
		n.dropped++
		return true
	}
	return false
}

// Calls returns the number of calls issued so far.
func (n *SimNet) Calls() uint64 { return n.calls }

// Bytes returns the total request+response body bytes carried.
func (n *SimNet) Bytes() uint64 { return n.bytes }

// Dropped returns the number of messages lost to the drop model.
func (n *SimNet) Dropped() uint64 { return n.dropped }

func (n *SimNet) latency(from, to string) time.Duration {
	if l, ok := n.links[linkKey{from, to}]; ok {
		return l.Sample(n.S.Rand())
	}
	return n.DefaultLatency.Sample(n.S.Rand())
}

// Dialer returns a Dialer whose calls originate from the given address
// (the source address selects per-link latencies and is reported to
// handlers).
func (n *SimNet) Dialer(from string) Dialer {
	return &simDialer{net: n, from: from}
}

type simDialer struct {
	net  *SimNet
	from string
}

type callResult struct {
	body []byte
	err  error
}

// CallTimeout implements Dialer.
func (d *simDialer) CallTimeout(addr, method string, body []byte, timeout time.Duration) ([]byte, error) {
	n := d.net
	n.calls++
	n.bytes += uint64(len(body))
	p := n.S.NewPromise()
	out := n.latency(d.from, addr)

	// A lost request: nothing ever arrives; the caller's timeout (if
	// any) fires. Sampled before scheduling so the decision is part of
	// the deterministic event order.
	reqLost := n.lost(d.from, addr)

	// Deliver the request after the outbound latency; run the handler as
	// a task (it may block); deliver the reply after the return latency.
	n.S.GoAfter(out, func() {
		if reqLost {
			if timeout <= 0 {
				// Without a timeout a lost message would hang the caller
				// forever; surface it as unreachable instead.
				if !p.Resolved() {
					p.Resolve(callResult{err: ErrUnreachable})
				}
			}
			return
		}
		node, ok := n.nodes[addr]
		if !ok || node.down {
			n.S.Call(0, func() {
				if !p.Resolved() {
					p.Resolve(callResult{err: ErrUnreachable})
				}
			})
			return
		}
		respBody, err := node.handler(d.from, method, body)
		if err != nil {
			err = &RemoteError{Method: method, Msg: err.Error()}
		}
		if n.lost(addr, d.from) {
			if timeout <= 0 && !p.Resolved() {
				p.Resolve(callResult{err: ErrUnreachable})
			}
			return // reply lost in flight
		}
		back := n.latency(addr, d.from)
		n.bytes += uint64(len(respBody))
		n.S.Call(back, func() {
			if !p.Resolved() {
				p.Resolve(callResult{body: respBody, err: err})
			}
		})
	})

	var v interface{}
	var err error
	if timeout > 0 {
		v, err = p.Future().AwaitTimeout(timeout)
		if err == sim.ErrTimeout {
			return nil, ErrTimeout
		}
	} else {
		v, err = p.Future().Await()
	}
	if err != nil {
		return nil, err // sim stopped
	}
	res := v.(callResult)
	return res.body, res.err
}
