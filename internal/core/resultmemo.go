package core

import (
	"repro/internal/query"
	"repro/internal/store"
)

// Bounds of a resultMemo, and what it admits: a result is kept when its
// scan touched at least memoMinScanned bytes (below that the fixed
// per-query work dominates) and memoScanRatio times the bytes kept. An
// aggregate or a selective grep qualifies; a Get, a ten-row Range or a
// listing returns about what it touched and never does.
const (
	memoMaxEntries = 64
	memoMaxBytes   = 64 << 10 // query and payload bytes held, all entries together
	memoMinScanned = 4 << 10
	memoScanRatio  = 16
)

// resultMemo remembers the honest answers to expensive queries on one
// replica at one content version (doc.go, "Scan once per version"). It has
// no lock: the owner calls execute inside the critical section that reads
// the replica, which is what ties an answer to its version.
type resultMemo struct {
	replica *store.Store      // entries were computed on this replica...
	version uint64            // ...at this version; asked about another, the memo starts over
	results map[string][]byte // encoded query → honest payload; allocated on first insert
	bytes   int               // key and payload bytes held
}

// execute answers the encoded query on replica: from the memo (hit, and
// res.Scanned is 0) when this replica at this version was asked before,
// otherwise by decoding and running it. A hit's payload is shared with
// every other hit: callers must not write to it.
func (c *resultMemo) execute(replica *store.Store, queryBytes []byte) (res query.Result, hit bool, err error) {
	if c.replica != replica || c.version != replica.Version() {
		c.replica, c.version = replica, replica.Version()
		c.reset()
	}
	if payload, ok := c.results[string(queryBytes)]; ok {
		return query.Result{Payload: payload}, true, nil
	}
	q, err := query.Decode(queryBytes)
	if err == nil {
		res, err = q.Execute(replica)
	}
	size := len(queryBytes) + len(res.Payload)
	if err != nil || res.Scanned < memoMinScanned || res.Scanned < memoScanRatio*size || size > memoMaxBytes {
		return res, false, err
	}
	// Full means start over: nothing to maintain on the hit path, and
	// deterministic, as the simulator needs.
	if len(c.results) >= memoMaxEntries || c.bytes+size > memoMaxBytes {
		c.reset()
	}
	if c.results == nil {
		c.results = make(map[string][]byte)
	}
	c.results[string(queryBytes)] = res.Payload
	c.bytes += size
	return res, false, nil
}

func (c *resultMemo) reset() {
	clear(c.results)
	c.bytes = 0
}
