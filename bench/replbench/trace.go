package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// spanName is the span's name in the trace file and in metric names.
func spanName(s *span) string {
	switch s.kind {
	case spanRoot:
		return rootNames[s.method]
	case spanRPC:
		return "rpc." + methodNames[s.method]
	}
	return "handle." + role(s.role).kind() + "." + methodNames[s.method]
}

// resolveParents gives every handler span its parent: the caller span
// with the same (destination, method, body hash) whose interval encloses
// it. Identical requests repeat (heartbeats carry the same bytes while
// idle), so candidates are walked in start order and each caller is used
// once. Returns the number of handler spans left without a parent.
func resolveParents(spans []span) (orphans int) {
	type linkKey struct {
		dest, method uint8
		key          uint64
	}
	callers := make(map[linkKey][]int)
	for i := range spans {
		if s := &spans[i]; s.kind == spanRPC {
			k := linkKey{s.dest, s.method, s.key}
			callers[k] = append(callers[k], i)
		}
	}
	for _, idx := range callers {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].start < spans[idx[b]].start })
	}
	used := make([]bool, len(spans))
	handlers := make([]int, 0, len(spans)/2)
	for i := range spans {
		if spans[i].kind == spanHandler {
			handlers = append(handlers, i)
		}
	}
	sort.Slice(handlers, func(a, b int) bool { return spans[handlers[a]].start < spans[handlers[b]].start })
	for _, hi := range handlers {
		h := &spans[hi]
		found := false
		for _, ci := range callers[linkKey{h.role, h.method, h.key}] {
			c := &spans[ci]
			if c.start > h.start {
				break
			}
			if !used[ci] && c.end >= h.end {
				used[ci] = true
				h.parent = int32(ci + 1)
				h.op = c.op
				found = true
				break
			}
		}
		if !found {
			orphans++
		}
	}
	return orphans
}

// writeTrace writes the spans as JSON lines: one object per span, ids
// are 1-based line numbers, parent 0 means none.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for i := range spans {
		s := &spans[i]
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"role":%q,"dest":%q,"op":%d,"start_ns":%d,"end_ns":%d,"bytes":%d,"failed":%t}`+"\n",
			i+1, s.parent, spanName(s), roleNames[s.role], roleNames[s.dest], s.op, s.start, s.end, s.bytes, s.failed)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceStats is the per-name digest of a resolved trace.
type traceStats struct {
	durUS  map[string][]float64 // span durations by name, µs
	selfUS map[string]float64   // total self time by name, µs
	count  map[string]int
	// transportUS is Σ(caller span − its handler span) over matched calls.
	transportUS  float64
	matchedCalls int
}

// childIndex maps a span's 1-based id to the indexes of its children.
func childIndex(spans []span) map[int32][]int {
	children := make(map[int32][]int)
	for i := range spans {
		if p := spans[i].parent; p != 0 {
			children[p] = append(children[p], i)
		}
	}
	return children
}

// analyze computes durations and self times. A span's self time is its
// duration minus the part of its interval its children cover.
func analyze(spans []span) *traceStats {
	ts := &traceStats{durUS: map[string][]float64{}, selfUS: map[string]float64{}, count: map[string]int{}}
	children := childIndex(spans)
	for i := range spans {
		s := &spans[i]
		name := spanName(s)
		dur := float64(s.end-s.start) / 1e3
		ts.durUS[name] = append(ts.durUS[name], dur)
		ts.count[name]++

		kids := children[int32(i+1)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		var covered, edge int64 = 0, s.start
		for _, k := range kids {
			from, to := spans[k].start, spans[k].end
			if from < edge {
				from = edge
			}
			if to > s.end {
				to = s.end
			}
			if to > from {
				covered += to - from
				edge = to
			}
		}
		ts.selfUS[name] += float64(s.end-s.start-covered) / 1e3
		if s.kind == spanRPC && len(kids) > 0 {
			ts.transportUS += float64(s.end-s.start-covered) / 1e3
			ts.matchedCalls++
		}
	}
	return ts
}

// treeSelfRatio reports, for client.read trees, (Σ self time of the root
// and all its descendants) ÷ (Σ root duration). A read's root, its rpc
// calls and (once resolved) their handler spans share the operation id.
// Children enclosed by and not overlapping within their parent make this
// exactly 1; anything else means spans were lost or mislinked.
func treeSelfRatio(spans []span) float64 {
	children := childIndex(spans)
	var selfSum, rootSum float64
	for i := range spans {
		s := &spans[i]
		if s.op == 0 || s.op >= writeOpBase {
			continue
		}
		var covered int64
		for _, k := range children[int32(i+1)] {
			covered += spans[k].end - spans[k].start
		}
		selfSum += float64(s.end - s.start - covered)
		if s.kind == spanRoot {
			rootSum += float64(s.end - s.start)
		}
	}
	return ratio(selfSum, rootSum)
}

// checkTraceFile re-reads a written trace and verifies its structure:
// every non-root span's parent exists and encloses it.
func checkTraceFile(path string) (spans int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	type line struct {
		ID, Parent int
		StartNS    int64 `json:"start_ns"`
		EndNS      int64 `json:"end_ns"`
		Name       string
		Role, Dest string
		Op         uint64
		Bytes      int
		Failed     bool
	}
	var all []line
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return 0, fmt.Errorf("line %d: %w", len(all)+1, err)
		}
		if l.ID != len(all)+1 {
			return 0, fmt.Errorf("line %d carries id %d", len(all)+1, l.ID)
		}
		all = append(all, l)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	for _, l := range all {
		if l.EndNS < l.StartNS {
			return 0, fmt.Errorf("span %d (%s) ends before it starts", l.ID, l.Name)
		}
		if l.Parent == 0 {
			continue
		}
		if l.Parent < 1 || l.Parent > len(all) {
			return 0, fmt.Errorf("span %d (%s) names missing parent %d", l.ID, l.Name, l.Parent)
		}
		p := all[l.Parent-1]
		if p.StartNS > l.StartNS || p.EndNS < l.EndNS {
			return 0, fmt.Errorf("span %d (%s) is not enclosed by its parent %d (%s)", l.ID, l.Name, p.ID, p.Name)
		}
	}
	return len(all), nil
}
