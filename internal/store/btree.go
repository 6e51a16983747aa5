package store

// An in-memory B-tree mapping string keys to byte-slice values. This is
// the ordered index underneath every replica's content store. It is
// written for determinism: iteration is always in key order and the tree
// shape depends only on the sequence of operations, never on randomness.

const btreeDegree = 16 // max children; max keys = 2*degree-1 style bounds below

const (
	maxItems = 2*btreeDegree - 1
	minItems = btreeDegree - 1
)

type item struct {
	key   string
	value []byte
}

type node struct {
	items    []item
	children []*node // nil for leaves
}

func (n *node) leaf() bool { return len(n.children) == 0 }

// find returns the index of key in n.items, or the child index to descend
// into, and whether the key was found at that index.
func (n *node) find(key string) (int, bool) {
	lo, hi := 0, len(n.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.items[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.items) && n.items[lo].key == key {
		return lo, true
	}
	return lo, false
}

// btree is the tree root plus bookkeeping.
type btree struct {
	root  *node
	size  int
	bytes int // total key+value bytes, for the cost model
}

func newBtree() *btree { return &btree{root: &node{}} }

// get returns the value for key.
func (t *btree) get(key string) ([]byte, bool) {
	n := t.root
	for {
		i, ok := n.find(key)
		if ok {
			return n.items[i].value, true
		}
		if n.leaf() {
			return nil, false
		}
		n = n.children[i]
	}
}

// put inserts or replaces key. It reports whether the key was new.
func (t *btree) put(key string, value []byte) bool {
	if len(t.root.items) == maxItems {
		old := t.root
		t.root = &node{children: []*node{old}}
		t.root.splitChild(0)
	}
	added, delta := t.root.insert(key, value)
	if added {
		t.size++
		t.bytes += len(key)
	}
	t.bytes += delta
	return added
}

// splitChild splits the full child at index i of n.
func (n *node) splitChild(i int) {
	child := n.children[i]
	mid := maxItems / 2
	up := child.items[mid]
	right := &node{
		items: append([]item(nil), child.items[mid+1:]...),
	}
	if !child.leaf() {
		right.children = append([]*node(nil), child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	child.items = child.items[:mid]
	n.items = append(n.items, item{})
	copy(n.items[i+1:], n.items[i:])
	n.items[i] = up
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

// insert adds key below n (which must not be full). It returns whether a
// new key was added and the change in stored value bytes.
func (n *node) insert(key string, value []byte) (bool, int) {
	i, ok := n.find(key)
	if ok {
		delta := len(value) - len(n.items[i].value)
		n.items[i].value = value
		return false, delta
	}
	if n.leaf() {
		n.items = append(n.items, item{})
		copy(n.items[i+1:], n.items[i:])
		n.items[i] = item{key: key, value: value}
		return true, len(value)
	}
	if len(n.children[i].items) == maxItems {
		n.splitChild(i)
		switch {
		case key > n.items[i].key:
			i++
		case key == n.items[i].key:
			delta := len(value) - len(n.items[i].value)
			n.items[i].value = value
			return false, delta
		}
	}
	return n.children[i].insert(key, value)
}

// delete removes key. It reports whether the key existed and the number of
// value bytes removed.
func (t *btree) delete(key string) (bool, int) {
	removed, freed := t.root.remove(key)
	if removed {
		t.size--
		t.bytes -= len(key) + freed
	}
	if len(t.root.items) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	return removed, freed
}

func (n *node) remove(key string) (bool, int) {
	i, ok := n.find(key)
	if n.leaf() {
		if !ok {
			return false, 0
		}
		freed := len(n.items[i].value)
		n.items = append(n.items[:i], n.items[i+1:]...)
		return true, freed
	}
	if ok {
		// Replace with predecessor from the left subtree, then delete the
		// predecessor from that subtree.
		freed := len(n.items[i].value)
		if len(n.children[i].items) > minItems {
			pred := n.children[i].max()
			n.items[i] = pred
			removed, _ := n.children[i].remove(pred.key)
			_ = removed
			return true, freed
		}
		if len(n.children[i+1].items) > minItems {
			succ := n.children[i+1].min()
			n.items[i] = succ
			n.children[i+1].remove(succ.key)
			return true, freed
		}
		n.mergeChildren(i)
		return n.children[i].remove(key)
	}
	// Descend, topping up the child if it is at minimum occupancy.
	if len(n.children[i].items) == minItems {
		i = n.fill(i)
	}
	return n.children[i].remove(key)
}

func (n *node) max() item {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.items[len(n.items)-1]
}

func (n *node) min() item {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.items[0]
}

// fill ensures child i has more than minItems, borrowing or merging.
// It returns the (possibly shifted) child index to descend into.
func (n *node) fill(i int) int {
	if i > 0 && len(n.children[i-1].items) > minItems {
		n.borrowLeft(i)
		return i
	}
	if i < len(n.children)-1 && len(n.children[i+1].items) > minItems {
		n.borrowRight(i)
		return i
	}
	if i == len(n.children)-1 {
		n.mergeChildren(i - 1)
		return i - 1
	}
	n.mergeChildren(i)
	return i
}

func (n *node) borrowLeft(i int) {
	child, left := n.children[i], n.children[i-1]
	child.items = append(child.items, item{})
	copy(child.items[1:], child.items)
	child.items[0] = n.items[i-1]
	n.items[i-1] = left.items[len(left.items)-1]
	left.items = left.items[:len(left.items)-1]
	if !child.leaf() {
		child.children = append(child.children, nil)
		copy(child.children[1:], child.children)
		child.children[0] = left.children[len(left.children)-1]
		left.children = left.children[:len(left.children)-1]
	}
}

func (n *node) borrowRight(i int) {
	child, right := n.children[i], n.children[i+1]
	child.items = append(child.items, n.items[i])
	n.items[i] = right.items[0]
	copy(right.items, right.items[1:])
	right.items = right.items[:len(right.items)-1]
	if !child.leaf() {
		child.children = append(child.children, right.children[0])
		copy(right.children, right.children[1:])
		right.children = right.children[:len(right.children)-1]
	}
}

// mergeChildren merges child i, separator i, and child i+1.
func (n *node) mergeChildren(i int) {
	left, right := n.children[i], n.children[i+1]
	left.items = append(left.items, n.items[i])
	left.items = append(left.items, right.items...)
	left.children = append(left.children, right.children...)
	n.items = append(n.items[:i], n.items[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

// ascend calls fn for every key in [from, to) in order; empty strings mean
// unbounded. fn returns false to stop. ascend reports whether fn never
// did.
func (t *btree) ascend(from, to string, fn func(key string, value []byte) bool) bool {
	return t.root.ascend(from, to, fn)
}

// Each node locates its bounds once: items[lo:hi] are in range, and only
// the children at the two edges can hold keys outside it, so only they
// inherit a bound. Everything between is emitted without a compare.
func (n *node) ascend(from, to string, fn func(string, []byte) bool) bool {
	lo, hi := 0, len(n.items)
	if from != "" {
		lo, _ = n.find(from)
	}
	if to != "" {
		hi, _ = n.find(to)
	}
	for i := lo; i <= hi; i++ {
		if !n.leaf() {
			cfrom, cto := "", ""
			if i == lo {
				cfrom = from
			}
			if i == hi {
				cto = to
			}
			if !n.children[i].ascend(cfrom, cto, fn) {
				return false
			}
		}
		if i < hi && !fn(n.items[i].key, n.items[i].value) {
			return false
		}
	}
	return true
}

// clone returns a deep copy of the tree (values are shared; they are
// treated as immutable once stored).
func (t *btree) clone() *btree {
	return &btree{root: t.root.clone(), size: t.size, bytes: t.bytes}
}

func (n *node) clone() *node {
	c := &node{items: append([]item(nil), n.items...)}
	if !n.leaf() {
		c.children = make([]*node, len(n.children))
		for i, ch := range n.children {
			c.children[i] = ch.clone()
		}
	}
	return c
}

// check verifies B-tree invariants; used by tests.
func (t *btree) check() error {
	_, _, err := t.root.check(true)
	return err
}

func (n *node) check(isRoot bool) (min, max string, err error) {
	if !isRoot && len(n.items) < minItems {
		return "", "", errInvariant("underfull node")
	}
	if len(n.items) > maxItems {
		return "", "", errInvariant("overfull node")
	}
	for i := 1; i < len(n.items); i++ {
		if n.items[i-1].key >= n.items[i].key {
			return "", "", errInvariant("unsorted items")
		}
	}
	if n.leaf() {
		if len(n.items) == 0 {
			return "", "", nil
		}
		return n.items[0].key, n.items[len(n.items)-1].key, nil
	}
	if len(n.children) != len(n.items)+1 {
		return "", "", errInvariant("children/items mismatch")
	}
	for i, ch := range n.children {
		cmin, cmax, err := ch.check(false)
		if err != nil {
			return "", "", err
		}
		if i > 0 && cmin <= n.items[i-1].key {
			return "", "", errInvariant("child range overlaps left separator")
		}
		if i < len(n.items) && cmax >= n.items[i].key {
			return "", "", errInvariant("child range overlaps right separator")
		}
		if i == 0 {
			min = cmin
		}
		if i == len(n.children)-1 {
			max = cmax
		}
	}
	return min, max, nil
}

type errInvariant string

func (e errInvariant) Error() string { return "btree: " + string(e) }
