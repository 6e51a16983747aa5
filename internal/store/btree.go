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
	owner    *token  // the tree that may write this node in place
}

// token is a tree's right to write. A tree writes in place only a node
// that carries its token; any other may be shared with a clone, so it
// writes a copy (copy on write: a write copies the nodes on its path, each
// at most once per clone). Sized, so two tokens never share an address.
type token struct{ _ byte }

func (n *node) leaf() bool { return len(n.children) == 0 }

// mutable returns n if own may write it, else a copy of n that own may.
// The copy's slices are sized to what n holds, not to n's capacity, as
// most nodes are copied to be rewritten, not to grow.
func (n *node) mutable(own *token) *node {
	if n.owner == own {
		return n
	}
	c := &node{items: append([]item(nil), n.items...), owner: own}
	if !n.leaf() {
		c.children = append([]*node(nil), n.children...)
	}
	return c
}

// mutableChild makes child i writable by own, n being so already, and
// returns it.
func (n *node) mutableChild(i int, own *token) *node {
	c := n.children[i].mutable(own)
	n.children[i] = c
	return c
}

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
	bytes int    // total key+value bytes, for the cost model
	owner *token // this tree's write token
}

// newBtree returns an empty tree, with a nil token: it shares no node.
func newBtree() btree { return btree{root: &node{}} }

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

// put stores value under key and returns the value it replaced, if the
// key was there: one descent, so a write can take the old value out of
// the state digest without a lookup of its own.
func (t *btree) put(key string, value []byte) (old []byte, replaced bool) {
	it, added := t.slot(key)
	old, it.value = it.value, value
	t.bytes += len(value) - len(old)
	return old, !added
}

// appendTo extends the value under key by data, in a fresh slice (a
// stored value is never written in place: a clone may share it), and
// returns the value it replaced, if any, and the value it stored. One
// descent.
func (t *btree) appendTo(key string, data []byte) (old, merged []byte, replaced bool) {
	it, added := t.slot(key)
	old = it.value
	merged = make([]byte, 0, len(old)+len(data))
	merged = append(append(merged, old...), data...)
	it.value = merged
	t.bytes += len(data)
	return old, merged, !added
}

// slot returns the item for key, writable by this tree, and whether it was
// added with a nil value (counted in size and key bytes). The pointer is
// good until the tree's next write.
func (t *btree) slot(key string) (it *item, added bool) {
	t.root = t.root.mutable(t.owner)
	if len(t.root.items) == maxItems {
		t.root = &node{children: []*node{t.root}, owner: t.owner}
		t.root.splitChild(0, t.owner)
	}
	it, added = t.root.slot(key, t.owner)
	if added {
		t.size++
		t.bytes += len(key)
	}
	return it, added
}

// splitChild splits the full child at index i of n, which own may write.
func (n *node) splitChild(i int, own *token) {
	child := n.mutableChild(i, own)
	mid := maxItems / 2
	up := child.items[mid]
	right := &node{
		items: append([]item(nil), child.items[mid+1:]...),
		owner: own,
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

// slot finds key below n (which must not be full, and own may write),
// adding it with a nil value if absent, and returns its item and whether
// it was added.
func (n *node) slot(key string, own *token) (*item, bool) {
	i, ok := n.find(key)
	if ok {
		return &n.items[i], false
	}
	if n.leaf() {
		n.items = append(n.items, item{})
		copy(n.items[i+1:], n.items[i:])
		n.items[i] = item{key: key}
		return &n.items[i], true
	}
	if len(n.children[i].items) == maxItems {
		n.splitChild(i, own)
		switch {
		case key > n.items[i].key:
			i++
		case key == n.items[i].key:
			return &n.items[i], false
		}
	}
	return n.mutableChild(i, own).slot(key, own)
}

// delete removes key and returns the value it held, if it was there.
func (t *btree) delete(key string) (old []byte, removed bool) {
	t.root = t.root.mutable(t.owner)
	old, removed = t.root.remove(key, t.owner)
	if removed {
		t.size--
		t.bytes -= len(key) + len(old)
	}
	if len(t.root.items) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	return old, removed
}

func (n *node) remove(key string, own *token) ([]byte, bool) {
	i, ok := n.find(key)
	if n.leaf() {
		if !ok {
			return nil, false
		}
		old := n.items[i].value
		n.items = append(n.items[:i], n.items[i+1:]...)
		return old, true
	}
	if ok {
		// Replace with predecessor from the left subtree, then delete the
		// predecessor from that subtree.
		old := n.items[i].value
		if len(n.children[i].items) > minItems {
			pred := n.children[i].max()
			n.items[i] = pred
			n.mutableChild(i, own).remove(pred.key, own)
			return old, true
		}
		if len(n.children[i+1].items) > minItems {
			succ := n.children[i+1].min()
			n.items[i] = succ
			n.mutableChild(i+1, own).remove(succ.key, own)
			return old, true
		}
		n.mergeChildren(i, own)
		return n.children[i].remove(key, own)
	}
	// Descend, topping up the child if it is at minimum occupancy.
	if len(n.children[i].items) == minItems {
		i = n.fill(i, own)
	}
	return n.mutableChild(i, own).remove(key, own)
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
func (n *node) fill(i int, own *token) int {
	if i > 0 && len(n.children[i-1].items) > minItems {
		n.borrowLeft(i, own)
		return i
	}
	if i < len(n.children)-1 && len(n.children[i+1].items) > minItems {
		n.borrowRight(i, own)
		return i
	}
	if i == len(n.children)-1 {
		n.mergeChildren(i-1, own)
		return i - 1
	}
	n.mergeChildren(i, own)
	return i
}

func (n *node) borrowLeft(i int, own *token) {
	child, left := n.mutableChild(i, own), n.mutableChild(i-1, own)
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

func (n *node) borrowRight(i int, own *token) {
	child, right := n.mutableChild(i, own), n.mutableChild(i+1, own)
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

// mergeChildren merges child i, separator i, and child i+1 into child i.
// Child i+1 leaves the tree, so it is only read.
func (n *node) mergeChildren(i int, own *token) {
	left, right := n.mutableChild(i, own), n.children[i+1]
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

// clone returns a copy of the tree in O(1): the two share every node
// (and value: values are immutable once stored), and each gets a fresh
// token, so neither writes a shared node in place again.
func (t *btree) clone() btree {
	c := *t
	own := new([2]token)
	t.owner, c.owner = &own[0], &own[1]
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
