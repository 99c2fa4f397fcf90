package storage

import (
	"islands/internal/exec"
	"islands/internal/mem"
	"islands/internal/sim"
)

// B+tree cost constants.
const (
	// CostBTreeLevelCPU is the binary-search compute per node visited.
	CostBTreeLevelCPU = 30 * sim.Nanosecond
	// DefaultBTreeOrder is the maximum number of keys per node.
	DefaultBTreeOrder = 96
)

// BTree is an in-memory B+tree over int64 keys: the primary index of every
// table, standing in for Shore-MT's B-link trees. It records which keys
// exist; a key's page follows from the key itself (Table.Locate), so leaves
// carry no record identifiers. Each node carries a coherence-tracked line,
// so index traversals by instances that span sockets generate the
// cross-socket traffic the paper observes.
//
// Deletion is lazy (keys are removed from leaves without rebalancing),
// matching the common production choice; structure invariants still hold
// and are verified by CheckInvariants in tests.
//
// Leaves built by BulkLoadRange are dense: they hold a run of consecutive
// keys implicitly, and store them only once an Insert or Delete reaches
// them. A loaded table therefore costs its node lines, not its keys, while
// every traversal touches the same nodes it would in an explicit tree.
type BTree struct {
	order  int
	root   *bnode
	height int
	size   int
}

type bnode struct {
	line     mem.Line
	leaf     bool
	keys     []int64
	children []*bnode // inner nodes
	// A dense leaf (dense > 0) holds the keys [lo, lo+dense) and no keys
	// slice until materialize stores them.
	lo, dense int64
}

// has reports whether leaf n holds key.
func (n *bnode) has(key int64) bool {
	if n.dense > 0 {
		return key >= n.lo && key < n.lo+n.dense
	}
	i := lowerBound(n.keys, key)
	return i < len(n.keys) && n.keys[i] == key
}

// materialize stores a dense leaf's keys explicitly, so it can be written;
// the slice has room for the one key an insert adds before it splits.
func (n *bnode) materialize(order int) {
	if n.dense == 0 {
		return
	}
	n.keys = make([]int64, n.dense, order+1)
	for j := range n.keys {
		n.keys[j] = n.lo + int64(j)
	}
	n.lo, n.dense = 0, 0
}

// NewBTree returns an empty tree with the given order (max keys per node);
// order < 4 falls back to DefaultBTreeOrder.
func NewBTree(order int) *BTree {
	if order < 4 {
		order = DefaultBTreeOrder
	}
	return &BTree{order: order, root: &bnode{leaf: true}, height: 1}
}

// Size returns the number of keys.
func (t *BTree) Size() int { return t.size }

// Height returns the number of levels.
func (t *BTree) Height() int { return t.height }

// touch charges one node visit to ctx (nil ctx skips charging, for loads and
// tests).
func (t *BTree) touch(ctx *exec.Ctx, n *bnode, write bool) {
	if ctx == nil {
		return
	}
	ctx.Charge(CostBTreeLevelCPU)
	if write {
		ctx.WriteLine(&n.line)
	} else {
		ctx.ReadLine(&n.line)
	}
}

// Search reports whether key is in the tree.
func (t *BTree) Search(ctx *exec.Ctx, key int64) bool {
	n := t.root
	for !n.leaf {
		t.touch(ctx, n, false)
		n = n.children[childIndex(n.keys, key)]
	}
	t.touch(ctx, n, false)
	return n.has(key)
}

// lowerBound returns the first index whose key is >= key. Hand-rolled
// (rather than sort.Search) because index probes are the hottest storage
// operation and the closure-based search dominates their profile.
func lowerBound(keys []int64, key int64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns which child subtree of an inner node covers key:
// keys[i] is the smallest key of children[i+1] (first index with key > k).
func childIndex(keys []int64, key int64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert adds key. It reports whether the key was new.
func (t *BTree) Insert(ctx *exec.Ctx, key int64) bool {
	promoted, right, added := t.insert(ctx, t.root, key)
	if right != nil {
		newRoot := &bnode{
			keys:     []int64{promoted},
			children: []*bnode{t.root, right},
		}
		t.root = newRoot
		t.height++
	}
	if added {
		t.size++
	}
	return added
}

func (t *BTree) insert(ctx *exec.Ctx, n *bnode, key int64) (promoted int64, right *bnode, added bool) {
	if n.leaf {
		t.touch(ctx, n, true)
		n.materialize(t.order)
		i := lowerBound(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			return 0, nil, false
		}
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		if len(n.keys) <= t.order {
			return 0, nil, true
		}
		mid := len(n.keys) / 2
		r := &bnode{leaf: true}
		r.keys = append(r.keys, n.keys[mid:]...)
		n.keys = n.keys[:mid:mid]
		return r.keys[0], r, true
	}

	t.touch(ctx, n, false)
	ci := childIndex(n.keys, key)
	promoted, right, added = t.insert(ctx, n.children[ci], key)
	if right == nil {
		return 0, nil, added
	}
	t.touch(ctx, n, true)
	n.keys = append(n.keys, 0)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = promoted
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = right
	if len(n.keys) <= t.order {
		return 0, nil, added
	}
	mid := len(n.keys) / 2
	up := n.keys[mid]
	r := &bnode{}
	r.keys = append(r.keys, n.keys[mid+1:]...)
	r.children = append(r.children, n.children[mid+1:]...)
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return up, r, added
}

// Delete removes key, reporting whether it existed. Leaves are not
// rebalanced (lazy deletion).
func (t *BTree) Delete(ctx *exec.Ctx, key int64) bool {
	n := t.root
	for !n.leaf {
		t.touch(ctx, n, false)
		n = n.children[childIndex(n.keys, key)]
	}
	t.touch(ctx, n, true)
	n.materialize(t.order)
	i := lowerBound(n.keys, key)
	if i >= len(n.keys) || n.keys[i] != key {
		return false
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	t.size--
	return true
}

// BulkLoadRange builds the tree over the dense key range [0, n) with the
// given leaf fill fraction (0 < fill <= 1, e.g. 0.9), replacing its
// contents: the fast path for loading a freshly partitioned table. Its
// leaves are dense, and each level is allocated as one slab, so loading
// makes O(height) allocations whatever n is.
func (t *BTree) BulkLoadRange(n int64, fill float64) {
	if fill <= 0 || fill > 1 {
		fill = 0.9
	}
	per := int64(float64(t.order) * fill)
	if per < 1 {
		per = 1
	}
	t.size = int(n)
	t.height = 1
	if n == 0 {
		t.root = &bnode{leaf: true}
		return
	}
	level := make([]bnode, (n+per-1)/per)
	for i := range level {
		lo := int64(i) * per
		level[i] = bnode{leaf: true, lo: lo, dense: min(per, n-lo)}
	}
	// Each parent slices its children and separators out of one slab per
	// level. The slices are capped, so a later insert's append reallocates
	// instead of overwriting the neighbouring parent's entries.
	fan := int(per) + 1
	for len(level) > 1 {
		kids := make([]*bnode, len(level))
		for i := range level {
			kids[i] = &level[i]
		}
		parents := make([]bnode, (len(level)+fan-1)/fan)
		seps := make([]int64, len(level)-len(parents))
		for p := range parents {
			i := p * fan
			end := min(i+fan, len(level))
			keys := seps[i-p : end-p-1 : end-p-1]
			for j, c := range kids[i+1 : end] {
				keys[j] = leftmostKey(c)
			}
			parents[p] = bnode{children: kids[i:end:end], keys: keys}
		}
		level = parents
		t.height++
	}
	t.root = &level[0]
}

func leftmostKey(n *bnode) int64 {
	for !n.leaf {
		n = n.children[0]
	}
	if n.dense > 0 {
		return n.lo
	}
	return n.keys[0]
}

// CheckInvariants verifies structural invariants: sorted keys, uniform leaf
// depth, separator correctness, child counts, key order across leaves, and
// the key count. Dense leaves are checked by their range, without
// materializing them. It returns a description of the first violation, or
// "".
func (t *BTree) CheckInvariants() string {
	depths := map[int]bool{}
	var prevLeafMax *int64
	count := 0
	var walk func(n *bnode, depth int, lo, hi *int64) string
	walk = func(n *bnode, depth int, lo, hi *int64) string {
		if n.dense > 0 {
			first, last := n.lo, n.lo+n.dense-1
			switch {
			case !n.leaf || n.keys != nil:
				return "dense node is not a keyless leaf"
			case lo != nil && first < *lo:
				return "key below subtree bound"
			case hi != nil && last >= *hi:
				return "key above subtree bound"
			case prevLeafMax != nil && first <= *prevLeafMax:
				return "leaves out of order"
			}
			depths[depth] = true
			if len(depths) > 1 {
				return "leaves at different depths"
			}
			prevLeafMax = &last
			count += int(n.dense)
			return ""
		}
		for i := 1; i < len(n.keys); i++ {
			if n.keys[i-1] >= n.keys[i] {
				return "keys out of order"
			}
		}
		for _, k := range n.keys {
			if lo != nil && k < *lo {
				return "key below subtree bound"
			}
			if hi != nil && k >= *hi {
				return "key above subtree bound"
			}
		}
		if n.leaf {
			depths[depth] = true
			if len(depths) > 1 {
				return "leaves at different depths"
			}
			for _, k := range n.keys {
				if prevLeafMax != nil && k <= *prevLeafMax {
					return "leaves out of order"
				}
				prevLeafMax = &k
			}
			count += len(n.keys)
			return ""
		}
		if len(n.children) != len(n.keys)+1 {
			return "inner child count mismatch"
		}
		for i, c := range n.children {
			var clo, chi *int64
			if i > 0 {
				clo = &n.keys[i-1]
			} else {
				clo = lo
			}
			if i < len(n.keys) {
				chi = &n.keys[i]
			} else {
				chi = hi
			}
			if msg := walk(c, depth+1, clo, chi); msg != "" {
				return msg
			}
		}
		return ""
	}
	if msg := walk(t.root, 1, nil, nil); msg != "" {
		return msg
	}
	if count != t.size {
		return "leaf key count disagrees with size"
	}
	return ""
}
