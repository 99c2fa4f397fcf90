package storage

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"islands/internal/exec"
	"islands/internal/mem"
	"islands/internal/sim"
	"islands/internal/topology"
)

func TestBTreeInsertSearch(t *testing.T) {
	bt := NewBTree(8) // small order exercises splits
	for k := int64(0); k < 1000; k++ {
		if !bt.Insert(nil, k) {
			t.Fatalf("insert %d reported duplicate", k)
		}
	}
	if bt.Size() != 1000 {
		t.Fatalf("size = %d, want 1000", bt.Size())
	}
	if bt.Height() < 3 {
		t.Errorf("height = %d; expected >= 3 with order 8", bt.Height())
	}
	for k := int64(0); k < 1000; k++ {
		if !bt.Search(nil, k) {
			t.Fatalf("search %d missed", k)
		}
	}
	if bt.Search(nil, 1000) {
		t.Error("found absent key")
	}
	if msg := bt.CheckInvariants(); msg != "" {
		t.Errorf("invariant violation: %s", msg)
	}
}

func TestBTreeInsertDescendingAndRandom(t *testing.T) {
	for name, keys := range map[string][]int64{
		"descending": genKeys(500, func(i int) int64 { return int64(499 - i) }),
		"random":     shuffled(500, 42),
	} {
		bt := NewBTree(6)
		for _, k := range keys {
			bt.Insert(nil, k)
		}
		if msg := bt.CheckInvariants(); msg != "" {
			t.Errorf("%s: invariant violation: %s", name, msg)
		}
		for _, k := range keys {
			if !bt.Search(nil, k) {
				t.Errorf("%s: key %d missing", name, k)
			}
		}
	}
}

func genKeys(n int, f func(int) int64) []int64 {
	ks := make([]int64, n)
	for i := range ks {
		ks[i] = f(i)
	}
	return ks
}

func shuffled(n int, seed int64) []int64 {
	ks := genKeys(n, func(i int) int64 { return int64(i) })
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	return ks
}

// TestBTreeDuplicateInsertReplaces: inserting a present key replaces it
// with itself, reporting false and leaving the size unchanged.
func TestBTreeDuplicateInsertReplaces(t *testing.T) {
	bt := NewBTree(8)
	bt.Insert(nil, 7)
	if bt.Insert(nil, 7) {
		t.Error("duplicate insert reported as new")
	}
	if !bt.Search(nil, 7) {
		t.Error("duplicate insert lost the key")
	}
	if bt.Size() != 1 {
		t.Errorf("size = %d, want 1", bt.Size())
	}
}

func TestBTreeDelete(t *testing.T) {
	bt := NewBTree(8)
	for k := int64(0); k < 200; k++ {
		bt.Insert(nil, k)
	}
	for k := int64(0); k < 200; k += 2 {
		if !bt.Delete(nil, k) {
			t.Fatalf("delete %d failed", k)
		}
	}
	if bt.Delete(nil, 0) {
		t.Error("double delete succeeded")
	}
	for k := int64(0); k < 200; k++ {
		if ok, want := bt.Search(nil, k), k%2 == 1; ok != want {
			t.Errorf("key %d present=%v, want %v", k, ok, want)
		}
	}
	if bt.Size() != 100 {
		t.Errorf("size = %d, want 100", bt.Size())
	}
	if msg := bt.CheckInvariants(); msg != "" {
		t.Errorf("invariant violation after deletes: %s", msg)
	}
}

func TestBTreeBulkLoad(t *testing.T) {
	bt := NewBTree(16)
	bt.BulkLoadRange(10000, 0.9)
	if bt.Size() != 10000 {
		t.Fatalf("size = %d", bt.Size())
	}
	if msg := bt.CheckInvariants(); msg != "" {
		t.Fatalf("invariant violation after bulk load: %s", msg)
	}
	// 14 keys per leaf (16 * 0.9), 15 children per inner node.
	if bt.Height() != 4 {
		t.Errorf("height = %d, want 4", bt.Height())
	}
	for _, k := range []int64{0, 13, 14, 9999, 10000, -1} {
		if ok, want := bt.Search(nil, k), k >= 0 && k < 10000; ok != want {
			t.Errorf("key %d present=%v want %v", k, ok, want)
		}
	}
	// Insert after bulk load still works.
	bt.Insert(nil, 10000)
	if !bt.Search(nil, 10000) {
		t.Error("insert after bulk load lost")
	}
	if msg := bt.CheckInvariants(); msg != "" {
		t.Fatalf("invariant violation after post-load insert: %s", msg)
	}
}

func TestBTreeBulkLoadEmpty(t *testing.T) {
	bt := NewBTree(16)
	bt.BulkLoadRange(0, 0.9)
	if bt.Size() != 0 || bt.Height() != 1 {
		t.Error("empty bulk load wrong shape")
	}
	if bt.Search(nil, 0) {
		t.Error("empty tree found a key")
	}
}

// TestBTreeQuickProperty: random operation sequences preserve set
// semantics and structural invariants, from an empty tree and from a
// bulk-loaded one, whose dense leaves materialize under deletes and split
// under inserts at both ends of the loaded range.
func TestBTreeQuickProperty(t *testing.T) {
	for _, loaded := range []int64{0, 150} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			bt := NewBTree(5)
			bt.BulkLoadRange(loaded, 0.9)
			model := map[int64]bool{}
			for k := int64(0); k < loaded; k++ {
				model[k] = true
			}
			for op := 0; op < 500; op++ {
				k := int64(rng.Intn(250)) - 50
				switch rng.Intn(3) {
				case 0:
					if bt.Insert(nil, k) == model[k] {
						return false
					}
					model[k] = true
				case 1:
					if bt.Delete(nil, k) != model[k] {
						return false
					}
					delete(model, k)
				case 2:
					if bt.Search(nil, k) != model[k] {
						return false
					}
				}
				if op%50 == 0 && bt.CheckInvariants() != "" {
					return false
				}
			}
			if bt.Size() != len(model) {
				return false
			}
			return bt.CheckInvariants() == ""
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Errorf("bulk-loaded %d keys: %v", loaded, err)
		}
	}
}

// TestBTreeCheckInvariantsSeesDenseLeaves: CheckInvariants reads a dense
// leaf's range, so a corrupted range is reported without materializing.
func TestBTreeCheckInvariantsSeesDenseLeaves(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(leaves []*bnode)
		want   string
	}{
		{"below bound", func(l []*bnode) { l[3].lo -= 2; l[3].dense += 2 }, "key below subtree bound"},
		{"above bound", func(l []*bnode) { l[3].dense++ }, "key above subtree bound"},
		{"count", func(l []*bnode) { l[len(l)-1].dense++ }, "leaf key count disagrees with size"},
		{"keys beside range", func(l []*bnode) { l[3].keys = []int64{l[3].lo} }, "dense node is not a keyless leaf"},
	} {
		bt := NewBTree(8)
		bt.BulkLoadRange(500, 0.9)
		var leaves []*bnode
		var walk func(n *bnode)
		walk = func(n *bnode) {
			if n.leaf {
				leaves = append(leaves, n)
			}
			for _, c := range n.children {
				walk(c)
			}
		}
		walk(bt.root)
		tc.tamper(leaves)
		if got := bt.CheckInvariants(); got != tc.want {
			t.Errorf("%s: CheckInvariants = %q, want %q", tc.name, got, tc.want)
		}
		for _, l := range leaves {
			if l.dense == 0 {
				t.Fatalf("%s: CheckInvariants materialized a leaf", tc.name)
			}
		}
	}
}

// materializeAll stores every dense leaf's keys explicitly.
func materializeAll(t *BTree) {
	var walk func(n *bnode)
	walk = func(n *bnode) {
		n.materialize(t.order)
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
}

// TestBTreeDenseLeavesChargeLikeExplicit: the same operations on a
// bulk-loaded tree and on a copy whose leaves were all materialized first
// charge the same virtual time, memory accesses and breakdown, and answer
// the same.
func TestBTreeDenseLeavesChargeLikeExplicit(t *testing.T) {
	type outcome struct {
		now     sim.Time
		stats   mem.Stats
		bd      exec.Breakdown
		answers []bool
	}
	run := func(materialized bool) outcome {
		bt := NewBTree(8)
		bt.BulkLoadRange(5000, 0.9)
		if materialized {
			materializeAll(bt)
		}
		var out outcome
		k := sim.NewKernel()
		defer k.Close()
		model := mem.NewModel(topology.QuadSocket())
		k.Spawn("ops", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 2000; i++ {
				ctx := exec.New(p, topology.CoreID(rng.Intn(model.Topo.NumCores())), model, nil)
				ctx.BD = &out.bd
				key := int64(rng.Intn(5200)) - 100
				var ok bool
				switch rng.Intn(4) {
				case 0:
					ok = bt.Insert(ctx, key)
				case 1:
					ok = bt.Delete(ctx, key)
				default:
					ok = bt.Search(ctx, key)
				}
				out.answers = append(out.answers, ok)
			}
			out.now = p.Now()
		})
		k.Run()
		out.stats = model.TotalStats(nil)
		if msg := bt.CheckInvariants(); msg != "" {
			t.Errorf("materialized=%v: invariant violation: %s", materialized, msg)
		}
		return out
	}
	dense, explicit := run(false), run(true)
	if dense.now != explicit.now || dense.stats != explicit.stats || dense.bd != explicit.bd {
		t.Errorf("dense leaves charged differently: now %v vs %v, stats %+v vs %+v",
			dense.now, explicit.now, dense.stats, explicit.stats)
	}
	if !reflect.DeepEqual(dense.answers, explicit.answers) {
		t.Error("dense and materialized trees answered differently")
	}
}

// TestBTreeBulkLoadAllocations: a search of an untouched bulk-loaded tree
// allocates nothing, and loading allocates per level, not per node.
func TestBTreeBulkLoadAllocations(t *testing.T) {
	bt := NewBTree(16)
	const n = 100000
	bt.BulkLoadRange(n, 0.9)
	key := int64(0)
	if a := testing.AllocsPerRun(100, func() {
		bt.Search(nil, key)
		key = (key + 7919) % n
	}); a != 0 {
		t.Errorf("Search allocated %v times per run, want 0", a)
	}
	maxAllocs := float64(3*bt.Height() + 1) // a leaf slab, then three slabs per inner level
	if a := testing.AllocsPerRun(10, func() { bt.BulkLoadRange(n, 0.9) }); a > maxAllocs {
		t.Errorf("BulkLoadRange(%d) allocated %v times, want <= %v for height %d", n, a, maxAllocs, bt.Height())
	}
}
