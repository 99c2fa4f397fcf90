package storage

import (
	"math/rand"
	"testing"
	"testing/quick"
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
// semantics and structural invariants.
func TestBTreeQuickProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bt := NewBTree(5)
		model := map[int64]bool{}
		for op := 0; op < 500; op++ {
			k := int64(rng.Intn(200))
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
		}
		if bt.Size() != len(model) {
			return false
		}
		return bt.CheckInvariants() == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
