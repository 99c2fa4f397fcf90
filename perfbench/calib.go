package main

import (
	"slices"
	"time"
)

// The reference loop measures how fast the host is running right now, so
// the end-to-end times can be stated at one nominal host speed. Other
// tenants of a shared host change its speed by up to 2x over minutes; a
// rep's time divided by the reference loop's time around it cancels that
// drift. The loop is fixed stdlib work (sorting, hashing into a map,
// chasing pointers through a search tree) that no change to the simulator
// touches. Its buffers are allocated once, so it allocates nothing while
// timed and the heap the simulator leaves behind does not slow it.

// refLoopNominal is the reference loop's time at the nominal host speed
// the scaled metrics are stated at: roughly its time on a 2-vCPU 2 GHz
// Xeon VM, so scaled seconds there read close to wall seconds.
const refLoopNominal = 25 * time.Millisecond

const refKeys = 1 << 15

type refNode struct {
	l, r *refNode
	v    uint64
}

var ref = struct {
	keys  []uint64
	m     map[uint64]uint64
	nodes []refNode
	sink  uint64
}{
	keys:  make([]uint64, refKeys),
	m:     make(map[uint64]uint64, refKeys),
	nodes: make([]refNode, refKeys/4),
}

// refLoop runs the reference loop once and returns its host time.
func refLoop() time.Duration {
	t := time.Now()
	rng := uint64(1)
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 11
	}
	for round := 0; round < 4; round++ {
		for i := range ref.keys {
			ref.keys[i] = next()
		}
		slices.Sort(ref.keys)
		clear(ref.m)
		var root *refNode
		for i, k := range ref.keys {
			ref.m[k&0xfffff] += uint64(i)
			if i%4 == 0 {
				n := &ref.nodes[i/4]
				*n = refNode{v: next()}
				root = refInsert(root, n)
			}
		}
		ref.sink += refSum(root) + uint64(len(ref.m))
	}
	return time.Since(t)
}

func refInsert(root, n *refNode) *refNode {
	p := &root
	for *p != nil {
		if n.v < (*p).v {
			p = &(*p).l
		} else {
			p = &(*p).r
		}
	}
	*p = n
	return root
}

func refSum(n *refNode) uint64 {
	if n == nil {
		return 0
	}
	return n.v ^ (refSum(n.l) + refSum(n.r))
}
