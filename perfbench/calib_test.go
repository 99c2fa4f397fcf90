package main

import (
	"testing"
	"time"
)

// TestRefLoopAllocatesNothing guards the reference loop's independence from
// the heap the simulator leaves behind: it must not allocate while timed.
func TestRefLoopAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(2, func() { refLoop() }); n != 0 {
		t.Errorf("refLoop allocates %v times per run", n)
	}
}

func TestScaled(t *testing.T) {
	// A host running at half the nominal speed takes twice as long for the
	// reference loop, so a 2s rep is 1s at the nominal speed.
	r := rep{RefLoop: 2 * refLoopNominal}
	if got := r.scaled(2 * time.Second); got != 1 {
		t.Errorf("scaled = %v, want 1", got)
	}
}
