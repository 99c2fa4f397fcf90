package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"slices"
	"testing"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"own frame", []string{
			"islands/internal/storage.(*BufferPool).Fix",
			"islands/internal/engine.(*Instance).runTxn",
		}, "storage"},
		{"runtime leaf charged to its caller", []string{
			"runtime.memmove",
			"runtime.growslice",
			"islands/internal/storage.(*PageStore).newPageData",
			"islands/internal/storage.(*BufferPool).Fix",
			"islands/internal/engine.(*Instance).runTxn",
		}, "storage"},
		{"allocator under a layer", []string{
			"runtime.mallocgcSmallNoscan",
			"runtime.mallocgc",
			"runtime.newobject",
			"islands/internal/lock.(*Manager).Acquire",
		}, "lock"},
		{"coroutine switch in a parked proc", []string{
			"runtime.coroswitch",
			"iter.Pull[...].func2",
			"islands/internal/sim.(*Proc).yieldWait",
			"islands/internal/sim.(*Proc).Advance",
			"islands/internal/engine.(*Instance).workerLoop",
			"islands/internal/sim.(*Proc).body",
			"iter.Pull[...].func1",
			"runtime.corostart",
		}, "sim"},
		{"coroutine body below the kernel", []string{
			"islands/internal/wal.(*Manager).Append",
			"islands/internal/engine.(*Instance).commit",
			"islands/internal/sim.(*Proc).body",
			"runtime.corostart",
		}, "wal"},
		{"generic method name", []string{
			"islands/internal/ipc.(*Network[go.shape.struct { Kind uint8 }]).Send",
			"islands/internal/engine.(*Instance).send",
		}, "ipc"},
		{"package outside the layer list", []string{
			"islands/internal/topology.(*Machine).SocketOf",
			"islands/internal/mem.(*Model).Access",
		}, "other"},
		{"benchmark span inside the engine", []string{
			"time.Now",
			"main.(*countingSource).Next",
			"islands/internal/engine.(*Instance).workerLoop",
		}, "perfbench"},
		{"request source under the span", []string{
			"math/rand.(*Rand).Int63n",
			"islands/internal/workload.(*Mix).Next",
			"main.(*countingSource).Next",
			"islands/internal/engine.(*Instance).workerLoop",
		}, "workload"},
		{"GC worker with no islands caller", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker",
			"runtime.goexit",
		}, "runtime"},
		{"empty stack", nil, "runtime"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestInMalloc(t *testing.T) {
	if !inMalloc([]string{"runtime.mallocgcSmallScanNoHeader", "runtime.mallocgc", "islands/internal/sim.(*Kernel).Run"}) {
		t.Error("allocator stack not detected")
	}
	if inMalloc([]string{"runtime.memmove", "islands/internal/storage.(*PageStore).Fetch"}) {
		t.Error("non-allocator stack detected")
	}
}

//go:noinline
func allocateForProfile() [][]byte {
	out := make([][]byte, 64)
	for i := range out {
		out[i] = make([]byte, 4096)
	}
	return out
}

// TestParseProfileReadsRealProfile decodes the process's own allocation
// profile and finds the allocating function on a sample's stack.
func TestParseProfileReadsRealProfile(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	keep := allocateForProfile()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(keep)

	p, err := parseProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	i := p.valueIndex("alloc_space")
	if i < 0 {
		t.Fatalf("no alloc_space in %v", p.types)
	}
	var bytes int64
	for _, s := range p.samples {
		if len(s.values) != len(p.types) {
			t.Fatalf("sample has %d values for %d types", len(s.values), len(p.types))
		}
		if slices.Contains(s.stack, "islands/perfbench.allocateForProfile") || slices.Contains(s.stack, "main.allocateForProfile") {
			bytes += s.values[i]
			if l := layerOf(s.stack); l != "perfbench" {
				t.Errorf("allocateForProfile charged to %q", l)
			}
		}
	}
	if bytes < 64*4096 {
		t.Errorf("allocateForProfile charged %d bytes, want >= %d", bytes, 64*4096)
	}
}

func TestParseProfileRejectsMalformed(t *testing.T) {
	if _, err := parseProfile(bytes.NewReader([]byte("not gzip"))); err == nil {
		t.Error("accepted non-gzip input")
	}
	for _, b := range [][]byte{
		{0x0a},             // field 1, length-delimited, length missing
		{0x0a, 0x05, 0x01}, // length past the end
		{0x0b},             // wire type 3 (groups) unsupported
		{0x09, 0x01},       // fixed64 truncated
	} {
		if err := eachField(b, func(int, uint64, uint64, []byte) error { return nil }); err == nil {
			t.Errorf("eachField(%x) accepted malformed input", b)
		}
	}
}
