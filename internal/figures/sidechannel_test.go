package figures

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/genomics"
)

// TestSideChannelFailureLeavesNoGoroutine makes one bank count's run fail
// and requires its error back, with no goroutine left behind (the plan's
// prefetch task included), inline and fanned out over two cores.
func TestSideChannelFailureLeavesNoGoroutine(t *testing.T) {
	for _, width := range []int{1, 2} {
		t.Run(fmt.Sprint("GOMAXPROCS=", width), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
			start := runtime.NumGoroutine()
			_, err := SideChannel([]int{64, 3}, 1<<16, 500, 2, 7)
			if want := "dram: total banks 3 is not a power of two"; err == nil || err.Error() != want {
				t.Fatalf("SideChannel = %v, want %q", err, want)
			}
			// A finished helper goroutine may take a moment to exit.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() != start; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after SideChannel returned, %d before", runtime.NumGoroutine(), start)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestSideChannelPrefetchIdleInline requires the plan's prefetch task to
// compute nothing at GOMAXPROCS=1, where Fan runs it after every run, and
// the runs to report what they report fanned out over two cores.
func TestSideChannelPrefetchIdleInline(t *testing.T) {
	ref := genomics.NewReference(1<<16, 7)
	idx, err := genomics.BuildIndex(ref, genomics.DefaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	reads, err := genomics.SampleReads(ref, 500, VictimReadLen, 0.02, 8)
	if err != nil {
		t.Fatal(err)
	}
	var results [2]any
	for i, width := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(width)
		plan := genomics.NewPlan(ref, idx, reads)
		res, err := sideChannelRuns([]int{64, 512}, plan, 2)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if width == 1 && plan.Prefetched() != 0 {
			t.Fatalf("inline prefetch task computed %d entries", plan.Prefetched())
		}
		results[i] = res
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("GOMAXPROCS=1:\n%+v\nGOMAXPROCS=2:\n%+v", results[0], results[1])
	}
}
