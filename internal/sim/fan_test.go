package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// setWidth sets GOMAXPROCS, Fan's width, for the rest of the test.
func setWidth(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// catch runs f and returns what it panicked with, or nil.
func catch(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// TestFanRunsEveryIndexOnce requires every index to run exactly once and
// its result to land at its own index, inline and fanned out.
func TestFanRunsEveryIndexOnce(t *testing.T) {
	for _, width := range []int{1, 4} {
		for _, n := range []int{0, 1, 100} {
			t.Run(fmt.Sprintf("width=%d/n=%d", width, n), func(t *testing.T) {
				setWidth(t, width)
				runs := make([]atomic.Int32, n)
				out, err := Fan(n, func(i int) (int, error) {
					runs[i].Add(1)
					return i * i, nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(out) != n {
					t.Fatalf("%d results, want %d", len(out), n)
				}
				for i := range runs {
					if got := runs[i].Load(); got != 1 {
						t.Errorf("index %d ran %d times", i, got)
					}
					if out[i] != i*i {
						t.Errorf("result %d = %d, want %d", i, out[i], i*i)
					}
				}
				if h := fanHelpers.Load(); h != 0 {
					t.Fatalf("%d helper slots still taken after Fan returned", h)
				}
			})
		}
	}
}

// TestFanRunsTasksSideBySide requires a second task to start while the
// first still runs: task 0, which the caller always claims first, waits
// for task 1, so a Fan that never fans out hangs here.
func TestFanRunsTasksSideBySide(t *testing.T) {
	setWidth(t, 2)
	started := make(chan struct{})
	_, err := Fan(2, func(i int) (struct{}, error) {
		if i == 0 {
			<-started
		} else {
			close(started)
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFanLowestFailingIndexWins requires the error of the lowest failing
// index, also when a higher index fails first.
func TestFanLowestFailingIndexWins(t *testing.T) {
	errLow, errHigh := errors.New("index 1"), errors.New("index 2")
	t.Run("higher fails first", func(t *testing.T) {
		setWidth(t, 4)
		highFailed := make(chan struct{})
		_, err := Fan(4, func(i int) (int, error) {
			switch i {
			case 1:
				<-highFailed
				return 0, errLow
			case 2:
				close(highFailed)
				return 0, errHigh
			}
			return i, nil
		})
		if err != errLow {
			t.Fatalf("Fan error = %v, want %v", err, errLow)
		}
	})
	for _, width := range []int{1, 4} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			setWidth(t, width)
			_, err := Fan(10, func(i int) (int, error) {
				if i >= 3 {
					return 0, fmt.Errorf("index %d", i)
				}
				return i, nil
			})
			if err == nil || err.Error() != "index 3" {
				t.Fatalf("Fan error = %v, want index 3", err)
			}
		})
	}
}

// TestFanRepanicsInCaller requires a task's panic to reach the caller with
// its value, where a recover confines it, and the lowest failing index to
// decide between a panic and an error.
func TestFanRepanicsInCaller(t *testing.T) {
	for _, width := range []int{1, 4} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			setWidth(t, width)
			p := catch(func() {
				Fan(10, func(i int) (int, error) {
					if i == 7 {
						panic("task 7")
					}
					return i, nil
				})
			})
			if p != "task 7" {
				t.Fatalf("recovered %v, want the task's panic value", p)
			}
			p = catch(func() {
				_, err := Fan(10, func(i int) (int, error) {
					switch i {
					case 3:
						return 0, errors.New("index 3")
					case 5:
						panic("task 5")
					}
					return i, nil
				})
				if err == nil || err.Error() != "index 3" {
					t.Errorf("Fan error = %v, want index 3", err)
				}
			})
			if p != nil {
				t.Fatalf("a panic above the lowest failing index reached the caller: %v", p)
			}
			if h := fanHelpers.Load(); h != 0 {
				t.Fatalf("%d helper slots still taken after a panic", h)
			}
		})
	}
	t.Run("from a helper", func(t *testing.T) {
		setWidth(t, 2)
		done := make(chan struct{})
		p := catch(func() {
			Fan(2, func(i int) (int, error) {
				if i == 0 {
					<-done // the caller runs task 0, so a helper runs task 1
					return 0, nil
				}
				defer close(done)
				panic("task 1")
			})
		})
		if p != "task 1" {
			t.Fatalf("recovered %v, want the helper task's panic value", p)
		}
	})
}

// TestFanInFlightBound requires at most GOMAXPROCS tasks to run at once,
// for one call and for calls nested ten deep.
func TestFanInFlightBound(t *testing.T) {
	for _, width := range []int{2, 4} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			setWidth(t, width)
			var inFlight, peak atomic.Int32
			leaf := func() {
				n := inFlight.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				runtime.Gosched()
				inFlight.Add(-1)
			}
			var nest func(depth int)
			nest = func(depth int) {
				_, err := Fan(2, func(int) (struct{}, error) {
					if depth == 0 {
						leaf()
					} else {
						nest(depth - 1)
					}
					return struct{}{}, nil
				})
				if err != nil {
					t.Error(err)
				}
			}
			nest(0)
			nest(9) // ten nested calls
			if p := peak.Load(); p > int32(width) {
				t.Fatalf("%d tasks in flight at GOMAXPROCS=%d", p, width)
			}
			if h := fanHelpers.Load(); h != 0 {
				t.Fatalf("%d helper slots still taken after Fan returned", h)
			}
		})
	}
}

// TestFanInlineWhenBudgetUsed requires a call made while every helper slot
// is taken to run its tasks on its caller, one at a time in index order,
// and to return: at GOMAXPROCS=2 the outer call's one helper holds the
// only slot, parked in task 1 until task 0's inner call is done.
func TestFanInlineWhenBudgetUsed(t *testing.T) {
	setWidth(t, 2)
	release := make(chan struct{})
	var order []int
	var inFlight, peak atomic.Int32
	_, err := Fan(2, func(i int) (struct{}, error) {
		if i == 1 {
			<-release
			return struct{}{}, nil
		}
		defer close(release)
		if h := fanHelpers.Load(); h != 1 {
			return struct{}{}, fmt.Errorf("%d helper slots taken, want the budget of 1 used up", h)
		}
		_, err := Fan(5, func(j int) (struct{}, error) {
			peak.Store(max(peak.Load(), inFlight.Add(1)))
			order = append(order, j)
			inFlight.Add(-1)
			return struct{}{}, nil
		})
		return struct{}{}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[0 1 2 3 4]" || peak.Load() != 1 {
		t.Fatalf("inner call ran %v with %d in flight, want [0 1 2 3 4] one at a time", order, peak.Load())
	}
}
