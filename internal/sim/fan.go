package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// fanHelpers counts the helper goroutines that Fan calls have running,
// process-wide. A call starts one only while fewer than GOMAXPROCS−1 run,
// so under one top-level caller at most GOMAXPROCS goroutines work
// through Fan tasks, however deeply the calls nest.
var fanHelpers atomic.Int32

// Fan runs fn(i) for every i in [0, n) and returns the results by index.
// It is how a figure runs its independent simulations side by side, each
// on a machine of its own: tasks may share only what none of them writes.
//
// The calling goroutine works through the tasks itself, claiming them in
// index order. Before each claim that leaves a task unclaimed, it starts a
// helper goroutine to claim alongside it, if the process-wide budget
// allows. So a call made inside another call's task, or while the budget
// is used up, runs inline on its caller: nested calls neither deadlock nor
// multiply machines. The width is runtime.GOMAXPROCS(0) at call time; at
// GOMAXPROCS=1 every task runs inline, in index order.
//
// Fan returns once every claimed task has returned, and claims none after
// a task has failed. The lowest failing index decides the outcome: if its
// task panicked, Fan re-panics with that value in the caller, so a recover
// above Fan confines a task's panic as it would a loop's; otherwise Fan
// returns its error. The re-raised panic carries the task's value, not
// the task's stack.
func Fan[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	panics := make([]any, n)
	maxHelpers := int32(runtime.GOMAXPROCS(0) - 1)
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		work   func()
	)
	work = func() {
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if i+1 < n && reserveHelper(maxHelpers) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer fanHelpers.Add(-1)
					work()
				}()
			}
			if !runTask(fn, i, out, errs, panics) {
				failed.Store(true)
			}
		}
	}
	work()
	wg.Wait()
	for i := range n {
		if panics[i] != nil {
			panic(panics[i])
		}
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return out, nil
}

// runTask runs fn(i), storing its result, error or recovered panic at
// index i, and reports whether it succeeded.
func runTask[T any](fn func(int) (T, error), i int, out []T, errs []error, panics []any) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			panics[i] = p
		}
	}()
	out[i], errs[i] = fn(i)
	return errs[i] == nil
}

// reserveHelper takes one helper slot if fewer than limit are taken.
func reserveHelper(limit int32) bool {
	for {
		h := fanHelpers.Load()
		if h >= limit {
			return false
		}
		if fanHelpers.CompareAndSwap(h, h+1) {
			return true
		}
	}
}
