package fsio

import (
	"sync"
	"sync/atomic"
)

// Failpoints are named fault-injection hooks compiled into the durability
// path so tests can prove crash consistency at every write boundary: a
// test arms a hook with SetFailpoint and the production code calls
// Failpoint(name) just before the guarded side effect. An armed hook can
// return an error (the write is abandoned, as if the process had died
// before it landed — everything journaled earlier is on disk, nothing
// later is) or panic (exercising the per-run recovery boundary). With no
// hooks armed the cost is a single atomic load, so the hooks stay in the
// production build without a separate tag.
//
// Hook names in the durability path, in write order:
//
//	journal.seq        the ID-allocation watermark record appended to the job log
//	journal.spec       a job's immutable spec record appended to the job log
//	journal.status     a job's status record, appended once it settles
//	journal.rewrite    the job log rewritten down to its live records
//	pack.append        a needle appended to a pack bundle
//	pack.index         the pack engine's persisted needle index
//	engine.run         one simulation, just before it starts
var (
	failpointsArmed atomic.Int32
	failpointsMu    sync.Mutex
	failpointFns    map[string]func() error
)

// Failpoint invokes the hook armed under name, if any. The fast path —
// no hooks armed anywhere — is one atomic load.
func Failpoint(name string) error {
	if failpointsArmed.Load() == 0 {
		return nil
	}
	failpointsMu.Lock()
	fn := failpointFns[name]
	failpointsMu.Unlock()
	if fn == nil {
		return nil
	}
	return fn()
}

// SetFailpoint arms fn at a named boundary (nil disarms it). Test-only:
// production code never calls this, so the armed count stays zero and
// Failpoint stays a single load.
func SetFailpoint(name string, fn func() error) {
	failpointsMu.Lock()
	defer failpointsMu.Unlock()
	if failpointFns == nil {
		failpointFns = make(map[string]func() error)
	}
	_, had := failpointFns[name]
	if fn == nil {
		if had {
			delete(failpointFns, name)
			failpointsArmed.Add(-1)
		}
		return
	}
	failpointFns[name] = fn
	if !had {
		failpointsArmed.Add(1)
	}
}
