package stats

import (
	"fmt"
	"sort"
	"strings"
)

// CounterID indexes a fixed counter slot registered at construction time.
// Subsystems declare a small enum of IDs matching the name order they pass
// to NewFixed, then increment through Add on the hot path — an array index,
// no string hash and no allocation.
type CounterID int

// Counters is a named set of monotonically increasing counters, one fixed
// integer-indexed slot per name registered with NewFixed: Add and Value
// index a slot, and the string-keyed Get/Names/Snapshot/String export the
// same slots by name. The zero value is not usable; construct with
// NewFixed.
type Counters struct {
	slots []int64
	names []string
	index map[string]CounterID
}

// NewFixed returns a counter set with one fixed slot per name, indexed in
// argument order: the CounterID for names[i] is i.
func NewFixed(names ...string) *Counters {
	c := &Counters{
		slots: make([]int64, len(names)),
		names: append([]string(nil), names...),
		index: make(map[string]CounterID, len(names)),
	}
	for i, name := range names {
		c.index[name] = CounterID(i)
	}
	return c
}

// Add adds delta to a registered slot. This is the hot path: a bounds-checked
// array index, no hashing, no allocation.
//
//impact:hotpath
func (c *Counters) Add(id CounterID, delta int64) {
	c.slots[id] += delta
}

// Value returns the current value of a registered slot without hashing.
//
//impact:hotpath
func (c *Counters) Value(id CounterID) int64 {
	return c.slots[id]
}

// Get returns the value of the named counter (0 if never incremented or
// never registered).
func (c *Counters) Get(name string) int64 {
	if id, ok := c.index[name]; ok {
		return c.slots[id]
	}
	return 0
}

// Names returns the names of all non-zero counters in sorted order.
// Slots never incremented are omitted, so a counter exists only once
// meaningfully incremented.
func (c *Counters) Names() []string {
	names := make([]string, 0, len(c.slots))
	for i, v := range c.slots {
		if v != 0 {
			names = append(names, c.names[i])
		}
	}
	sort.Strings(names)
	return names
}

// Reset zeroes all counters.
func (c *Counters) Reset() {
	for i := range c.slots {
		c.slots[i] = 0
	}
}

// Snapshot returns a copy of the current non-zero counter values.
func (c *Counters) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(c.slots))
	for i, v := range c.slots {
		if v != 0 {
			out[c.names[i]] = v
		}
	}
	return out
}

// String renders counters as "name=value" pairs in sorted order.
func (c *Counters) String() string {
	names := c.Names()
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", name, c.Get(name)))
	}
	return strings.Join(parts, " ")
}

// ErrorRate tracks correct/incorrect decisions (e.g. decoded covert-channel
// bits or side-channel guesses) and reports the fraction wrong.
type ErrorRate struct {
	correct int64
	wrong   int64
}

// Record adds one decision outcome.
func (e *ErrorRate) Record(ok bool) {
	if ok {
		e.correct++
	} else {
		e.wrong++
	}
}

// Correct returns the number of correct decisions.
func (e *ErrorRate) Correct() int64 { return e.correct }

// Wrong returns the number of incorrect decisions.
func (e *ErrorRate) Wrong() int64 { return e.wrong }

// Total returns the total number of decisions.
func (e *ErrorRate) Total() int64 { return e.correct + e.wrong }

// Rate returns wrong/total, or 0 when no decisions were recorded.
func (e *ErrorRate) Rate() float64 {
	total := e.Total()
	if total == 0 {
		return 0
	}
	return float64(e.wrong) / float64(total)
}
