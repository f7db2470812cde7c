package metrics

import "sync"

// LabelledCounter is a set of named monotonic counters — one Counter
// per dynamically created label. The cluster router counts per-replica
// requests, failures and failovers this way: labels are replica names
// that appear (and may disappear from reporting concern, though counts
// are never dropped) as backends register. Incrementing an existing
// label is lock-free after the first touch; creating a label takes a
// short write lock once.
type LabelledCounter struct {
	mu sync.RWMutex
	m  map[string]*Counter
}

// counter returns (creating on first use) the label's counter.
func (l *LabelledCounter) counter(label string) *Counter {
	l.mu.RLock()
	c, ok := l.m[label]
	l.mu.RUnlock()
	if ok {
		return c
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if c, ok = l.m[label]; ok {
		return c
	}
	if l.m == nil {
		l.m = map[string]*Counter{}
	}
	c = &Counter{}
	l.m[label] = c
	return c
}

// Inc increments the label's counter by one.
func (l *LabelledCounter) Inc(label string) { l.counter(label).Inc() }

// Value returns the label's current count (0 for a label never
// incremented).
func (l *LabelledCounter) Value(label string) int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if c, ok := l.m[label]; ok {
		return c.Value()
	}
	return 0
}
