package metrics

import (
	"sort"
	"sync"
)

// Keyed is a table of rows created on first use of their key: counters
// per tenant, shard or device, a histogram per benchmark, a breaker per
// shard. It is safe for concurrent use. Update and Each run f under the
// table's lock, so f must not block or call back into the table; a row
// reached through Get must synchronise its own fields.
type Keyed[T any] struct {
	mu     sync.Mutex
	rows   map[string]*T
	newRow func() *T
	limit  int
}

// NewKeyed returns an empty table whose rows newRow makes (new(T) when
// nil). With limit > 0, a key first seen once the table holds limit rows is
// counted in a shared row keyed "other", so a flood of names cannot grow
// it without bound.
func NewKeyed[T any](limit int, newRow func() *T) *Keyed[T] {
	if newRow == nil {
		newRow = func() *T { return new(T) }
	}
	return &Keyed[T]{rows: make(map[string]*T), newRow: newRow, limit: limit}
}

// rowLocked returns key's row, creating it; k.mu must be held.
func (k *Keyed[T]) rowLocked(key string) *T {
	r, ok := k.rows[key]
	if !ok && k.limit > 0 && len(k.rows) >= k.limit {
		key = "other"
		r, ok = k.rows[key]
	}
	if !ok {
		r = k.newRow()
		k.rows[key] = r
	}
	return r
}

// Get returns key's row, creating it.
func (k *Keyed[T]) Get(key string) *T {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.rowLocked(key)
}

// Update runs f on key's row, creating it, under the table's lock.
func (k *Keyed[T]) Update(key string, f func(*T)) {
	k.mu.Lock()
	defer k.mu.Unlock()
	f(k.rowLocked(key))
}

// Each runs f on every row in key order under the table's lock.
func (k *Keyed[T]) Each(f func(key string, row *T)) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, key := range SortedKeys(k.rows) {
		f(key, k.rows[key])
	}
}

// SortedKeys returns m's keys in ascending order.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}
