package sched

import (
	"container/list"
	"encoding/json"
	"hash/crc32"

	"gpucmp/internal/bench"
)

// Encoded is a completed benchmark job as the scheduler caches it and hands
// it out: the result and the bytes that are served for it. Both may be
// shared with other callers and with the cache: treat them as immutable.
type Encoded struct {
	Result *bench.Result
	// JSON is json.Marshal(Result): the value of the "result" member of
	// the POST /run reply, which embeds these bytes unchanged.
	JSON []byte
}

// Encode renders res the way a cache entry holds it: byte for byte
// json.Marshal(res). It fails when encoding/json cannot represent the
// result (a NaN or infinite value).
//
// Most of a result's bytes are its kernel reports, which depend only on the
// kernels (bench.KernelReport.Source). Encode marshals the rest of the
// result, whose last member would be "kernels", then splices in each
// report's compact encoding, made once per kernel and kept on the kernel.
func Encode(res *bench.Result) (*Encoded, error) {
	head := *res
	head.Kernels = nil
	b, err := json.Marshal(&head)
	if err != nil {
		return nil, err
	}
	if len(res.Kernels) == 0 {
		return &Encoded{Result: res, JSON: b}, nil
	}
	const openKernels, closeResult = `,"kernels":[`, "]}"
	b = b[:len(b)-1] // the head's closing brace
	reports := make([][]byte, len(res.Kernels))
	n := len(b) + len(openKernels) + len(closeResult) + len(reports) - 1
	for i := range res.Kernels {
		if reports[i], err = reportJSON(&res.Kernels[i]); err != nil {
			return nil, err
		}
		n += len(reports[i])
	}
	out := make([]byte, 0, n)
	out = append(out, b...)
	out = append(out, openKernels...)
	for i, r := range reports {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, r...)
	}
	out = append(out, closeResult...)
	return &Encoded{Result: res, JSON: out}, nil
}

// reportKey is the ptx.Kernel.Memo key of a kernel report's encoding.
type reportKey struct{}

// reportJSON encodes one kernel report, once per source kernel.
func reportJSON(r *bench.KernelReport) ([]byte, error) {
	pk := r.Source()
	if pk == nil {
		return json.Marshal(r)
	}
	v := pk.Memo(reportKey{}, func() any {
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		return b
	})
	if err, ok := v.(error); ok {
		return nil, err
	}
	return v.([]byte), nil
}

// lruCache is a plain LRU over completed results, guarded by the
// scheduler's mutex (it has no locking of its own).
type lruCache struct {
	cap   int
	order *list.List // front = most recently used; values are *entry
	byKey map[string]*list.Element
}

// entry is what every result cache (main, stale, per-tenant) holds: the
// value handed to callers, the encoding made of it once when its execution
// completed, and a checksum of that encoding. For benchmark jobs val is an
// *Encoded whose JSON is enc, so the checksum covers the very bytes a
// client receives. An entry is never modified after it is stored — a key is
// updated by swapping in a new entry — so a reader may verify one it
// fetched under the scheduler's mutex after releasing the mutex.
type entry struct {
	key string
	val any
	enc []byte
	sum uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func newEntry(key string, val any, enc []byte) *entry {
	return &entry{key: key, val: val, enc: enc, sum: crc32.Checksum(enc, castagnoli)}
}

// intact reports whether the stored encoding still matches its checksum.
func (e *entry) intact() bool { return crc32.Checksum(e.enc, castagnoli) == e.sum }

// corruptFlip is XORed into a stored checksum by the fault injector's
// corrupt-cache fault, guaranteeing a mismatch on the next read.
const corruptFlip = 0xdeadbeef

// corrupted returns a copy of e whose checksum cannot match. The value and
// its encoding stay shared and untouched, so callers already holding them
// are unaffected.
func (e *entry) corrupted() *entry {
	c := *e
	c.sum ^= corruptFlip
	return &c
}

func newLRU(capacity int) *lruCache {
	return &lruCache{cap: capacity, order: list.New(), byKey: make(map[string]*list.Element)}
}

// get returns key's entry, or nil. A nil cache holds nothing.
func (c *lruCache) get(key string) *entry {
	if c == nil {
		return nil
	}
	el, ok := c.byKey[key]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry)
}

func (c *lruCache) add(e *entry) {
	if el, ok := c.byKey[e.key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	c.byKey[e.key] = c.order.PushFront(e)
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.byKey, last.Value.(*entry).key)
	}
}

// remove drops e if it is still what the cache holds under its key, and
// reports whether it did.
func (c *lruCache) remove(e *entry) bool {
	el, ok := c.byKey[e.key]
	if !ok || el.Value.(*entry) != e {
		return false
	}
	c.order.Remove(el)
	delete(c.byKey, e.key)
	return true
}

func (c *lruCache) len() int { return c.order.Len() }
