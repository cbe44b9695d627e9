package sim

import "math/bits"

// BufferPool recycles payload byte slices through size-classed free lists.
// It is the allocation backbone of the zero-copy message pipeline: the
// superstep engine draws delivery buffers from a pool instead of the heap,
// and per-processor contexts draw send-side scratch from their own pools,
// so steady-state per-message allocation drops to zero once the working set
// has been populated.
//
// The pool is deliberately NOT sync.Pool: sync.Pool's per-P caches and
// GC-driven eviction make buffer identity (and therefore allocation counts
// and GC pressure) depend on goroutine scheduling. BufferPool is a plain
// LIFO free list per size class - fully deterministic, zero locking - and
// each owner (engine, context, router) keeps its own instance, so no pool
// is ever shared across goroutines.
//
// Ownership contract: a buffer obtained from Get is owned by the caller
// until it is passed to Put, after which the caller must not touch it.
// Buffers carry no header; Put routes them back by capacity, so slicing a
// pooled buffer is fine as long as the original capacity is preserved when
// it is returned (Put uses cap, not len). Buffers whose capacity is not an
// exact class size (e.g. foreign slices) are dropped for the GC rather
// than pooled.
type BufferPool struct {
	classes [poolClasses][][]byte
	// Hits and Misses count Get calls served from a free list versus from
	// the heap; exposed for tests and diagnostics only.
	Hits, Misses int
}

// Size classes are powers of two from 1<<minClassShift bytes upward. The
// top class (1<<maxClassShift) covers the largest payloads the experiments
// produce (whole matrix slabs); larger requests bypass the pool entirely.
const (
	minClassShift = 4 // 16-byte minimum keeps tiny one-word payloads dense
	maxClassShift = 26
	poolClasses   = maxClassShift - minClassShift + 1
)

// classFor returns the class index whose buffers hold n bytes, or -1 when n
// is too large to pool.
func classFor(n int) int {
	if n <= 1<<minClassShift {
		return 0
	}
	c := bits.Len(uint(n-1)) - minClassShift
	if c >= poolClasses {
		return -1
	}
	return c
}

// Get returns a zeroed buffer of length n. The buffer comes from the free
// list of n's size class when one is available and from the heap otherwise.
func (p *BufferPool) Get(n int) []byte {
	c := classFor(n)
	if c < 0 {
		p.Misses++
		return make([]byte, n)
	}
	if list := p.classes[c]; len(list) > 0 {
		b := list[len(list)-1]
		list[len(list)-1] = nil
		p.classes[c] = list[:len(list)-1]
		p.Hits++
		b = b[:n]
		clear(b)
		return b
	}
	p.Misses++
	return make([]byte, n, 1<<(c+minClassShift))
}

// GetNoClear is Get without the zeroing pass, for callers that overwrite
// every byte (payload copies).
func (p *BufferPool) GetNoClear(n int) []byte {
	c := classFor(n)
	if c < 0 {
		p.Misses++
		return make([]byte, n)
	}
	if list := p.classes[c]; len(list) > 0 {
		b := list[len(list)-1]
		list[len(list)-1] = nil
		p.classes[c] = list[:len(list)-1]
		p.Hits++
		return b[:n]
	}
	p.Misses++
	return make([]byte, n, 1<<(c+minClassShift))
}

// Put returns a buffer to its size class. Buffers whose capacity is not an
// exact class size are dropped (they did not come from this pool's heap
// path). Put(nil) is a no-op.
func (p *BufferPool) Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	c := classFor(cap(b))
	if c < 0 || cap(b) != 1<<(c+minClassShift) {
		return
	}
	p.classes[c] = append(p.classes[c], b[:cap(b)])
}
