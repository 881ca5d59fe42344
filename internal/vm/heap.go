package vm

import (
	"fmt"
	"math/bits"

	"artemis/internal/lang/ast"
)

// Array is one heap-allocated array object. Data carries one extra
// trailing canary word that the GC verifies during sweep; a JIT bug
// that emits an out-of-bounds store corrupts the canary and surfaces
// as a crash inside the garbage collector — the failure mode the paper
// reports as dominant for OpenJ9 (Table 2).
type Array struct {
	Elem   ast.Kind
	Data   []int64 // length Len+1; Data[Len] is the canary
	marked bool
}

// Len returns the program-visible array length.
func (a *Array) Len() int64 { return int64(len(a.Data) - 1) }

func canaryFor(handle int64) int64 { return 0x5ca1ab1e ^ handle }

// Heap is a non-moving mark-sweep heap of arrays. Handles are opaque
// positive int64 values (index+1) and are never compacted, so the
// conservative root scan used for compiled frames is safe.
type Heap struct {
	objects    []*Array
	free       []int
	limitWords int64
	usedWords  int64
	peakWords  int64 // high-water mark of usedWords
	allocs     int64 // allocations since last GC

	// Collections counts garbage collections.
	Collections int64

	// pool, when non-nil, recycles Data backing slices (bucketed by
	// power-of-two capacity) and Array headers across frees and runs.
	// Recycled memory is fully re-zeroed on reuse, so a pooled heap is
	// observably identical to a fresh one. Enabled for Scratch-owned
	// heaps (campaign workers); plain NewHeap heaps never pool.
	pool *heapPool
}

// heapPool holds retired allocations for reuse.
type heapPool struct {
	data [48][][]int64 // bucket i holds slices with cap == 1<<i
	arrs []*Array
}

// poolClass returns the bucket index for an allocation of need words:
// the smallest c with 1<<c >= need.
func poolClass(need int64) int {
	return bits.Len64(uint64(need - 1))
}

func (h *Heap) enablePool() {
	if h.pool == nil {
		h.pool = &heapPool{}
	}
}

// allocData returns a zeroed data slice of length need, recycling from
// the pool when possible.
func (h *Heap) allocData(need int64) []int64 {
	if h.pool != nil {
		c := poolClass(need)
		if l := h.pool.data[c]; len(l) > 0 {
			d := l[len(l)-1][:need]
			h.pool.data[c] = l[:len(l)-1]
			clear(d)
			return d
		}
		return make([]int64, need, int64(1)<<c)
	}
	return make([]int64, need)
}

// retire returns a freed object's memory to the pool.
func (h *Heap) retire(a *Array) {
	if h.pool == nil {
		return
	}
	if c := cap(a.Data); c > 0 && c&(c-1) == 0 {
		h.pool.data[poolClass(int64(c))] = append(h.pool.data[poolClass(int64(c))], a.Data[:0])
	}
	a.Data = nil
	h.pool.arrs = append(h.pool.arrs, a)
}

// Reset empties the heap for a fresh run, retiring every object's
// backing memory into the pool and zeroing all accounting, so the heap
// behaves exactly like NewHeap(limitWords) from the program's point of
// view.
func (h *Heap) Reset(limitWords int64) {
	for i, o := range h.objects {
		if o != nil {
			h.retire(o)
			h.objects[i] = nil
		}
	}
	h.objects = h.objects[:0]
	h.free = h.free[:0]
	h.limitWords = limitWords
	h.usedWords = 0
	h.peakWords = 0
	h.allocs = 0
	h.Collections = 0
}

// NewHeap returns a heap limited to limitWords payload words
// (1 word = 8 bytes; the paper's setup uses a 1 GiB Java heap, the
// default here is far smaller since test programs are tiny).
func NewHeap(limitWords int64) *Heap {
	return &Heap{limitWords: limitWords}
}

// PeakWords returns the allocation high-water mark in payload words.
func (h *Heap) PeakWords() int64 { return h.peakWords }

// AllocsSinceGC returns allocations since the last collection.
func (h *Heap) AllocsSinceGC() int64 { return h.allocs }

// Alloc creates a new array and returns its handle. The caller is
// responsible for triggering GC / OOM policy; Alloc only tracks
// accounting.
func (h *Heap) Alloc(elem ast.Kind, n int64) int64 {
	var a *Array
	if h.pool != nil && len(h.pool.arrs) > 0 {
		a = h.pool.arrs[len(h.pool.arrs)-1]
		h.pool.arrs = h.pool.arrs[:len(h.pool.arrs)-1]
		*a = Array{Elem: elem, Data: h.allocData(n + 1)}
	} else {
		a = &Array{Elem: elem, Data: h.allocData(n + 1)}
	}
	var idx int
	if len(h.free) > 0 {
		idx = h.free[len(h.free)-1]
		h.free = h.free[:len(h.free)-1]
		h.objects[idx] = a
	} else {
		idx = len(h.objects)
		h.objects = append(h.objects, a)
	}
	handle := int64(idx + 1)
	a.Data[n] = canaryFor(handle)
	h.usedWords += n + 1
	if h.usedWords > h.peakWords {
		h.peakWords = h.usedWords
	}
	h.allocs++
	return handle
}

// WouldExceed reports whether allocating n more words would exceed the
// heap limit.
func (h *Heap) WouldExceed(n int64) bool {
	return h.usedWords+n+1 > h.limitWords
}

// Get returns the array for a handle, or nil for invalid/freed handles.
func (h *Heap) Get(handle int64) *Array {
	idx := handle - 1
	if idx < 0 || idx >= int64(len(h.objects)) {
		return nil
	}
	return h.objects[idx]
}

// CorruptionError is returned by Collect when heap verification fails;
// the VM reports it as a crash attributed to the garbage collector.
type CorruptionError struct {
	Handle int64
	Detail string
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("GC: heap corruption detected on object %d: %s", e.Handle, e.Detail)
}

// Collect runs a stop-the-world mark-sweep collection. roots must call
// the yield function for every potential root value; non-handle values
// are ignored (conservative scanning). During sweep every live object's
// canary is verified, modeling the crash-in-GC symptom of heap
// corruption by miscompiled code.
func (h *Heap) Collect(roots func(yield func(v int64))) error {
	for _, o := range h.objects {
		if o != nil {
			o.marked = false
		}
	}
	roots(func(v int64) {
		if a := h.Get(v); a != nil {
			a.marked = true
		}
	})
	var corrupt *CorruptionError
	for i, o := range h.objects {
		if o == nil {
			continue
		}
		handle := int64(i + 1)
		n := int64(len(o.Data) - 1)
		if o.Data[n] != canaryFor(handle) {
			if corrupt == nil {
				corrupt = &CorruptionError{Handle: handle,
					Detail: fmt.Sprintf("canary %#x != %#x", o.Data[n], canaryFor(handle))}
			}
			continue // keep the object; the VM is about to crash anyway
		}
		if !o.marked {
			h.objects[i] = nil
			h.free = append(h.free, i)
			h.usedWords -= n + 1
			h.retire(o)
		}
	}
	h.allocs = 0
	h.Collections++
	if corrupt != nil {
		return corrupt
	}
	return nil
}
