// Package vm models the slice of virtual-memory behaviour that matters to
// RTM: whether a page has ever been touched. The first access to a fresh
// page raises a minor page fault; inside a hardware transaction the fault
// cannot be serviced, so the transaction aborts (MISC3 in the paper's
// taxonomy), the fault is serviced on the non-transactional path, and the
// retry succeeds. STAMP's thread-local allocator optimization (§V-B of the
// paper) maps to pre-touching pages at allocation time.
package vm

import "rtmlab/internal/arch"

// DefaultFaultCycles is the cost of servicing a minor page fault.
const DefaultFaultCycles = 1500

// CycleSink receives the cost of servicing a fault (implemented by
// sim.Proc).
type CycleSink interface {
	AddCycles(n uint64)
}

// PageTable tracks which pages are resident. Every page is resident
// except those marked fresh; fresh pages are bits in a bitmap that spans
// the pages ever marked fresh (alloc.Heap grows contiguously from
// alloc.HeapBase, so the span is dense), and any page outside the bitmap
// is resident. The zero value is not usable; use NewPageTable.
type PageTable struct {
	fresh  []uint64 // bit i of word w: page first+64*w+i is fresh
	first  uint64   // first page the bitmap covers (a multiple of 64)
	nfresh int

	FaultCycles uint64

	// Faults counts serviced minor faults.
	Faults uint64
}

// NewPageTable returns a page table where every page is initially
// resident except those explicitly marked fresh (so only allocator-grown
// memory faults, like a warmed-up process image).
func NewPageTable() *PageTable {
	return &PageTable{FaultCycles: DefaultFaultCycles}
}

func pageOf(addr uint64) uint64 { return addr / arch.PageSize }

// bit locates the page holding addr in the bitmap. mask is 0 when the
// page lies outside it (and so is resident).
func (pt *PageTable) bit(addr uint64) (word uint64, mask uint64) {
	i := pageOf(addr) - pt.first // wraps to a huge value below first
	if i >= uint64(len(pt.fresh))*64 {
		return 0, 0
	}
	return i / 64, 1 << (i % 64)
}

// claim makes the page holding addr resident and reports whether it was
// fresh.
func (pt *PageTable) claim(addr uint64) bool {
	w, m := pt.bit(addr)
	if m == 0 || pt.fresh[w]&m == 0 {
		return false
	}
	pt.fresh[w] &^= m
	pt.nfresh--
	return true
}

// Touched reports whether the page holding addr is resident.
func (pt *PageTable) Touched(addr uint64) bool {
	w, m := pt.bit(addr)
	return m == 0 || pt.fresh[w]&m == 0
}

// Touch makes the page holding addr resident.
func (pt *PageTable) Touch(addr uint64) {
	if pt.claim(addr) {
		pt.Faults++
	}
}

// MarkFresh marks the byte range [base, base+size) as untouched (newly
// mapped). The allocator calls this when it grows the heap.
func (pt *PageTable) MarkFresh(base, size uint64) {
	lo, hi := pageOf(base), pageOf(base+size-1)
	if hi < lo { // size 0 at a page boundary
		return
	}
	pt.cover(lo, hi)
	for pg := lo; pg <= hi; pg++ {
		i := pg - pt.first
		if m := uint64(1) << (i % 64); pt.fresh[i/64]&m == 0 {
			pt.fresh[i/64] |= m
			pt.nfresh++
		}
	}
}

// cover extends the bitmap to span pages [lo, hi].
func (pt *PageTable) cover(lo, hi uint64) {
	lo &^= 63
	if len(pt.fresh) == 0 {
		pt.first = lo
	}
	if lo < pt.first {
		pre := make([]uint64, (pt.first-lo)/64, (pt.first-lo)/64+uint64(len(pt.fresh)))
		pt.fresh = append(pre, pt.fresh...)
		pt.first = lo
	}
	if need := int((hi-pt.first)/64) + 1; need > len(pt.fresh) {
		pt.fresh = append(pt.fresh, make([]uint64, need-len(pt.fresh))...)
	}
}

// Service handles a potential fault at addr on the non-transactional path:
// if the page is fresh the fault cost is charged to sink and the page
// becomes resident.
func (pt *PageTable) Service(sink CycleSink, addr uint64) {
	if pt.claim(addr) {
		pt.Faults++
		if sink != nil {
			sink.AddCycles(pt.FaultCycles)
		}
	}
}

// FreshPages returns the number of currently fresh (untouched) pages.
func (pt *PageTable) FreshPages() int { return pt.nfresh }
