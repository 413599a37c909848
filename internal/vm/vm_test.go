package vm

import (
	"testing"

	"rtmlab/internal/arch"
)

type sink struct{ cycles uint64 }

func (s *sink) AddCycles(n uint64) { s.cycles += n }

func TestFreshPagesFault(t *testing.T) {
	pt := NewPageTable()
	if !pt.Touched(0) {
		t.Fatal("unmapped addresses should be considered resident")
	}
	pt.MarkFresh(0, 3*arch.PageSize)
	if pt.FreshPages() != 3 {
		t.Fatalf("fresh pages = %d, want 3", pt.FreshPages())
	}
	if pt.Touched(arch.PageSize + 8) {
		t.Fatal("fresh page reported touched")
	}
	var s sink
	pt.Service(&s, arch.PageSize)
	if s.cycles != pt.FaultCycles {
		t.Fatalf("fault cost = %d", s.cycles)
	}
	if !pt.Touched(arch.PageSize) {
		t.Fatal("service did not make the page resident")
	}
	if pt.Faults != 1 {
		t.Fatalf("faults = %d", pt.Faults)
	}
	// Second access: no fault.
	pt.Service(&s, arch.PageSize+100)
	if s.cycles != pt.FaultCycles {
		t.Fatal("resident page faulted again")
	}
}

func TestMarkFreshPartialPage(t *testing.T) {
	pt := NewPageTable()
	pt.MarkFresh(arch.PageSize-8, 16) // straddles two pages
	if pt.FreshPages() != 2 {
		t.Fatalf("fresh pages = %d, want 2", pt.FreshPages())
	}
}

func TestTouchIdempotent(t *testing.T) {
	pt := NewPageTable()
	pt.MarkFresh(0, arch.PageSize)
	pt.Touch(8)
	pt.Touch(16)
	if pt.Faults != 1 {
		t.Fatalf("faults = %d, want 1", pt.Faults)
	}
}

func TestServiceNilSink(t *testing.T) {
	pt := NewPageTable()
	pt.MarkFresh(0, arch.PageSize)
	pt.Service(nil, 0) // must not panic
	if pt.FreshPages() != 0 {
		t.Fatal("page not serviced")
	}
}

func TestMarkFreshDisjointRanges(t *testing.T) {
	pt := NewPageTable()
	lo := uint64(100) * arch.PageSize
	hi := uint64(1000) * arch.PageSize // far past lo's bitmap word
	pt.MarkFresh(hi, 2*arch.PageSize)
	pt.MarkFresh(lo, 3*arch.PageSize) // below the first range: re-bases the bitmap
	if pt.FreshPages() != 5 {
		t.Fatalf("fresh pages = %d, want 5", pt.FreshPages())
	}
	for _, a := range []uint64{lo, lo + 2*arch.PageSize, hi, hi + arch.PageSize + 8} {
		if pt.Touched(a) {
			t.Errorf("page at %#x reported resident, want fresh", a)
		}
	}
	for _, a := range []uint64{lo + 3*arch.PageSize, hi - 8, hi + 2*arch.PageSize} {
		if !pt.Touched(a) {
			t.Errorf("page at %#x between or after the ranges reported fresh", a)
		}
	}
	pt.MarkFresh(lo, arch.PageSize)   // re-marking a fresh page is idempotent
	pt.MarkFresh(64*arch.PageSize, 0) // an empty range at the bitmap start marks nothing
	if pt.FreshPages() != 5 {
		t.Fatalf("fresh pages after re-mark = %d, want 5", pt.FreshPages())
	}
}

func TestOutsideBitmapIsResident(t *testing.T) {
	pt := NewPageTable()
	base := uint64(1) << 30
	pt.MarkFresh(base, 4*arch.PageSize)
	for _, a := range []uint64{0, base - 1, base + 4*arch.PageSize, base + 1<<20, ^uint64(0)} {
		if !pt.Touched(a) {
			t.Errorf("address %#x outside the fresh range reported fresh", a)
		}
		var s sink
		pt.Service(&s, a)
		pt.Touch(a)
		if s.cycles != 0 || pt.Faults != 0 {
			t.Fatalf("address %#x outside the fresh range faulted", a)
		}
	}
	if pt.FreshPages() != 4 {
		t.Fatalf("fresh pages = %d, want 4", pt.FreshPages())
	}
}

func TestFreshPagesAfterTouchAndService(t *testing.T) {
	pt := NewPageTable()
	pt.MarkFresh(0, 4*arch.PageSize)
	pt.Touch(arch.PageSize)
	if pt.FreshPages() != 3 {
		t.Fatalf("after Touch: fresh pages = %d, want 3", pt.FreshPages())
	}
	var s sink
	pt.Service(&s, 3*arch.PageSize+64)
	pt.Service(&s, 3*arch.PageSize) // same page: no second fault
	if pt.FreshPages() != 2 || pt.Faults != 2 || s.cycles != pt.FaultCycles {
		t.Fatalf("after Service: fresh pages = %d, faults = %d, cycles = %d",
			pt.FreshPages(), pt.Faults, s.cycles)
	}
	if !pt.Touched(arch.PageSize) || !pt.Touched(3*arch.PageSize) ||
		pt.Touched(0) || pt.Touched(2*arch.PageSize) {
		t.Fatal("residency wrong after Touch and Service")
	}
}

// TestServiceZeroAlloc pins the per-access path: Service and Touched
// allocate nothing on resident or fresh pages.
func TestServiceZeroAlloc(t *testing.T) {
	pt := NewPageTable()
	base := uint64(1) << 30
	pt.MarkFresh(base, 64*arch.PageSize)
	s := &sink{}
	var resident bool
	n := testing.AllocsPerRun(100, func() {
		pt.MarkFresh(base, arch.PageSize) // inside the bitmap: no growth
		resident = pt.Touched(base)       // fresh
		pt.Service(s, base)               // fresh -> fault
		pt.Service(s, base)               // resident, inside the bitmap
		pt.Service(s, 0)                  // resident, outside the bitmap
		resident = pt.Touched(0)
	})
	if n != 0 {
		t.Fatalf("Service/Touched allocate %v allocs/run", n)
	}
	if !resident {
		t.Fatal("address 0 reported fresh")
	}
}
