package lineset

import (
	"math/rand"
	"slices"
	"testing"
)

func TestTableBasic(t *testing.T) {
	tb := NewTable[int32](0)
	if tb.Len() != 0 || tb.Contains(0) {
		t.Fatal("new table not empty")
	}
	tb.Put(0, 10) // key 0 must be a valid key
	tb.Put(7, 70)
	tb.Put(1<<40, 40)
	if v, ok := tb.Get(0); !ok || v != 10 {
		t.Fatalf("Get(0) = %v, %v", v, ok)
	}
	if v, ok := tb.Get(1 << 40); !ok || v != 40 {
		t.Fatalf("Get(1<<40) = %v, %v", v, ok)
	}
	if _, ok := tb.Get(3); ok {
		t.Fatal("Get(3) found phantom key")
	}
	if tb.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tb.Len())
	}
	p, inserted := tb.Upsert(7)
	if inserted || *p != 70 {
		t.Fatalf("Upsert(7) = %d, %v", *p, inserted)
	}
	*p = 71
	if v, _ := tb.Get(7); v != 71 {
		t.Fatal("payload mutation through Upsert pointer lost")
	}
	if !tb.Delete(7) || tb.Delete(7) {
		t.Fatal("Delete(7) wrong result")
	}
	if tb.Contains(7) || tb.Len() != 2 {
		t.Fatal("key 7 still visible after delete")
	}
	tb.Clear()
	if tb.Len() != 0 || tb.Contains(0) || tb.Contains(1<<40) {
		t.Fatal("keys visible after Clear")
	}
	// Slots from before the clear must be reusable.
	tb.Put(0, 1)
	if v, ok := tb.Get(0); !ok || v != 1 {
		t.Fatal("reinsert after Clear failed")
	}
}

func TestSetBasic(t *testing.T) {
	s := NewSet(0)
	if !s.Add(5) || s.Add(5) {
		t.Fatal("Add reported wrong newness")
	}
	s.Add(0)
	if !s.Contains(0) || !s.Contains(5) || s.Contains(6) {
		t.Fatal("membership wrong")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	var got []uint64
	s.Range(func(k uint64) bool { got = append(got, k); return true })
	if len(got) != 2 || got[0] != 5 || got[1] != 0 {
		t.Fatalf("Range visited %v, want [5 0] (insertion order)", got)
	}
	s.Clear()
	if s.Len() != 0 || s.Contains(0) {
		t.Fatal("set not empty after Clear")
	}
}

// TestCollisionChainDelete exercises backward-shift deletion on a probe
// chain of keys sharing one home slot: deleting the head must keep the
// tail reachable.
func TestCollisionChainDelete(t *testing.T) {
	tb := NewTable[uint64](0)
	target := tb.home(1)
	var chain []uint64
	for k := uint64(1); len(chain) < 5; k++ {
		if tb.home(k) == target {
			chain = append(chain, k)
		}
	}
	for _, k := range chain {
		tb.Put(k, k*10)
	}
	for i, k := range chain {
		if !tb.Delete(k) {
			t.Fatalf("Delete(%d) failed", k)
		}
		for _, rest := range chain[i+1:] {
			if v, ok := tb.Get(rest); !ok || v != rest*10 {
				t.Fatalf("after deleting %d, key %d unreachable", k, rest)
			}
		}
	}
}

// TestGrowPreservesEntries fills well past several doublings.
func TestGrowPreservesEntries(t *testing.T) {
	tb := NewTable[uint64](0)
	const n = 10_000
	for i := uint64(0); i < n; i++ {
		tb.Put(i*64, i)
	}
	if tb.Len() != n {
		t.Fatalf("Len = %d, want %d", tb.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := tb.Get(i * 64); !ok || v != i {
			t.Fatalf("Get(%d) = %v, %v after grow", i*64, v, ok)
		}
	}
}

// applyOps drives a Table and a reference map through one operation
// sequence, failing on any divergence. Each op is three bytes:
// opcode, key selector, value. A Set shadows the table's inserts and
// clears against an insertion-ordered reference log, so its Range order
// and Len are checked across Clear and growth too.
func applyOps(t *testing.T, ops []byte) {
	t.Helper()
	tb := NewTable[uint64](0)
	ref := map[uint64]uint64{}
	set := NewSet(0)
	var setRef []uint64 // keys in first-insertion order since the last clear
	setAdd := func(k uint64) {
		if added := set.Add(k); added != !slices.Contains(setRef, k) {
			t.Fatalf("Set.Add(%d) added=%v, reference log %v", k, added, setRef)
		}
		if !slices.Contains(setRef, k) {
			setRef = append(setRef, k)
		}
	}
	// A small key universe forces collisions, repeats and delete/reuse.
	key := func(b byte) uint64 { return uint64(b%31) * 64 }
	for len(ops) >= 3 {
		op, kb, vb := ops[0], ops[1], ops[2]
		ops = ops[3:]
		k, v := key(kb), uint64(vb)
		switch op % 5 {
		case 0: // insert/update
			tb.Put(k, v)
			ref[k] = v
			setAdd(k)
		case 1: // lookup
			gv, gok := tb.Get(k)
			rv, rok := ref[k]
			if gok != rok || (gok && gv != rv) {
				t.Fatalf("Get(%d) = (%d,%v), reference (%d,%v)", k, gv, gok, rv, rok)
			}
		case 2: // delete
			if got, want := tb.Delete(k), false; true {
				_, want = ref[k]
				delete(ref, k)
				if got != want {
					t.Fatalf("Delete(%d) = %v, reference %v", k, got, want)
				}
			}
		case 3: // clear
			checkSetRange(t, set, setRef)
			tb.Clear()
			ref = map[uint64]uint64{}
			set.Clear()
			setRef = setRef[:0]
		case 4: // upsert + mutate through the pointer
			p, inserted := tb.Upsert(k)
			_, present := ref[k]
			if inserted == present {
				t.Fatalf("Upsert(%d) inserted=%v, reference present=%v", k, inserted, present)
			}
			*p = v
			ref[k] = v
			setAdd(k)
		}
		if tb.Len() != len(ref) {
			t.Fatalf("Len = %d, reference %d", tb.Len(), len(ref))
		}
		if set.Len() != len(setRef) {
			t.Fatalf("Set.Len = %d, reference %d", set.Len(), len(setRef))
		}
	}
	checkSetRange(t, set, setRef)
	// Final full cross-check, both directions.
	for k, rv := range ref {
		if gv, ok := tb.Get(k); !ok || gv != rv {
			t.Fatalf("final Get(%d) = (%d,%v), reference %d", k, gv, ok, rv)
		}
	}
	n := 0
	tb.Range(func(k uint64, v *uint64) bool {
		n++
		if rv, ok := ref[k]; !ok || rv != *v {
			t.Fatalf("Range visited (%d,%d) not in reference", k, *v)
		}
		return true
	})
	if n != len(ref) {
		t.Fatalf("Range visited %d entries, reference has %d", n, len(ref))
	}
}

// checkSetRange requires s.Range to visit exactly want, in order, and
// to stop when f returns false.
func checkSetRange(t *testing.T, s *Set, want []uint64) {
	t.Helper()
	var got []uint64
	s.Range(func(k uint64) bool { got = append(got, k); return true })
	if !slices.Equal(got, want) {
		t.Fatalf("Set.Range visited %v, want %v", got, want)
	}
	if len(want) > 1 {
		n := 0
		s.Range(func(uint64) bool { n++; return false })
		if n != 1 {
			t.Fatalf("Set.Range continued after f returned false (%d calls)", n)
		}
	}
}

// TestDifferentialRandom is the seeded property test: long random
// operation sequences against the map reference model.
func TestDifferentialRandom(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		ops := make([]byte, 3*2000)
		r.Read(ops)
		applyOps(t, ops)
	}
}

// FuzzTableVsMap lets the fuzzer search for divergent op sequences.
func FuzzTableVsMap(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 1, 0, 2, 1, 0, 3, 0, 0, 4, 5, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*4096 {
			ops = ops[:3*4096]
		}
		applyOps(t, ops)
	})
}

// TestSteadyStateZeroAlloc asserts the core contract: once capacity is
// established, fill/clear cycles allocate nothing.
func TestSteadyStateZeroAlloc(t *testing.T) {
	s := NewSet(0)
	tb := NewTable[int32](0)
	cycle := func() {
		for i := uint64(0); i < 200; i++ {
			s.Add(i * 64)
			tb.Put(i*64, int32(i))
		}
		s.Clear()
		tb.Clear()
	}
	cycle() // establish capacity
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("steady-state fill/clear allocates %v allocs/run", n)
	}
}

// --- benchmarks: lineset vs the built-in map it replaces ---------------

func keys(n int) []uint64 {
	ks := make([]uint64, n)
	for i := range ks {
		ks[i] = uint64(i) * 64
	}
	return ks
}

func BenchmarkSetAddClear(b *testing.B) {
	s := NewSet(64)
	ks := keys(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, k := range ks {
			s.Add(k)
		}
		s.Clear()
	}
}

// BenchmarkSetRangeSparse is an HTM read set's commit-time walk: a set
// sized for 512 lines that holds only 8, ranged and then cleared. Its
// cost tracks the live keys, not the slot capacity.
func BenchmarkSetRangeSparse(b *testing.B) {
	s := NewSet(512)
	ks := keys(8)
	var sum uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, k := range ks {
			s.Add(k)
		}
		s.Range(func(k uint64) bool { sum += k; return true })
		s.Clear()
	}
	if sum == 0 {
		b.Fatal("Range visited nothing")
	}
}

func BenchmarkMapAddClear(b *testing.B) {
	m := make(map[uint64]struct{}, 64)
	ks := keys(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, k := range ks {
			m[k] = struct{}{}
		}
		clear(m)
	}
}

func BenchmarkTableGetHit(b *testing.B) {
	tb := NewTable[int32](1024)
	ks := keys(1024)
	for i, k := range ks {
		tb.Put(k, int32(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Get(ks[i&1023])
	}
}

func BenchmarkMapGetHit(b *testing.B) {
	m := make(map[uint64]int32, 1024)
	ks := keys(1024)
	for i, k := range ks {
		m[k] = int32(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m[ks[i&1023]]
	}
}

func BenchmarkTableGetMiss(b *testing.B) {
	tb := NewTable[int32](1024)
	for _, k := range keys(1024) {
		tb.Put(k, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Get(uint64(i)*64 + 8)
	}
}
