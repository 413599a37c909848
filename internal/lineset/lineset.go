// Package lineset provides open-addressed hash containers specialized
// for the simulator's hot transactional metadata: sets of cache-line
// addresses (HTM read/write sets), the global conflict directory, and
// the STM write-log and lock-ownership indexes.
//
// Compared to Go's built-in map these containers
//
//   - probe linearly through a flat power-of-two slot array (one
//     multiply-shift hash, no bucket chains, no interface indirection),
//   - clear in O(1) by bumping a table-wide epoch instead of deleting
//     every key (transactions clear their sets on every commit/abort,
//     so clear is as hot as insert),
//   - delete with backward-shift compaction, so probe chains stay
//     tombstone-free and lookups stop at the first empty slot, and
//   - never allocate at steady state: capacity persists across Clear,
//     so a transaction that fits in the high-water mark allocates
//     nothing.
//
// Table.Range visits slots in table order, which is a deterministic
// function of the insertion/deletion history — unlike Go map ranges
// there is no per-process randomization — and costs O(capacity).
// Set.Range visits keys in insertion order from the set's own key log
// and costs O(live keys), so clearing a large-capacity read set after a
// short transaction stays cheap.
//
// Payload values are stored inline and are expected to be plain old
// data: Clear does not zero dead slots, so pointer-bearing payloads
// would keep their referents live until overwritten.
package lineset

// slot is one table entry. A slot is live iff its epoch equals the
// table's current epoch; Clear bumps the table epoch, killing every
// slot at once. Epoch 0 is reserved as "never used / deleted".
type slot[V any] struct {
	key   uint64
	epoch uint64
	val   V
}

// Table is an open-addressed hash table from uint64 keys to inline V
// payloads with linear probing and O(1) Clear.
//
// The zero Table is not ready for use; construct with NewTable.
type Table[V any] struct {
	slots []slot[V]
	mask  uint64
	shift uint
	epoch uint64
	n     int
	limit int // live entries beyond which the table doubles
}

const minBits = 4 // smallest table: 16 slots

// NewTable returns a table pre-sized to hold hint entries without
// growing. hint <= 0 yields the minimum size.
func NewTable[V any](hint int) *Table[V] {
	t := &Table[V]{}
	bits := minBits
	for (1<<bits)*3/4 < hint {
		bits++
	}
	t.reset(bits)
	return t
}

// reset (re)initializes the table to 1<<bits empty slots.
func (t *Table[V]) reset(bits int) {
	size := 1 << uint(bits)
	t.slots = make([]slot[V], size)
	t.mask = uint64(size - 1)
	t.shift = 64 - uint(bits)
	t.epoch = 1
	t.n = 0
	t.limit = size * 3 / 4
}

// home is the preferred slot for key k (Fibonacci multiplicative hash:
// line and lock addresses are low-entropy in their low bits, and the
// golden-ratio multiply spreads sequential keys across the table).
//
//rtm:hot
func (t *Table[V]) home(k uint64) uint64 {
	return (k * 0x9e3779b97f4a7c15) >> t.shift
}

// find returns the slot index holding k, or -1. Probe chains are
// contiguous (backward-shift deletion leaves no tombstones), so the
// scan stops at the first dead slot.
//
//rtm:hot
func (t *Table[V]) find(k uint64) int {
	i := t.home(k)
	for {
		s := &t.slots[i]
		if s.epoch != t.epoch {
			return -1
		}
		if s.key == k {
			return int(i)
		}
		i = (i + 1) & t.mask
	}
}

// Len returns the number of live entries.
//
//rtm:hot
func (t *Table[V]) Len() int { return t.n }

// Contains reports whether k is present.
//
//rtm:hot
func (t *Table[V]) Contains(k uint64) bool { return t.find(k) >= 0 }

// Get returns the payload for k and whether it is present.
//
//rtm:hot
func (t *Table[V]) Get(k uint64) (V, bool) {
	if i := t.find(k); i >= 0 {
		return t.slots[i].val, true
	}
	var zero V
	return zero, false
}

// Ref returns a pointer to k's payload, or nil if absent. The pointer
// is invalidated by any subsequent insert, delete or clear.
//
//rtm:hot
func (t *Table[V]) Ref(k uint64) *V {
	if i := t.find(k); i >= 0 {
		return &t.slots[i].val
	}
	return nil
}

// Upsert returns a pointer to k's payload, inserting a zero-valued
// entry if absent, and reports whether it inserted. The pointer is
// invalidated by any subsequent insert, delete or clear.
//
//rtm:hot
func (t *Table[V]) Upsert(k uint64) (*V, bool) {
	if t.n >= t.limit {
		t.grow()
	}
	i := t.home(k)
	for {
		s := &t.slots[i]
		if s.epoch != t.epoch {
			var zero V
			s.key, s.epoch, s.val = k, t.epoch, zero
			t.n++
			return &s.val, true
		}
		if s.key == k {
			return &s.val, false
		}
		i = (i + 1) & t.mask
	}
}

// Put sets k's payload to v, inserting if absent.
//
//rtm:hot
func (t *Table[V]) Put(k uint64, v V) {
	p, _ := t.Upsert(k)
	*p = v
}

// Delete removes k, compacting its probe chain by backward shift, and
// reports whether it was present.
//
//rtm:hot
func (t *Table[V]) Delete(k uint64) bool {
	i := t.find(k)
	if i < 0 {
		return false
	}
	t.n--
	hole := uint64(i)
	j := hole
	for {
		j = (j + 1) & t.mask
		s := &t.slots[j]
		if s.epoch != t.epoch {
			break
		}
		// s may fill the hole only if the hole is not cyclically before
		// its home slot — otherwise a later find would stop early.
		if ((j - t.home(s.key)) & t.mask) >= ((j - hole) & t.mask) {
			t.slots[hole] = *s
			hole = j
		}
	}
	var zero V
	t.slots[hole].epoch = 0
	t.slots[hole].val = zero
	return true
}

// Clear empties the table in O(1), keeping its capacity.
//
//rtm:hot
func (t *Table[V]) Clear() {
	t.epoch++
	t.n = 0
}

// Range calls f for each live entry in table order until f returns
// false. The payload pointer is valid for the duration of the call.
// The table must not be inserted into, deleted from or cleared during
// the iteration (payload mutation through the pointer is fine).
func (t *Table[V]) Range(f func(k uint64, v *V) bool) {
	for i := range t.slots {
		s := &t.slots[i]
		if s.epoch == t.epoch && !f(s.key, &s.val) {
			return
		}
	}
}

// grow doubles the slot array and reinserts every live entry.
func (t *Table[V]) grow() {
	old := t.slots
	oldEpoch := t.epoch
	bits := minBits
	for 1<<uint(bits) <= len(old) {
		bits++
	}
	t.reset(bits)
	for i := range old {
		if old[i].epoch == oldEpoch {
			p, _ := t.Upsert(old[i].key)
			*p = old[i].val
		}
	}
}

// Set is an open-addressed set of uint64 keys with O(1) Clear — a
// Table with no payload, plus an insertion-ordered key log so that Range
// costs O(live keys) rather than O(capacity). Keys are never removed
// individually, so the log and the table always hold the same keys.
type Set struct {
	t    Table[struct{}]
	keys []uint64
}

// NewSet returns a set pre-sized to hold hint keys without growing.
func NewSet(hint int) *Set {
	s := &Set{}
	bits := minBits
	for (1<<bits)*3/4 < hint {
		bits++
	}
	s.t.reset(bits)
	return s
}

// Len returns the number of keys.
//
//rtm:hot
func (s *Set) Len() int { return len(s.keys) }

// Contains reports whether k is in the set.
//
//rtm:hot
func (s *Set) Contains(k uint64) bool { return s.t.find(k) >= 0 }

// Add inserts k and reports whether it was newly added.
//
//rtm:hot
func (s *Set) Add(k uint64) bool {
	_, added := s.t.Upsert(k)
	if added {
		s.keys = append(s.keys, k)
	}
	return added
}

// Clear empties the set in O(1), keeping its capacity.
//
//rtm:hot
func (s *Set) Clear() {
	s.t.Clear()
	s.keys = s.keys[:0]
}

// Range calls f for each key in insertion order until f returns false.
// The set must not be mutated during the iteration.
func (s *Set) Range(f func(k uint64) bool) {
	for _, k := range s.keys {
		if !f(k) {
			return
		}
	}
}
