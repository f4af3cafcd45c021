package sample

import "slices"

// Compare orders stratum keys lexicographically over every slot, signed:
// the one key order behind Stratified's ordered walk and the exact
// group-by's result rows.
func (k StratumKey) Compare(o StratumKey) int {
	for c := range k {
		if k[c] < o[c] {
			return -1
		}
		if k[c] > o[c] {
			return 1
		}
	}
	return 0
}

// KeyIndex maps stratum keys to dense ids 0, 1, 2, … assigned in first-seen
// order: the key resolution a stratified sample and the exact group-by
// share. Callers keep what belongs to a key in slices indexed by its id, so
// a walk over the strata reads those slices in order with no lookup.
//
// It is an open-addressing table with linear probing. slots holds id+1, 0
// for an empty slot; its length is a power of two kept at least twice the
// number of keys (load ≤ ½), so a probe ends after about 1.5 slots on a hit
// and 2.5 on a miss. A key is hashed and compared over its first width
// words only — the used QCS columns — and stored as those words alone, id
// after id: 8 bytes a key on a one-column QCS, so the keys of thousands of
// strata stay cache-resident beside the slots. The zero value is not
// usable; see NewKeyIndex.
//
// A KeyIndex is not safe for concurrent writes; concurrent Finds on an index
// nobody writes (a published sample) are.
type KeyIndex struct {
	width int
	shift uint // 64 - log2(len(slots)): a hash's high bits index the slots
	n     int32
	slots []int32
	keys  []int64 // id-major: key id is keys[id*width : (id+1)*width]
}

// keyIndexMinSlots is the table size of an empty index: room for four keys
// at load ½, which covers the single-stratum and few-strata samples without
// a resize.
const keyIndexMinSlots = 8

// NewKeyIndex returns an empty index over keys of the given width (number of
// leading StratumKey words that identify a key, 0 to MaxQCS).
func NewKeyIndex(width int) KeyIndex { return newKeyIndex(width, 0) }

// newKeyIndex returns an empty index with room for n keys before it grows.
func newKeyIndex(width, n int) KeyIndex {
	slots, shift := keyIndexMinSlots, uint(64-3)
	for slots < 2*n {
		slots, shift = 2*slots, shift-1
	}
	return KeyIndex{width: width, shift: shift, slots: make([]int32, slots), keys: make([]int64, 0, n*width)}
}

// Len returns the number of keys, which is also the next id.
func (x *KeyIndex) Len() int { return int(x.n) }

// Key returns the key of id, zero beyond the index's width.
func (x *KeyIndex) Key(id int32) StratumKey {
	var k StratumKey
	copy(k[:x.width], x.keys[int(id)*x.width:])
	return k
}

// hash is a multiply–xorshift over the key's used words; its high bits pick
// the slot. The multiply carries every input bit into the high half, the
// xorshift carries the high half back down before the next word is mixed in.
func (x *KeyIndex) hash(key *StratumKey) uint64 {
	h := uint64(0)
	for c := 0; c < x.width; c++ {
		h = (h ^ uint64(key[c])) * 0x9E3779B97F4A7C15
		h ^= h >> 32
	}
	return h
}

// Find returns key's id, or -1 when the key is absent.
//
//laqy:hot per-run stratum and per-row group resolution on the scan path
func (x *KeyIndex) Find(key *StratumKey) int32 {
	mask := uint64(len(x.slots) - 1)
	for p := x.hash(key) >> x.shift; ; p = (p + 1) & mask { //laqy:allow ctxpoll leaf kernel; a probe ends at an empty slot
		e := x.slots[p]
		if e == 0 {
			return -1
		}
		if x.equal(e-1, key) {
			return e - 1
		}
	}
}

// equal reports whether id's stored words equal key's used words.
func (x *KeyIndex) equal(id int32, key *StratumKey) bool {
	stored := x.keys[int(id)*x.width : int(id+1)*x.width]
	for c, v := range stored {
		if v != key[c] {
			return false
		}
	}
	return true
}

// Insert adds a key that is not in the index and returns its id, Len()
// before the call.
func (x *KeyIndex) Insert(key *StratumKey) int32 {
	if 2*(int(x.n)+1) > len(x.slots) {
		x.grow()
	}
	id := x.n
	x.n++
	x.keys = append(x.keys, key[:x.width]...)
	x.place(id, x.hash(key))
	return id
}

// place writes id into the first empty slot of h's probe sequence.
func (x *KeyIndex) place(id int32, h uint64) {
	mask := uint64(len(x.slots) - 1)
	p := h >> x.shift
	for x.slots[p] != 0 {
		p = (p + 1) & mask
	}
	x.slots[p] = id + 1
}

// grow doubles the slot table and re-places every key, in id order.
func (x *KeyIndex) grow() {
	x.slots = make([]int32, 2*len(x.slots))
	x.shift--
	for id := int32(0); id < x.n; id++ {
		key := x.Key(id)
		x.place(id, x.hash(&key))
	}
}

// SortedIDs returns every id, ordered by its key (StratumKey.Compare).
func (x *KeyIndex) SortedIDs() []int32 {
	ids := make([]int32, x.n)
	keys := make([]StratumKey, x.n)
	for i := range ids {
		ids[i] = int32(i)
		keys[i] = x.Key(int32(i))
	}
	slices.SortFunc(ids, func(a, b int32) int { return keys[a].Compare(keys[b]) })
	return ids
}
