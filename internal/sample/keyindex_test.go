package sample

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"
)

// keyFamilies are the key shapes the index must spread: the int64 ends, keys
// that differ only above bit 32, yyyymmdd dates, and small dense codes.
var keyFamilies = map[string]func(i int) int64{
	"ends": func(i int) int64 {
		if i%2 == 0 {
			return math.MinInt64 + int64(i/2)
		}
		return math.MaxInt64 - int64(i/2)
	},
	"stride2^32": func(i int) int64 { return int64(i) << 32 },
	"dates": func(i int) int64 {
		d := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, i)
		return int64(d.Year()*10000 + int(d.Month())*100 + d.Day())
	},
	"dense": func(i int) int64 { return int64(i) },
}

// TestKeyIndexAgainstMap drives the index and a Go map side by side over
// every width and key family, through several resizes: every Find agrees
// with the map, ids are dense and in first-seen order, the load stays at or
// below ½, Key returns the key zero-padded beyond the width, and SortedIDs is
// StratumKey order.
func TestKeyIndexAgainstMap(t *testing.T) {
	for width := 0; width <= MaxQCS; width++ {
		for name, family := range keyFamilies {
			x := NewKeyIndex(width)
			oracle := map[StratumKey]int32{}
			var order []StratumKey
			// Each word draws from the family at an offset of its own, so
			// multi-word keys mix families' words in every position; the
			// probe stream revisits keys, so most lookups hit.
			key := func(i int) StratumKey {
				var k StratumKey
				for c := 0; c < width; c++ {
					k[c] = family((i*(c+1) + 7*c) % 3000)
				}
				return k
			}
			for step := 0; step < 6000; step++ {
				k := key((step * 7919) % 3001)
				got := x.Find(&k)
				want, ok := oracle[k]
				if !ok {
					want = -1
				}
				if got != want {
					t.Fatalf("width %d %s step %d: Find(%v) = %d, want %d", width, name, step, k, got, want)
				}
				if ok {
					continue
				}
				if id := x.Insert(&k); id != int32(len(order)) {
					t.Fatalf("width %d %s: Insert(%v) = %d, want next id %d", width, name, k, id, len(order))
				}
				oracle[k] = int32(len(order))
				order = append(order, k)
				if len(x.slots) < 2*x.Len() {
					t.Fatalf("width %d %s: %d keys in %d slots, load above ½", width, name, x.Len(), len(x.slots))
				}
			}
			if x.Len() != len(order) || len(oracle) != len(order) {
				t.Fatalf("width %d %s: Len %d, want %d", width, name, x.Len(), len(order))
			}
			if width >= 1 && len(order) < 1000 {
				t.Fatalf("width %d %s: %d distinct keys, too few to grow the table", width, name, len(order))
			}
			for id, k := range order {
				if got := x.Key(int32(id)); got != k {
					t.Fatalf("width %d %s: Key(%d) = %v, want %v", width, name, id, got, k)
				}
				if got := x.Find(&k); got != int32(id) {
					t.Fatalf("width %d %s: Find(%v) = %d after growth, want %d", width, name, k, got, id)
				}
			}
			ids := x.SortedIDs()
			if !slices.IsSortedFunc(ids, func(a, b int32) int { return order[a].Compare(order[b]) }) || len(ids) != len(order) {
				t.Fatalf("width %d %s: SortedIDs out of key order", width, name)
			}
		}
	}
}

// TestKeyIndexCloneIndependence: the index a merge writes — sized for its
// keys up front and filled in key order — is the result's own: inserts
// into the result or into its input are not seen by the other side, and
// both go on assigning their own dense ids, the result's past a resize.
func TestKeyIndexCloneIndependence(t *testing.T) {
	s := NewBuilder(Schema{"a", "b", "v"}, 2, 4, newGen(1))
	for i := int64(0); i < 100; i++ {
		addRow(s, i, -i, 0)
	}
	m, err := MergeStratified(s, NewBuilder(Schema{"a", "b", "v"}, 2, 4, newGen(2)), newGen(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	x, c := &s.index, &m.index
	if &c.slots[0] == &x.slots[0] || &c.keys[0] == &x.keys[0] {
		t.Fatal("the merge result shares its input's slots or keys")
	}
	for i := int64(100); i < 300; i++ { // past a resize on the result's side
		if id := c.Insert(&StratumKey{i, -i}); id != int32(i) {
			t.Fatalf("result insert id %d, want %d", id, i)
		}
	}
	if id := x.Insert(&StratumKey{-1, -1}); id != 100 {
		t.Fatalf("input insert id %d, want 100", id)
	}
	if x.Len() != 101 || c.Len() != 300 {
		t.Fatalf("Len input %d result %d, want 101 and 300", x.Len(), c.Len())
	}
	for i := int64(100); i < 300; i++ {
		if x.Find(&StratumKey{i, -i}) != -1 {
			t.Fatalf("the result's key %d is visible in the input", i)
		}
	}
	if c.Find(&StratumKey{-1, -1}) != -1 {
		t.Fatal("the input's insert is visible in the result")
	}
	for i := int64(0); i < 100; i++ {
		if x.Find(&StratumKey{i, -i}) != int32(i) || c.Find(&StratumKey{i, -i}) != int32(i) {
			t.Fatalf("shared key %d lost its id", i)
		}
	}
}

// TestKeyIndexConcurrentFind reads a published sample from many goroutines
// — Stratum probes, the ordered walk and Keys — while nothing writes it;
// run under -race.
func TestKeyIndexConcurrentFind(t *testing.T) {
	b := NewBuilder(Schema{"a", "b", "v"}, 2, 4, newGen(1))
	for i := int64(0); i < 500; i++ {
		addRow(b, i%37, i%11, i)
	}
	s := Seal(b, 1)
	want := s.NumStrata()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := 0
			s.ForEach(func(key StratumKey, r *Reservoir) {
				if s.Stratum(key) != r {
					t.Errorf("Stratum(%v) is not the walked reservoir", key)
				}
				seen++
			})
			if seen != want || len(s.Keys()) != want {
				t.Errorf("walked %d strata, want %d", seen, want)
			}
			if s.Stratum(StratumKey{99, 99}) != nil {
				t.Error("absent key found")
			}
		}()
	}
	wg.Wait()
}
