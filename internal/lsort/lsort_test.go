package lsort

import (
	"sort"
	"testing"
	"testing/quick"
)

// Property: RadixSort agrees with the standard library on arbitrary data.
func TestRadixSortAgainstStdlib(t *testing.T) {
	f := func(keys []uint32) bool {
		mine := append([]uint32(nil), keys...)
		ref := append([]uint32(nil), keys...)
		RadixSort(mine)
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		if len(mine) != len(ref) {
			return false
		}
		for i := range mine {
			if mine[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRadixSortEdgeCases(t *testing.T) {
	RadixSort(nil)
	one := []uint32{42}
	RadixSort(one)
	if one[0] != 42 {
		t.Fatal("singleton disturbed")
	}
	extremes := []uint32{0xFFFFFFFF, 0, 0x80000000, 1}
	RadixSort(extremes)
	if !IsSorted(extremes) {
		t.Fatalf("extremes not sorted: %v", extremes)
	}
}

func TestIsSorted(t *testing.T) {
	if !IsSorted([]uint32{1, 2, 2, 3}) {
		t.Fatal("sorted flagged unsorted")
	}
	if IsSorted([]uint32{2, 1}) {
		t.Fatal("unsorted flagged sorted")
	}
}

// Property: MergeLow/MergeHigh partition the union of two sorted runs.
func TestMergeSplitProperty(t *testing.T) {
	f := func(aRaw, bRaw []uint32) bool {
		if len(aRaw) == 0 {
			aRaw = []uint32{1}
		}
		if len(bRaw) == 0 {
			bRaw = []uint32{2}
		}
		a := append([]uint32(nil), aRaw...)
		b := append([]uint32(nil), bRaw...)
		RadixSort(a)
		RadixSort(b)
		union := append(append([]uint32(nil), a...), b...)
		RadixSort(union)
		k := len(a) // arbitrary split size within bounds
		low := make([]uint32, k)
		high := make([]uint32, len(union)-k)
		MergeLow(low, a, b)
		MergeHigh(high, a, b)
		for i := range low {
			if low[i] != union[i] {
				return false
			}
		}
		for i := range high {
			if high[i] != union[k+i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeSplitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("undersupplied merge did not panic")
		}
	}()
	MergeLow(make([]uint32, 5), []uint32{1}, []uint32{2})
}
