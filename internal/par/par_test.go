package par

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
)

// TestForCallsEveryItemOnce: every item is called once, by a worker below
// the worker count, at any worker count.
func TestForCallsEveryItemOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		for _, n := range []int{0, 1, 7, 1000} {
			calls := make([]atomic.Int32, n)
			For(workers, n, func(w, i int) {
				if w < 0 || w >= Workers(workers, n) {
					t.Errorf("workers %d, n %d: worker %d", workers, n, w)
				}
				calls[i].Add(1)
			})
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("workers %d, n %d: item %d called %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestDealIsAStableCountingSort: at any worker count, on inputs of one work
// item and of several, each bucket holds exactly its key's indices in
// ascending order, and Each visits every non-empty bucket once.
func TestDealIsAStableCountingSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 100, 3*Item + 17} {
		const keys = 37
		key := make([]int32, n)
		for i := range key {
			key[i] = int32(rng.Intn(keys / 2)) // half the keys stay empty
		}
		var want [keys][]int32
		for i, k := range key {
			want[k] = append(want[k], int32(i))
		}
		for _, workers := range []int{1, 2, 8} {
			b := Deal(workers, n, keys, func(i int) int32 { return key[i] })
			visits := make([]atomic.Int32, keys)
			b.Each(workers, func(lo, hi int) {
				for k := lo; k < hi; k++ {
					if len(b.Of(k)) > 0 {
						visits[k].Add(1)
					}
				}
			})
			for k := range keys {
				if got := b.Of(k); !slices.Equal(got, want[k]) || cap(got) != len(got) {
					t.Fatalf("n %d, workers %d: bucket %d is %v (cap %d), want %v", n, workers, k, got, cap(got), want[k])
				}
				if v, nonEmpty := visits[k].Load(), len(want[k]) > 0; (v == 1) != nonEmpty || v > 1 {
					t.Fatalf("n %d, workers %d: bucket %d of %d visited %d times", n, workers, k, len(want[k]), v)
				}
			}
		}
	}
}
