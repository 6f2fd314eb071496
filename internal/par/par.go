// Package par is the worker pool the planner, the replay and the load
// validator share. Work items have constant sizes, so no result depends on
// the worker count, and a job of one item runs inline.
package par

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Workers is For's goroutine count: workers (0: GOMAXPROCS) within [1, n].
func Workers(workers, n int) int {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// For calls f(w, i) for every i in [0, n) on Workers(workers, n) goroutines
// claiming items in ascending order; w names the goroutine making the call.
func For(workers, n int, f func(w, i int)) {
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(w, i)
			}
		}()
	}
	wg.Wait()
}

// Item is the number of indices a work item of Each or the load validator
// covers, and the fewest Deal spreads over several goroutines.
const Item = 1 << 15

// Buckets is the indices 0..n-1 grouped by key: key k's are
// Order[Start[k]:Start[k+1]], ascending.
type Buckets struct{ Order, Start []int32 }

// Of returns bucket k, capped so that growing it copies it.
func (b Buckets) Of(k int) []int32 { return b.Order[b.Start[k]:b.Start[k+1]:b.Start[k+1]] }

// Deal sorts the indices 0..n-1 into keys buckets by key(i) in [0, keys):
// Place, writing each index into its slot.
func Deal(workers, n, keys int, key func(i int) int32) Buckets {
	b := Buckets{Order: make([]int32, n)}
	b.Start = Place(workers, n, keys, key, func(i int, slot int32) { b.Order[slot] = int32(i) })
	return b
}

// Place is the stable counting sort under Deal, for a caller that keeps the
// order itself: put(i, slot) is called once for every i in [0, n) with i's
// place in the stable order of 0..n-1 by key(i) in [0, keys). The counting
// and placing passes cut the indices into one run a worker, which no result
// depends on; at most Item indices are one run. key is called twice per
// index and put once, concurrently. start[k] is key k's first slot, and
// start[keys] = n.
func Place(workers, n, keys int, key func(i int) int32, put func(i int, slot int32)) (start []int32) {
	items := Workers(workers, (n+Item-1)/Item)
	size := (n + items - 1) / items
	// at[it*keys+k] counts item it's indices of key k, then is where they go.
	at := make([]int32, items*keys)
	pass := func(place bool) {
		For(workers, items, func(_, it int) {
			c := at[it*keys : (it+1)*keys]
			for i := it * size; i < min(n, (it+1)*size); i++ {
				k := key(i)
				if place {
					put(i, c[k])
				}
				c[k]++
			}
		})
	}
	pass(false)
	start = make([]int32, keys+1)
	pos := int32(0)
	for k := 0; k < keys; k++ {
		start[k] = pos
		for it := k; it < len(at); it += keys {
			at[it], pos = pos, pos+at[it]
		}
	}
	start[keys] = pos
	pass(true)
	return start
}

// Each calls f(lo, hi) once a work item: the keys [lo, hi) whose buckets
// start within one run of Item indices of Order, empty buckets among them.
func (b Buckets) Each(workers int, f func(lo, hi int)) {
	keys := len(b.Start) - 1
	first := func(at int) int { return sort.Search(keys, func(k int) bool { return int(b.Start[k]) >= at }) }
	For(workers, (len(b.Order)+Item-1)/Item, func(_, it int) {
		f(first(it*Item), first((it+1)*Item))
	})
}
