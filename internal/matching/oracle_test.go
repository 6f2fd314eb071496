package matching

// The exhaustive-search oracles the matchers are tested against. Only this
// package's tests call them.

// BruteForceBipartite returns an exact maximum-weight bipartite matching by
// exhaustive search. Exponential; intended only as a test oracle for small
// instances (at most ~8 active rows).
func BruteForceBipartite(n int, edges []Edge) ([]Edge, int64) {
	byFrom := make(map[int][]Edge)
	var froms []int
	for _, e := range edges {
		if e.Weight <= 0 {
			continue
		}
		if _, ok := byFrom[e.From]; !ok {
			froms = append(froms, e.From)
		}
		byFrom[e.From] = append(byFrom[e.From], e)
	}
	usedTo := make(map[int]bool)
	var best int64
	var bestSet []Edge
	var cur []Edge
	var rec func(idx int, sum int64)
	rec = func(idx int, sum int64) {
		if idx == len(froms) {
			if sum > best {
				best = sum
				bestSet = append([]Edge(nil), cur...)
			}
			return
		}
		rec(idx+1, sum) // leave froms[idx] unmatched
		for _, e := range byFrom[froms[idx]] {
			if usedTo[e.To] {
				continue
			}
			usedTo[e.To] = true
			cur = append(cur, e)
			rec(idx+1, sum+e.Weight)
			cur = cur[:len(cur)-1]
			usedTo[e.To] = false
		}
	}
	rec(0, 0)
	return bestSet, best
}
