package matching

import (
	"encoding/binary"
	"testing"
)

// decodeFuzzInstance turns raw fuzz bytes into a bipartite instance: byte 0
// picks n in [1, 32], then each 4-byte chunk is one edge (from, to, 2-byte
// weight biased so some edges are non-positive and duplicates are common).
func decodeFuzzInstance(data []byte) (int, []Edge) {
	if len(data) == 0 {
		return 1, nil
	}
	n := int(data[0])%32 + 1
	data = data[1:]
	var edges []Edge
	for len(data) >= 4 {
		f := int(data[0]) % n
		t := int(data[1]) % n
		w := int64(binary.LittleEndian.Uint16(data[2:4])) - 8
		edges = append(edges, Edge{From: f, To: t, Weight: w})
		data = data[4:]
		if len(edges) == 512 {
			break
		}
	}
	return n, edges
}

// FuzzMaxWeightBipartite pushes random edge lists through the exact solver,
// asserting matching validity, the dual certificate of optimality, event
// identity with the textbook loop (solveChecked) and — on small instances —
// agreement with the brute-force oracle.
func FuzzMaxWeightBipartite(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 1, 9, 0, 1, 0, 9, 0, 2, 3, 1, 0})
	f.Add([]byte{1, 0, 0, 8, 0, 0, 0, 7, 0})
	// All-non-positive boundary: weights <= 0 after the -8 bias.
	f.Add([]byte{6, 0, 1, 3, 0, 2, 3, 0, 0, 4, 5, 5, 0})
	// Wide instance with duplicates and heavy ties.
	f.Add([]byte{
		16,
		0, 1, 20, 0, 1, 0, 20, 0, 2, 1, 20, 0, 3, 1, 20, 0,
		4, 5, 20, 0, 5, 4, 20, 0, 6, 7, 255, 0, 7, 6, 255, 0,
		0, 1, 20, 0, 8, 8, 9, 0, 9, 9, 9, 0, 10, 8, 9, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, edges := decodeFuzzInstance(data)
		var a Arena
		_, w := solveChecked(t, &a, n, edges)
		if len(edges) <= 10 && n <= 6 {
			if _, bw := BruteForceBipartite(n, edges); bw != w {
				t.Fatalf("oracle weight %d != solver %d (n=%d edges=%v)", bw, w, n, edges)
			}
		}
	})
}
