package traffic

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"octopus/internal/graph"
)

// FromDemandMatrix converts an n x n demand matrix (demand[i][j] = traffic
// from node i to node j, arbitrary non-negative units) into a traffic load
// over fabric g: entries are rescaled so the largest equals window (the
// paper's trace preparation), and each nonzero entry becomes a flow with
// routes assigned like the synthetic generator. Use this to drive the
// scheduler from real traffic-matrix data (e.g. published heatmaps).
func FromDemandMatrix(g *graph.Digraph, demand [][]float64, window int, p SyntheticParams, rng *rand.Rand) (*Load, error) {
	n := g.N()
	if len(demand) != n {
		return nil, fmt.Errorf("traffic: demand matrix has %d rows, fabric has %d nodes", len(demand), n)
	}
	var maxD float64
	for i, row := range demand {
		if len(row) != n {
			return nil, fmt.Errorf("traffic: demand row %d has %d columns, want %d", i, len(row), n)
		}
		for j, d := range row {
			if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
				return nil, fmt.Errorf("traffic: invalid demand[%d][%d] = %v", i, j, d)
			}
			if i != j && d > maxD {
				maxD = d
			}
		}
	}
	if maxD == 0 {
		return nil, fmt.Errorf("traffic: demand matrix is empty")
	}
	if p.MinHops == 0 {
		p.MinHops, p.MaxHops = 1, 3
	}
	scale := float64(window) / maxD
	load := &Load{}
	nextID := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			size := int(math.Round(demand[i][j] * scale))
			if size == 0 {
				continue
			}
			routes, err := sampleRoutes(g, i, j, nextID, p, rng)
			if err != nil {
				return nil, err
			}
			load.Flows = append(load.Flows, Flow{
				ID: nextID, Size: size, Src: i, Dst: j, Routes: routes,
			})
			nextID++
		}
	}
	return load, nil
}

// ReadDemandCSV parses a square demand matrix from CSV: one row per line,
// comma-separated finite non-negative numbers, '#'-prefixed comment lines
// and blank lines ignored.
func ReadDemandCSV(r io.Reader) ([][]float64, error) {
	var matrix [][]float64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		row := make([]float64, len(parts))
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("traffic: line %d column %d: %w", line, i+1, err)
			}
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("traffic: line %d column %d: demand %v is not a finite non-negative number", line, i+1, v)
			}
			row[i] = v
		}
		matrix = append(matrix, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(matrix) == 0 {
		return nil, fmt.Errorf("traffic: empty demand CSV")
	}
	for i, row := range matrix {
		if len(row) != len(matrix) {
			return nil, fmt.Errorf("traffic: row %d has %d columns, want %d (square matrix)", i+1, len(row), len(matrix))
		}
	}
	return matrix, nil
}
