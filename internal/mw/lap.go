// Package mw implements the Master-Worker framework and the numerical
// optimization workload of §6.1: the record-setting Condor-G computation
// solved a large Quadratic Assignment Problem with a branch-and-bound
// algorithm whose bounding step solves Linear Assignment Problems — "over
// 540 billion Linear Assignment Problems controlled by a sophisticated
// branch and bound algorithm". This file is the LAP solver: the
// Jonker-Volgenant shortest-augmenting-path algorithm, O(n^3). The package
// backs experiment E8 (BenchmarkE8_MasterWorker, examples/qap).
package mw

import (
	"fmt"
	"math"
)

// LAPResult is an optimal assignment: row i is assigned to column
// RowToCol[i], with the given total cost.
type LAPResult struct {
	RowToCol []int
	Cost     float64
}

// SolveLAP finds a minimum-cost perfect matching of the square cost matrix
// using shortest augmenting paths with dual variables (Jonker-Volgenant).
func SolveLAP(cost [][]float64) (LAPResult, error) {
	n := len(cost)
	if n == 0 {
		return LAPResult{}, fmt.Errorf("mw: empty cost matrix")
	}
	for i, row := range cost {
		if len(row) != n {
			return LAPResult{}, fmt.Errorf("mw: cost matrix row %d has %d entries, want %d", i, len(row), n)
		}
	}
	const inf = math.MaxFloat64 / 4
	// Duals u (rows), v (cols); matching rowOf[col] / colOf[row].
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	rowOf := make([]int, n+1) // rowOf[j] = row matched to column j; 0 = none (1-based)
	colOf := make([]int, n+1)
	c := func(i, j int) float64 { return cost[i-1][j-1] } // 1-based view

	for i := 1; i <= n; i++ {
		// Find an augmenting path from row i (classic JV/Hungarian
		// implementation with potentials).
		rowOf[0] = i
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
		way := make([]int, n+1)
		for j := 0; j <= n; j++ {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := rowOf[j0]
			delta := inf
			j1 := -1
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := c(i0, j) - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[rowOf[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if rowOf[j0] == 0 {
				break
			}
		}
		// Augment along the path.
		for j0 != 0 {
			j1 := way[j0]
			rowOf[j0] = rowOf[j1]
			j0 = j1
		}
	}
	res := LAPResult{RowToCol: make([]int, n)}
	for j := 1; j <= n; j++ {
		if rowOf[j] > 0 {
			colOf[rowOf[j]] = j
		}
	}
	for i := 1; i <= n; i++ {
		res.RowToCol[i-1] = colOf[i] - 1
		res.Cost += cost[i-1][colOf[i]-1]
	}
	return res, nil
}

// lapBruteForce is the reference oracle for property tests (exported to the
// test file only through the package).
func lapBruteForce(cost [][]float64) float64 {
	n := len(cost)
	perm := make([]int, n)
	used := make([]bool, n)
	best := math.MaxFloat64
	var rec func(i int, acc float64)
	rec = func(i int, acc float64) {
		if acc >= best {
			return
		}
		if i == n {
			best = acc
			return
		}
		for j := 0; j < n; j++ {
			if !used[j] {
				used[j] = true
				perm[i] = j
				rec(i+1, acc+cost[i][j])
				used[j] = false
			}
		}
	}
	rec(0, 0)
	return best
}
