// Package graphs provides the graph substrate for the all-pairs shortest
// path experiments: weighted random digraph generation and the sequential
// Floyd-Warshall reference the parallel implementation is verified against.
package graphs

import (
	"fmt"

	"quantpar/internal/linalg"
	"quantpar/internal/sim"
)

// Inf is the distance representing "no path". A large finite value rather
// than math.Inf so that additions never produce NaN and the matrix remains
// exchangeable as plain floats.
const Inf = 1e18

// RandomDigraph returns the n x n distance matrix of a random directed
// graph in which each ordered pair (i, j), i != j, carries an edge with the
// given probability and a length uniform in [1, maxLen). Diagonal entries
// are zero; absent edges are Inf.
func RandomDigraph(n int, edgeProb float64, maxLen float64, rng *sim.RNG) *linalg.Mat {
	if edgeProb < 0 || edgeProb > 1 {
		panic(fmt.Sprintf("graphs: edge probability %g out of [0,1]", edgeProb))
	}
	d := linalg.NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				d.Set(i, j, 0)
			case rng.Float64() < edgeProb:
				d.Set(i, j, 1+rng.Float64()*(maxLen-1))
			default:
				d.Set(i, j, Inf)
			}
		}
	}
	return d
}

// Floyd runs the sequential Floyd-Warshall algorithm on a copy of d and
// returns the matrix of shortest-path lengths.
func Floyd(d *linalg.Mat) *linalg.Mat {
	if d.Rows != d.Cols {
		panic(fmt.Sprintf("graphs: Floyd on non-square %dx%d matrix", d.Rows, d.Cols))
	}
	n := d.Rows
	out := d.Clone()
	for k := 0; k < n; k++ {
		rowK := out.Data[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			dik := out.Data[i*n+k]
			if dik >= Inf {
				continue
			}
			rowI := out.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				if v := dik + rowK[j]; v < rowI[j] {
					rowI[j] = v
				}
			}
		}
	}
	return out
}
