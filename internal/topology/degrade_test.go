package topology

import (
	"errors"
	"testing"
)

// deadSet builds a DeadFunc from undirected node pairs.
func deadSet(pairs ...[2]int) DeadFunc {
	return func(u, v int) bool {
		for _, p := range pairs {
			if (p[0] == u && p[1] == v) || (p[0] == v && p[1] == u) {
				return true
			}
		}
		return false
	}
}

func noDead(u, v int) bool { return false }

// walkMeshPath replays a directed-link path and returns the node it ends
// on, failing if any traversed link is dead or links don't chain.
func walkMeshPath(t *testing.T, m *Mesh, src int, links []int, dead DeadFunc) int {
	t.Helper()
	at := src
	for _, l := range links {
		node, dir := l/numDirs, l%numDirs
		if node != at {
			t.Fatalf("link %d leaves node %d but walker is at %d", l, node, at)
		}
		x, y := m.Coord(at)
		switch dir {
		case East:
			x++
		case West:
			x--
		case North:
			y--
		case South:
			y++
		}
		next := m.ID(x, y)
		if dead(at, next) {
			t.Fatalf("path traverses dead link %d -> %d", at, next)
		}
		at = next
	}
	return at
}

func TestMeshPathAvoidMatchesPathWhenHealthy(t *testing.T) {
	m := &Mesh{Width: 4, Height: 3}
	var scratch PathScratch
	for src := 0; src < m.Nodes(); src++ {
		for dst := 0; dst < m.Nodes(); dst++ {
			p, err := m.PathAvoid(nil, src, dst, noDead, &scratch)
			if err != nil {
				t.Fatalf("healthy mesh partitioned %d -> %d: %v", src, dst, err)
			}
			if len(p) != m.Hops(src, dst) {
				t.Fatalf("%d -> %d: avoid path %d hops, minimal %d", src, dst, len(p), m.Hops(src, dst))
			}
			if end := walkMeshPath(t, m, src, p, noDead); end != dst {
				t.Fatalf("%d -> %d: path ends at %d", src, dst, end)
			}
		}
	}
}

func TestMeshPathAvoidRoutesAroundCut(t *testing.T) {
	// 3x1 chain 0-1-2 has exactly one route; a 2D mesh has alternatives.
	m := &Mesh{Width: 3, Height: 3}
	// Kill the direct XY route's first link 0->1: traffic 0->2 must detour.
	dead := deadSet([2]int{0, 1})
	var scratch PathScratch
	p, err := m.PathAvoid(nil, 0, 2, dead, &scratch)
	if err != nil {
		t.Fatalf("cut did not partition, yet: %v", err)
	}
	if end := walkMeshPath(t, m, 0, p, dead); end != 2 {
		t.Fatalf("detour ends at %d", end)
	}
	if len(p) <= m.Hops(0, 2) {
		t.Fatalf("detour of %d hops cannot beat the %d-hop cut route", len(p), m.Hops(0, 2))
	}
	// Determinism: the same query yields the same route.
	q, _ := m.PathAvoid(nil, 0, 2, dead, &scratch)
	if len(p) != len(q) {
		t.Fatalf("route changed between identical queries: %v vs %v", p, q)
	}
	for i := range p {
		if p[i] != q[i] {
			t.Fatalf("route changed between identical queries: %v vs %v", p, q)
		}
	}
}

func TestMeshPathAvoidPartition(t *testing.T) {
	// 2x1 mesh: killing the only link partitions it.
	m := &Mesh{Width: 2, Height: 1}
	var scratch PathScratch
	_, err := m.PathAvoid(nil, 0, 1, deadSet([2]int{0, 1}), &scratch)
	if !errors.Is(err, ErrPartitioned) {
		t.Fatalf("severed mesh returned %v, want ErrPartitioned", err)
	}
	// Self-route survives any cut.
	if _, err := m.PathAvoid(nil, 1, 1, deadSet([2]int{0, 1}), &scratch); err != nil {
		t.Fatalf("self route errored: %v", err)
	}
}

func TestTorusHopsAvoid(t *testing.T) {
	tor, err := NewTorus(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	var scratch PathScratch
	// Healthy torus: BFS distance equals the analytic minimal hop count.
	for src := 0; src < tor.Nodes(); src += 7 {
		for dst := 0; dst < tor.Nodes(); dst += 5 {
			h, err := tor.HopsAvoid(src, dst, noDead, &scratch)
			if err != nil {
				t.Fatalf("healthy torus partitioned %d -> %d: %v", src, dst, err)
			}
			if h != tor.Hops(src, dst) {
				t.Fatalf("%d -> %d: BFS %d hops, analytic %d", src, dst, h, tor.Hops(src, dst))
			}
		}
	}
	// One dead link forces a detour: 0 -> 1 becomes 3 hops around the ring
	// or 1+2 through another dimension - either way strictly more than 1.
	h, err := tor.HopsAvoid(0, 1, deadSet([2]int{0, 1}), &scratch)
	if err != nil {
		t.Fatalf("single cut partitioned a torus: %v", err)
	}
	if h <= 1 {
		t.Fatalf("detour around a dead link took %d hops", h)
	}
}

func TestTorusHopsAvoidPartition(t *testing.T) {
	// A 2-ary 1-cube is a single doubled link 0-1; killing it cuts the net.
	tor, err := NewTorus(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var scratch PathScratch
	if _, err := tor.HopsAvoid(0, 1, deadSet([2]int{0, 1}), &scratch); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("severed torus returned %v, want ErrPartitioned", err)
	}
}
