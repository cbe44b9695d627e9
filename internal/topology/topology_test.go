package topology

import (
	"testing"
	"testing/quick"

	"quantpar/internal/sim"
)

func TestButterflyValidation(t *testing.T) {
	for _, bad := range []int{0, 1, 3, 12, -4} {
		if _, err := NewButterfly(bad); err == nil {
			t.Fatalf("NewButterfly(%d) succeeded", bad)
		}
	}
	b, err := NewButterfly(64)
	if err != nil {
		t.Fatal(err)
	}
	if b.Stages != 6 || b.NumLinks() != 6*64 {
		t.Fatalf("64-port butterfly: stages %d links %d", b.Stages, b.NumLinks())
	}
}

// Property: a butterfly path has exactly one link per stage, with stage
// indices in order, and distinct (src, dst) pairs that share no endpoint
// conflict only sometimes - but a path must always end at a node index
// equal to the destination.
func TestButterflyPathStructure(t *testing.T) {
	b, err := NewButterfly(32)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		src, dst := rng.Intn(32), rng.Intn(32)
		path := b.Path(nil, src, dst)
		if len(path) != b.Stages {
			return false
		}
		for s, link := range path {
			if link/b.Ports != s {
				return false // link not in stage s
			}
		}
		// The final link's node index must be the destination.
		return path[len(path)-1]%b.Ports == dst
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeshPathsFollowXYRouting(t *testing.T) {
	m, err := NewMesh(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		src, dst := rng.Intn(64), rng.Intn(64)
		path := m.Path(nil, src, dst)
		if len(path) != m.Hops(src, dst) {
			return false
		}
		// Links must be distinct (no loops under dimension-ordered routing).
		seen := map[int]bool{}
		for _, l := range path {
			if seen[l] {
				return false
			}
			seen[l] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeshCoordRoundTrip(t *testing.T) {
	m, _ := NewMesh(8, 4)
	for id := 0; id < m.Nodes(); id++ {
		x, y := m.Coord(id)
		if m.ID(x, y) != id {
			t.Fatalf("coord round trip failed for %d", id)
		}
	}
	if m.Hops(0, m.Nodes()-1) != 7+3 {
		t.Fatalf("corner-to-corner hops %d, want 10", m.Hops(0, m.Nodes()-1))
	}
	if _, err := NewMesh(0, 3); err == nil {
		t.Fatal("0-width mesh accepted")
	}
}

func TestFatTreeStructure(t *testing.T) {
	ft, err := NewFatTree(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Levels != 3 {
		t.Fatalf("levels %d, want 3", ft.Levels)
	}
	if _, err := NewFatTree(48, 4); err == nil {
		t.Fatal("non-power leaves accepted")
	}
	if _, err := NewFatTree(64, 1); err == nil {
		t.Fatal("arity 1 accepted")
	}

	if got := ft.Hops(5, 5); got != 0 {
		t.Fatalf("self hops %d", got)
	}
	if got := ft.Hops(0, 1); got != 2 {
		t.Fatalf("sibling hops %d, want 2", got)
	}
	if got := ft.Hops(0, 63); got != 6 {
		t.Fatalf("cross-machine hops %d, want 6", got)
	}
	// Symmetry property.
	f := func(a, b uint8) bool {
		x, y := int(a)%64, int(b)%64
		return ft.Hops(x, y) == ft.Hops(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
