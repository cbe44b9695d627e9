package topology

import "fmt"

// FatTree models the CM-5 data network: a fat tree over Leaves processors
// whose routes climb to the nearest common ancestor subtree and descend
// again. It answers the structural questions the router prices per
// message - which level a route must reach and how many hops it takes -
// and tracks no link-level contention.
type FatTree struct {
	Leaves int
	Arity  int
	Levels int
}

// NewFatTree builds a fat tree over the given number of leaves with the
// given arity. Leaves must be a positive power of the arity.
func NewFatTree(leaves, arity int) (*FatTree, error) {
	if arity < 2 {
		return nil, fmt.Errorf("topology: fat tree arity must be >= 2, got %d", arity)
	}
	levels := 0
	n := 1
	for n < leaves {
		n *= arity
		levels++
	}
	if n != leaves || leaves < arity {
		return nil, fmt.Errorf("topology: fat tree leaves %d is not a power of arity %d", leaves, arity)
	}
	return &FatTree{Leaves: leaves, Arity: arity, Levels: levels}, nil
}

// SubtreeAt returns the index of the level-l subtree containing leaf id.
// Level 0 subtrees are groups of Arity leaves.
func (f *FatTree) SubtreeAt(id, level int) int {
	div := 1
	for i := 0; i <= level; i++ {
		div *= f.Arity
	}
	return id / div
}

// NCALevel returns the lowest level whose subtree contains both src and
// dst: the height a message must climb. Level -1 means src == dst.
func (f *FatTree) NCALevel(src, dst int) int {
	if src == dst {
		return -1
	}
	for l := 0; l < f.Levels; l++ {
		if f.SubtreeAt(src, l) == f.SubtreeAt(dst, l) {
			return l
		}
	}
	return f.Levels - 1
}

// Hops returns the hop count of the up-then-down route between src and dst.
func (f *FatTree) Hops(src, dst int) int {
	l := f.NCALevel(src, dst)
	if l < 0 {
		return 0
	}
	return 2 * (l + 1)
}
