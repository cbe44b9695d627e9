// Graceful degradation: route-around for dead links. The fault injector
// kills individual links; a topology that still connects the endpoints
// must find an alternate (minimal surviving) route, and one that does not
// must say so explicitly with ErrPartitioned instead of letting the
// simulation wander forever.
package topology

import (
	"errors"
	"fmt"
)

// ErrPartitioned reports that a node pair has no surviving route: the dead
// links cut the network. Callers match it with errors.Is.
var ErrPartitioned = errors.New("topology: network partitioned")

// DeadFunc reports whether the directed link from node u to node v is
// unusable. Implementations must be deterministic and symmetric if the
// underlying failure is a (bidirectional) link cut.
type DeadFunc func(u, v int) bool

// PathScratch holds the reusable breadth-first-search state for the
// *Avoid routing variants, so per-message route-around does not allocate
// once warm. The zero value is ready to use; a scratch must not be shared
// across goroutines.
type PathScratch struct {
	prev  []int32 // prev[node] = predecessor+1 on the BFS tree, 0 = unvisited
	queue []int32
}

func (s *PathScratch) reset(n int) {
	if cap(s.prev) < n {
		s.prev = make([]int32, n)
		s.queue = make([]int32, 0, n)
	}
	s.prev = s.prev[:n]
	for i := range s.prev {
		s.prev[i] = 0
	}
	s.queue = s.queue[:0]
}

// bfs runs a breadth-first search from src to dst over the neighbour
// function, which appends node u's live neighbours to buf in a fixed
// deterministic order. It returns true when dst was reached; the BFS tree
// is left in s.prev for path reconstruction.
func (s *PathScratch) bfs(n, src, dst int, neighbours func(buf []int32, u int) []int32) bool {
	s.reset(n)
	if src == dst {
		return true
	}
	s.prev[src] = int32(src) + 1
	s.queue = append(s.queue, int32(src))
	var nbuf [8]int32 // degree ≤ 8 for every topology in this module (torus dims ≤ 4)
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		for _, v := range neighbours(nbuf[:0], int(u)) {
			if s.prev[v] != 0 {
				continue
			}
			s.prev[v] = u + 1
			if int(v) == dst {
				return true
			}
			s.queue = append(s.queue, v)
		}
	}
	return false
}

// pathNodes reconstructs the node sequence src..dst from the BFS tree into
// buf (reversed walk, then flipped in place).
func (s *PathScratch) pathNodes(buf []int32, src, dst int) []int32 {
	for v := int32(dst); ; v = s.prev[v] - 1 {
		buf = append(buf, v)
		if int(v) == src {
			break
		}
	}
	for i, j := 0, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

// meshNeighbours appends node u's live mesh neighbours in fixed
// direction order (East, West, North, South), skipping dead links.
func (m *Mesh) meshNeighbours(buf []int32, u int, dead DeadFunc) []int32 {
	x, y := m.Coord(u)
	if x+1 < m.Width {
		if v := m.ID(x+1, y); !dead(u, v) {
			buf = append(buf, int32(v))
		}
	}
	if x > 0 {
		if v := m.ID(x-1, y); !dead(u, v) {
			buf = append(buf, int32(v))
		}
	}
	if y > 0 {
		if v := m.ID(x, y-1); !dead(u, v) {
			buf = append(buf, int32(v))
		}
	}
	if y+1 < m.Height {
		if v := m.ID(x, y+1); !dead(u, v) {
			buf = append(buf, int32(v))
		}
	}
	return buf
}

// dirTo returns the direction of the link from node u to its neighbour v.
func (m *Mesh) dirTo(u, v int) int {
	switch v - u {
	case 1:
		return East
	case -1:
		return West
	case -m.Width:
		return North
	case m.Width:
		return South
	}
	panic(fmt.Sprintf("topology: nodes %d and %d are not mesh neighbours", u, v))
}

// PathAvoid appends to dst the directed link identifiers of a shortest
// route from src to dstNode that avoids every link for which dead reports
// true. Ties between equal-length routes break deterministically (fixed
// East/West/North/South neighbour order), so the route is a pure function
// of the topology and the dead set. When the dead links disconnect the
// pair it returns an error wrapping ErrPartitioned.
//
// Unlike Path, the route is not necessarily XY dimension-ordered: routing
// around a cut requires turns the GCel's router would not normally make.
func (m *Mesh) PathAvoid(dst []int, src, dstNode int, dead DeadFunc, scratch *PathScratch) ([]int, error) {
	if !scratch.bfs(m.Nodes(), src, dstNode, func(buf []int32, u int) []int32 {
		return m.meshNeighbours(buf, u, dead)
	}) {
		return dst, fmt.Errorf("%w: mesh %dx%d has no live route %d -> %d",
			ErrPartitioned, m.Width, m.Height, src, dstNode)
	}
	if src == dstNode {
		return dst, nil
	}
	var nodeBuf [64]int32
	nodes := scratch.pathNodes(nodeBuf[:0], src, dstNode)
	for i := 0; i+1 < len(nodes); i++ {
		u, v := int(nodes[i]), int(nodes[i+1])
		x, y := m.Coord(u)
		dst = append(dst, m.linkID(x, y, m.dirTo(u, v)))
	}
	return dst, nil
}

// torusNeighbours appends node u's live torus neighbours in fixed order
// (per dimension: +1 ring direction then -1), skipping dead links.
func (t *Torus) torusNeighbours(buf []int32, u int, dead DeadFunc) []int32 {
	stride := 1
	rest := u
	for d := 0; d < t.Dims; d++ {
		coord := rest % t.Ary
		rest /= t.Ary
		up := u + stride*(((coord+1)%t.Ary)-coord)
		down := u + stride*(((coord-1+t.Ary)%t.Ary)-coord)
		if !dead(u, up) {
			buf = append(buf, int32(up))
		}
		if down != up && !dead(u, down) {
			buf = append(buf, int32(down))
		}
		stride *= t.Ary
	}
	return buf
}

// HopsAvoid returns the minimal hop count from src to dst over the torus
// links that survive the dead set. When the pair is disconnected it
// returns an error wrapping ErrPartitioned.
func (t *Torus) HopsAvoid(src, dst int, dead DeadFunc, scratch *PathScratch) (int, error) {
	if src == dst {
		return 0, nil
	}
	if !scratch.bfs(t.n, src, dst, func(buf []int32, u int) []int32 {
		return t.torusNeighbours(buf, u, dead)
	}) {
		return 0, fmt.Errorf("%w: %d-ary %d-cube has no live route %d -> %d",
			ErrPartitioned, t.Ary, t.Dims, src, dst)
	}
	hops := 0
	for v := int32(dst); int(v) != src; v = scratch.prev[v] - 1 {
		hops++
	}
	return hops, nil
}
