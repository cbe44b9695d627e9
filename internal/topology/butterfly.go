// Package topology models the three interconnect topologies of the paper's
// experimental platforms: the MasPar's multistage delta (butterfly) router,
// the GCel's two-dimensional mesh, and the CM-5's fat tree. The topologies
// expose routing paths and link identities; the machine backends layer
// contention and timing on top through netsim's engines.
package topology

import "fmt"

// Butterfly is an indirect radix-2 multistage network with Ports inputs and
// outputs and log2(Ports) switching stages - the structure of the MasPar
// MP-1's expanded delta router when viewed at cluster-channel granularity.
type Butterfly struct {
	Ports  int
	Stages int
}

// NewButterfly builds a butterfly over the given number of ports, which
// must be a power of two of at least 2.
func NewButterfly(ports int) (*Butterfly, error) {
	if ports < 2 || ports&(ports-1) != 0 {
		return nil, fmt.Errorf("topology: butterfly ports must be a power of two >= 2, got %d", ports)
	}
	stages := 0
	for 1<<stages < ports {
		stages++
	}
	return &Butterfly{Ports: ports, Stages: stages}, nil
}

// NumLinks returns the number of distinct inter-stage links.
func (b *Butterfly) NumLinks() int { return b.Stages * b.Ports }

// Path appends to dst the link identifiers a message traverses from input
// port src to output port dstPort under destination-tag (self) routing: at
// stage s the message is switched so that the node index acquires bit
// (Stages-1-s) of the destination. Two messages conflict exactly when they
// share a link identifier.
func (b *Butterfly) Path(dst []int, src, dstPort int) []int {
	if src < 0 || src >= b.Ports || dstPort < 0 || dstPort >= b.Ports {
		panic(fmt.Sprintf("topology: butterfly path %d->%d out of range [0,%d)", src, dstPort, b.Ports))
	}
	node := src
	for s := 0; s < b.Stages; s++ {
		bit := b.Stages - 1 - s
		mask := 1 << bit
		// Set bit `bit` of the node index to the destination's bit.
		node = (node &^ mask) | (dstPort & mask)
		// Link entering stage-(s+1) node `node` from stage s.
		dst = append(dst, s*b.Ports+node)
	}
	return dst
}
