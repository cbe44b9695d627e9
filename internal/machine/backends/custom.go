package backends

import (
	"fmt"

	"quantpar/internal/machine"
	"quantpar/internal/router/fattree"
	"quantpar/internal/router/maspar"
	"quantpar/internal/router/mesh"
)

// The custom constructors build machines with non-default geometry or
// physical constants, for what-if studies beyond the paper's three
// platforms ("what would the GCel look like with 256 nodes?"). The preset
// factories (NewMasPar etc.) call them with the default parameters.

// CustomMesh builds a GCel-style transputer-mesh machine from explicit
// router parameters and a compute model. Pass mesh.DefaultParams() and
// DefaultGCelCompute() to get the paper's GCel at a different size.
func CustomMesh(name string, p mesh.Params, c machine.Compute) (*machine.Machine, error) {
	r, err := mesh.New(p)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	return machine.Assemble(name, r, c, 4, false)
}

// CustomFatTree builds a CM-5-style machine from explicit router
// parameters and a compute model.
func CustomFatTree(name string, p fattree.Params, c machine.Compute) (*machine.Machine, error) {
	r, err := fattree.New(p)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	return machine.Assemble(name, r, c, 8, false)
}

// CustomMasPar builds a MasPar-style SIMD machine from explicit router
// parameters and a compute model (PE count must be a power-of-two multiple
// of the cluster size).
func CustomMasPar(name string, p maspar.Params, c machine.Compute) (*machine.Machine, error) {
	r, err := maspar.New(p)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	return machine.Assemble(name, r, c, 4, true)
}
