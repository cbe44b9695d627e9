// Package backends registers the concrete machine models with the machine
// registry. Importing it (usually blank) makes the paper's three platforms
// - "maspar", "gcel", "cm5" - plus the modern "cluster" backend available
// through machine.Build; nothing outside this package needs to import a
// concrete router package to construct a machine.
//
// Each backend has one constructor taking its router parameters. The
// registry calls it with the default parameters; what-if studies beyond
// the paper's platforms ("what would the GCel look like with 256 nodes?")
// call it with their own. The compute model is fixed per backend.
package backends

import (
	"fmt"

	"quantpar/internal/machine"
	"quantpar/internal/router/fattree"
	"quantpar/internal/router/maspar"
	"quantpar/internal/router/mesh"
)

func init() {
	machine.Register("maspar", func() (*machine.Machine, error) { return MasPar(maspar.DefaultParams()) })
	machine.Register("gcel", func() (*machine.Machine, error) { return GCel(mesh.DefaultParams()) })
	machine.Register("cm5", func() (*machine.Machine, error) { return CM5(fattree.DefaultParams()) })
	machine.Register("cluster", func() (*machine.Machine, error) { return Cluster(DefaultClusterParams()) })
}

// MasPar builds a MasPar MP-1 SIMD machine; maspar.DefaultParams() gives
// the paper's 1024 PEs. The PE count must be a power-of-two multiple of
// the cluster size. A 1K MP-1 peaks at 75 Mflops single precision, i.e.
// 27.3 us per compound (add+multiply) PE operation; the register-blocked
// local multiply of Section 4.1.1 runs at about 80% of that.
func MasPar(p maspar.Params) (*machine.Machine, error) {
	r, err := maspar.New(p)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	c := &machine.BasicCompute{AlphaC: 34, Beta: 2.0, Gamma: 11, MergeC: 7, OpC: 2.5, CallOverh: 60}
	return machine.Assemble("MasPar MP-1", r, c, 4, true)
}

// GCel builds a Parsytec GCel transputer mesh; mesh.DefaultParams() gives
// the paper's 64 nodes. Each node is a 30 MHz T805 at roughly 1.5 Mflops
// nominal with flat memory.
func GCel(p mesh.Params) (*machine.Machine, error) {
	r, err := mesh.New(p)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	c := &machine.BasicCompute{AlphaC: 1.35, Beta: 0.5, Gamma: 1.6, MergeC: 1.2, OpC: 0.35, CallOverh: 15}
	return machine.Assemble("Parsytec GCel", r, c, 4, false)
}

// CM5 builds a TMC CM-5 fat tree (Split-C, no vector units);
// fattree.DefaultParams() gives the paper's 64 nodes. Its Sparc compute
// model includes the measured local-matmul rate curve of Section 4.1.1
// (the nominal alpha is 2/(7.0 Mflops), the paper's alpha).
func CM5(p fattree.Params) (*machine.Machine, error) {
	r, err := fattree.New(p)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	c := &machine.CachedCompute{
		BasicCompute: machine.BasicCompute{AlphaC: 0.286, Beta: 0.12, Gamma: 0.42, MergeC: 0.34, OpC: 0.09, CallOverh: 4},
		RateDims:     []int{4, 8, 16, 32, 64, 128, 256, 512, 1024},
		RateMflops:   []float64{2.0, 3.2, 4.6, 6.5, 7.0, 7.3, 6.9, 5.2, 4.8},
	}
	return machine.Assemble("TMC CM-5", r, c, 8, false)
}
