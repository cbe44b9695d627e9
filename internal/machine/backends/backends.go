// Package backends registers the concrete machine models with the machine
// registry. Importing it (usually blank) makes the paper's three platforms
// - "maspar", "gcel", "cm5" - plus the modern "cluster" backend available
// through machine.Build; nothing outside this package needs to import a
// concrete router package to construct a machine.
package backends

import (
	"quantpar/internal/machine"
	"quantpar/internal/router/fattree"
	"quantpar/internal/router/maspar"
	"quantpar/internal/router/mesh"
)

func init() {
	machine.Register("maspar", NewMasPar)
	machine.Register("gcel", NewGCel)
	machine.Register("cm5", NewCM5)
	machine.Register("cluster", NewCluster)
}

// NewMasPar builds the 1024-PE MasPar MP-1 model.
func NewMasPar() (*machine.Machine, error) {
	return CustomMasPar("MasPar MP-1", maspar.DefaultParams(), DefaultMasParCompute())
}

// NewGCel builds the 64-node Parsytec GCel model.
func NewGCel() (*machine.Machine, error) {
	return CustomMesh("Parsytec GCel", mesh.DefaultParams(), DefaultGCelCompute())
}

// NewCM5 builds the 64-node CM-5 model (Split-C, no vector units).
func NewCM5() (*machine.Machine, error) {
	return CustomFatTree("TMC CM-5", fattree.DefaultParams(), DefaultCM5Compute())
}

// DefaultGCelCompute returns the T805 compute model used by NewGCel:
// a 30 MHz transputer at roughly 1.5 Mflops nominal, flat memory.
func DefaultGCelCompute() machine.Compute {
	return &machine.BasicCompute{AlphaC: 1.35, Beta: 0.5, Gamma: 1.6, MergeC: 1.2, OpC: 0.35, CallOverh: 15}
}

// DefaultCM5Compute returns the Sparc compute model used by NewCM5,
// including the measured local-matmul rate curve of Section 4.1.1 (the
// nominal alpha is 2/(7.0 Mflops), the paper's alpha).
func DefaultCM5Compute() machine.Compute {
	return &machine.CachedCompute{
		BasicCompute: machine.BasicCompute{AlphaC: 0.286, Beta: 0.12, Gamma: 0.42, MergeC: 0.34, OpC: 0.09, CallOverh: 4},
		RateDims:     []int{4, 8, 16, 32, 64, 128, 256, 512, 1024},
		RateMflops:   []float64{2.0, 3.2, 4.6, 6.5, 7.0, 7.3, 6.9, 5.2, 4.8},
	}
}

// DefaultMasParCompute returns the PE compute model used by NewMasPar:
// a 1K MP-1 peaks at 75 Mflops single precision, i.e. 27.3 us per compound
// (add+multiply) PE operation; the register-blocked local multiply of
// Section 4.1.1 runs at about 80% of that.
func DefaultMasParCompute() machine.Compute {
	return &machine.BasicCompute{AlphaC: 34, Beta: 2.0, Gamma: 11, MergeC: 7, OpC: 2.5, CallOverh: 60}
}
