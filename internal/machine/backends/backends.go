// Package backends registers the concrete machine models with the machine
// registry. Importing it (usually blank) makes the paper's three platforms
// - "maspar", "gcel", "cm5" - plus the modern "cluster" backend available
// through machine.Build.
//
// Every backend is built the same way: a params struct of calibrated
// constants, an engine config for one of netsim's engines, a topology
// closure (path, transit or latency), and a netsim.Spec folding every
// constant into the memo identity, passed to netsim.NewCore and then to
// machine.Assemble. The registry calls each constructor with its default
// params; what-if studies beyond the paper's platforms ("what would the
// GCel look like with 256 nodes?") call it with their own. The compute
// model is fixed per backend.
package backends

import "quantpar/internal/machine"

func init() {
	machine.Register("maspar", func() (*machine.Machine, error) { return MasPar(DefaultMasParParams()) })
	machine.Register("gcel", func() (*machine.Machine, error) { return GCel(DefaultGCelParams()) })
	machine.Register("cm5", func() (*machine.Machine, error) { return CM5(DefaultCM5Params()) })
	machine.Register("cluster", func() (*machine.Machine, error) { return Cluster(DefaultClusterParams()) })
}
