package backends_test

import (
	"math"
	"testing"

	"quantpar/internal/comm"
	"quantpar/internal/machine"
	"quantpar/internal/machine/backends"
	"quantpar/internal/sim"
	"quantpar/internal/topology"
)

func TestConstructors(t *testing.T) {
	cases := []struct {
		name string
		p    int
		word int
		simd bool
	}{
		{"maspar", 1024, 4, true},
		{"gcel", 64, 4, false},
		{"cm5", 64, 8, false},
		{"cluster", 64, 8, false},
	}
	for _, c := range cases {
		m, err := machine.Build(c.name)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if m.P() != c.p {
			t.Fatalf("%s: P=%d, want %d", c.name, m.P(), c.p)
		}
		if m.WordBytes != c.word {
			t.Fatalf("%s: word %d, want %d", c.name, m.WordBytes, c.word)
		}
		if m.SIMD != c.simd {
			t.Fatalf("%s: SIMD=%v", c.name, m.SIMD)
		}
		if m.Name == "" || m.Router == nil || m.Compute == nil {
			t.Fatalf("%s: incomplete machine", c.name)
		}
	}
}

func TestRegistryListsAllBackends(t *testing.T) {
	have := map[string]bool{}
	for _, n := range machine.Names() {
		have[n] = true
	}
	for _, want := range []string{"maspar", "gcel", "cm5", "cluster"} {
		if !have[want] {
			t.Fatalf("registry missing %q: %v", want, machine.Names())
		}
	}
}

func TestXNetCapability(t *testing.T) {
	// The MasPar backend sets the XNet neighbourhood-shift pricer; the
	// others leave it nil, which is how consumers tell them apart.
	m, err := machine.Build("maspar")
	if err != nil {
		t.Fatal(err)
	}
	if m.XNet == nil {
		t.Fatal("MasPar machine does not expose the XNet capability")
	}
	if c := m.XNet(4, -1); c <= 0 {
		t.Fatalf("XNet(4, -1) = %g", c)
	}
	for _, name := range []string{"gcel", "cm5", "cluster"} {
		g, err := machine.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		if g.XNet != nil {
			t.Fatalf("%s exposes an XNet capability", name)
		}
	}
}

// TestCustomMachines builds each backend through its constructor at a
// non-default geometry, then at an invalid one, which must return an error
// rather than panic.
func TestCustomMachines(t *testing.T) {
	cases := []struct {
		name       string
		build      func(size int) (*machine.Machine, error)
		size, bad  int
		p, word    int
		simd, xnet bool
	}{
		{"gcel", func(side int) (*machine.Machine, error) {
			p := backends.DefaultGCelParams()
			p.Width, p.Height = side, side
			return backends.GCel(p)
		}, 4, 0, 16, 4, false, false},
		{"cm5", func(leaves int) (*machine.Machine, error) {
			p := backends.DefaultCM5Params()
			p.Procs = leaves
			return backends.CM5(p)
		}, 16, 15, 16, 8, false, false},
		{"maspar", func(pes int) (*machine.Machine, error) {
			p := backends.DefaultMasParParams()
			p.PEs = pes
			return backends.MasPar(p)
		}, 256, 48, 256, 4, true, true},
		{"cluster", func(ary int) (*machine.Machine, error) {
			p := backends.DefaultClusterParams()
			p.Ary, p.Dims = ary, 2
			return backends.Cluster(p)
		}, 3, 1, 9, 8, false, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := c.build(c.size)
			if err != nil {
				t.Fatal(err)
			}
			if m.P() != c.p || m.WordBytes != c.word || m.SIMD != c.simd || (m.XNet != nil) != c.xnet {
				t.Fatalf("P=%d word=%d SIMD=%v XNet=%v, want %d %d %v %v",
					m.P(), m.WordBytes, m.SIMD, m.XNet != nil, c.p, c.word, c.simd, c.xnet)
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("invalid size %d panicked: %v", c.bad, r)
				}
			}()
			if _, err := c.build(c.bad); err == nil {
				t.Fatalf("invalid size %d accepted", c.bad)
			}
		})
	}
}

// TestLoneMessageCost prices one message from processor 0 to the last
// processor on every backend, jitter off, against the backend's closed-form
// cost. The costs must agree to 1e-12 relative: summation order moves only
// the last bits.
func TestLoneMessageCost(t *testing.T) {
	gcel := backends.DefaultGCelParams()
	gcel.Jitter = 0
	cm5 := backends.DefaultCM5Params()
	cm5.Jitter = 0
	cluster := backends.DefaultClusterParams()
	cluster.Jitter = 0
	maspar := backends.DefaultMasParParams()
	mesh, err := topology.NewMesh(gcel.Width, gcel.Height)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := topology.NewFatTree(cm5.Procs, cm5.Arity)
	if err != nil {
		t.Fatal(err)
	}
	torus, err := topology.NewTorus(cluster.Ary, cluster.Dims)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		build   func() (*machine.Machine, error)
		cost    func(dst, b int) float64 // without a barrier
		barrier float64                  // what a barrier adds
	}{
		{"gcel", func() (*machine.Machine, error) { return backends.GCel(gcel) }, func(dst, b int) float64 {
			hops := float64(mesh.Hops(0, dst))
			return gcel.SendCost(b) + hops*(gcel.THop+float64(b)*gcel.TByteLink) + gcel.RecvCost(b)
		}, gcel.BarrierCost},
		{"cm5", func() (*machine.Machine, error) { return backends.CM5(cm5) }, func(dst, b int) float64 {
			hops := float64(tree.Hops(0, dst))
			return cm5.SendCost(b) + hops*cm5.THop + float64(b)*cm5.TByteNet + cm5.RecvCost(b)
		}, cm5.BarrierCost},
		{"cluster", func() (*machine.Machine, error) { return backends.Cluster(cluster) }, func(dst, b int) float64 {
			hops := float64(torus.Hops(0, dst))
			return cluster.SendCost(b) + hops*cluster.THop + float64(b)*cluster.TByteNet + cluster.RecvCost(b)
		}, cluster.BarrierCost},
		{"maspar", func() (*machine.Machine, error) { return backends.MasPar(maspar) }, func(_, b int) float64 {
			c := maspar.LFixed + maspar.TCircuit + maspar.TLaunch
			if b <= maspar.BlockThreshold {
				return c + float64(b)*maspar.TByte
			}
			return c + maspar.TBlockSetup + float64(b)*maspar.TByteBlock
		}, 0},
	}
	for _, c := range cases {
		m, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		dst := m.P() - 1
		for _, b := range []int{4, 8, 64, 4096} {
			for _, barrier := range []bool{false, true} {
				s := &comm.Step{Sends: make([][]comm.Msg, m.P()), Barrier: barrier}
				s.Sends[0] = []comm.Msg{{Src: 0, Dst: dst, Bytes: b}}
				got := m.Net.Route(s, sim.NewRNG(1)).Elapsed
				want := c.cost(dst, b)
				if barrier {
					want += c.barrier
				}
				if math.Abs(got-want) > 1e-12*want {
					t.Errorf("%s: %d bytes, barrier %v: %.17g us, want %.17g", c.name, b, barrier, got, want)
				}
			}
		}
	}
}
