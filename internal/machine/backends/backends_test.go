package backends_test

import (
	"testing"

	"quantpar/internal/machine"
	"quantpar/internal/machine/backends"
	"quantpar/internal/router/fattree"
	"quantpar/internal/router/maspar"
	"quantpar/internal/router/mesh"
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
	// The MasPar backend exposes the XNet neighbourhood-shift pricer; the
	// others do not - consumers must feature-test via the capability, not
	// via a concrete router type.
	m, err := machine.Build("maspar")
	if err != nil {
		t.Fatal(err)
	}
	if m.XNet == nil {
		t.Fatal("MasPar machine does not expose the XNet capability")
	}
	if c := m.XNet.XnetShift(4, -1); c <= 0 {
		t.Fatalf("XnetShift(4, -1) = %g", c)
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
			p := mesh.DefaultParams()
			p.Width, p.Height = side, side
			return backends.GCel(p)
		}, 4, 0, 16, 4, false, false},
		{"cm5", func(leaves int) (*machine.Machine, error) {
			p := fattree.DefaultParams()
			p.Procs = leaves
			return backends.CM5(p)
		}, 16, 15, 16, 8, false, false},
		{"maspar", func(pes int) (*machine.Machine, error) {
			p := maspar.DefaultParams()
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
