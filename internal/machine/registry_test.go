package machine

import (
	"strings"
	"testing"

	"quantpar/internal/comm"
	"quantpar/internal/netsim"
	"quantpar/internal/phase"
	"quantpar/internal/sim"
)

// stubEngine is a minimal engine, for exercising the registry without
// pulling in a concrete backend.
type stubEngine struct {
	procs int
	wd    sim.Watchdog
}

func (e *stubEngine) Procs() int                             { return e.procs }
func (e *stubEngine) Route(*comm.Step, *sim.RNG) comm.Result { return comm.Result{} }
func (e *stubEngine) Watchdog() *sim.Watchdog                { return &e.wd }

func stubNet(procs int) *netsim.Core {
	return netsim.NewCore(netsim.NewSpec("stub"), &stubEngine{procs: procs})
}

func testFactory(name string, procs int) Factory {
	return func() (*Machine, error) {
		return Assemble(name, stubNet(procs), &BasicCompute{AlphaC: 1, Beta: 1, Gamma: 1}, 4, false)
	}
}

func TestRegistryBuild(t *testing.T) {
	Register("registry-test-a", testFactory("A", 4))
	m, err := Build("registry-test-a")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "A" || m.P() != 4 {
		t.Fatalf("built machine %q P=%d", m.Name, m.P())
	}
	// Each Build constructs a fresh machine, not a shared instance.
	m2, err := Build("registry-test-a")
	if err != nil {
		t.Fatal(err)
	}
	if m == m2 {
		t.Fatal("Build returned a shared machine instance")
	}
}

func TestRegistryUnknown(t *testing.T) {
	Register("registry-test-b", testFactory("B", 2))
	_, err := Build("no-such-machine")
	if err == nil {
		t.Fatal("unknown machine accepted")
	}
	// The error names the registered machines so typos are debuggable.
	if !strings.Contains(err.Error(), "registry-test-b") {
		t.Fatalf("error does not list registered names: %v", err)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	Register("registry-test-dup", testFactory("D", 2))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register("registry-test-dup", testFactory("D", 2))
}

func TestRegistryNilFactoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil factory did not panic")
		}
	}()
	Register("registry-test-nil", nil)
}

func TestNamesSorted(t *testing.T) {
	Register("registry-test-z", testFactory("Z", 2))
	Register("registry-test-c", testFactory("C", 2))
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
	found := 0
	for _, n := range names {
		if n == "registry-test-z" || n == "registry-test-c" {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("registered names missing from %v", names)
	}
}

// TestAssembleRequiresIdentity: a machine prices through the phase memo
// over its own core, which carries the memo identity, and Assemble refuses
// a zero compute model.
func TestAssembleRequiresIdentity(t *testing.T) {
	net := stubNet(2)
	m, err := Assemble("anon", net, &BasicCompute{AlphaC: 1, Beta: 1, Gamma: 1}, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if cr, ok := m.Router.(*phase.CachedRouter); !ok || cr.Unwrap() != comm.Router(net) || m.Net != net {
		t.Fatalf("router %T over %v, want the phase memo over the machine's core", m.Router, m.Net)
	}
	if _, err := Assemble("anon", stubNet(2), &BasicCompute{}, 4, false); err == nil {
		t.Error("zero compute model accepted")
	}
}
