package machine

import (
	"strings"
	"testing"

	"quantpar/internal/comm"
	"quantpar/internal/sim"
)

// stubRouter is a minimal router with a cache identity, for exercising the
// registry without pulling in a concrete backend.
type stubRouter struct{ procs int }

func (r *stubRouter) Name() string { return "stub" }
func (r *stubRouter) Procs() int   { return r.procs }
func (r *stubRouter) Route(step *comm.Step, rng *sim.RNG) comm.Result {
	return comm.Result{}
}
func (r *stubRouter) Fingerprint() uint64 { return 0xdead }
func (r *stubRouter) UsesRNG() bool       { return false }

// bareRouter satisfies comm.Router but exposes no Fingerprint/UsesRNG.
type bareRouter struct{}

func (bareRouter) Name() string { return "bare" }
func (bareRouter) Procs() int   { return 2 }
func (bareRouter) Route(step *comm.Step, rng *sim.RNG) comm.Result {
	return comm.Result{}
}

func testFactory(name string, procs int) Factory {
	return func() (*Machine, error) {
		return Assemble(name, &stubRouter{procs: procs}, &BasicCompute{AlphaC: 1, Beta: 1, Gamma: 1}, 4, false)
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

func TestAssembleRequiresIdentity(t *testing.T) {
	cases := []struct {
		name string
		r    comm.Router
		c    Compute
	}{
		// A router without Fingerprint/UsesRNG cannot be memoized, so
		// Assemble must refuse it rather than silently skip the phase cache.
		{"router without identity", bareRouter{}, &BasicCompute{AlphaC: 1, Beta: 1, Gamma: 1}},
		{"zero compute model", &stubRouter{procs: 2}, &BasicCompute{}},
	}
	for _, c := range cases {
		if _, err := Assemble("anon", c.r, c.c, 4, false); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}
