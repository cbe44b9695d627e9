package vendorlib

import (
	"testing"

	"quantpar/internal/machine/backends"
)

func TestMasParIntrinsicEnvelope(t *testing.T) {
	m, err := backends.MasPar(backends.DefaultMasParParams())
	if err != nil {
		t.Fatal(err)
	}
	ti, err := MasParMatMulTime(m.P(), m.XNet, 700)
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports 61.7 Mflops at N=700 on 1K PEs.
	rate := Mflops(700, ti)
	if rate < 45 || rate > 78 {
		t.Fatalf("intrinsic rate %.1f Mflops at N=700, want ~62", rate)
	}
	// Monotone in N.
	t1, _ := MasParMatMulTime(m.P(), m.XNet, 100)
	t2, _ := MasParMatMulTime(m.P(), m.XNet, 400)
	if t2 <= t1 {
		t.Fatalf("time not monotone: %g vs %g", t1, t2)
	}
	if _, err := MasParMatMulTime(m.P(), m.XNet, 0); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := MasParMatMulTime(m.P(), nil, 100); err == nil {
		t.Fatal("nil xnet pricer accepted")
	}
}

func TestCMSSLEnvelope(t *testing.T) {
	cfg := DefaultCMSSL()
	tc, err := CMSSLGenMatrixMultTime(cfg, 512)
	if err != nil {
		t.Fatal(err)
	}
	rate := Mflops(512, tc)
	// The paper reports gen_matrix_mult never exceeds 151 Mflops.
	if rate < 100 || rate > 160 {
		t.Fatalf("CMSSL rate %.0f Mflops at N=512, want ~150", rate)
	}
	// With vector units: about 1016 Mflops at N=512.
	tv, err := CMSSLGenMatrixMultTime(CMSSLConfig{Procs: 64, VectorUnits: true}, 512)
	if err != nil {
		t.Fatal(err)
	}
	vrate := Mflops(512, tv)
	if vrate < 700 || vrate > 1400 {
		t.Fatalf("vector-unit rate %.0f Mflops, want ~1016", vrate)
	}
	if _, err := CMSSLGenMatrixMultTime(CMSSLConfig{Procs: 0}, 64); err == nil {
		t.Fatal("zero processors accepted")
	}
	if _, err := CMSSLGenMatrixMultTime(cfg, -1); err == nil {
		t.Fatal("negative N accepted")
	}
}
