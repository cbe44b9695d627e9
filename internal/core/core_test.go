package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBSPSuperstep(t *testing.T) {
	b := BSP{P: 64, G: 10, L: 100}
	if got := b.Superstep(50, 3, 7); got != 50+70+100 {
		t.Fatalf("superstep cost %g, want 220", got)
	}
	if got := b.Superstep(0, 7, 3); got != 170 {
		t.Fatalf("superstep cost %g, want 170 (max of fan-in/out)", got)
	}
	if got := b.HRelation(5); got != 150 {
		t.Fatalf("h-relation %g", got)
	}
	if b.String() == "" {
		t.Fatal("empty string")
	}
}

func TestMPBSPCosts(t *testing.T) {
	m := MPBSP{P: 64, G: 10, L: 100}
	if got := m.CommStep(4); got != 140 {
		t.Fatalf("comm step %g", got)
	}
	if got := m.WordSteps(7); got != 770 {
		t.Fatalf("word steps %g", got)
	}
}

func TestMPBPRAMTransfer(t *testing.T) {
	m := MPBPRAM{P: 64, Sigma: 2, Ell: 50}
	if got := m.Transfer(100); got != 250 {
		t.Fatalf("transfer %g", got)
	}
}

func TestEBSP(t *testing.T) {
	e := EBSP{
		MPBSP: MPBSP{P: 64, G: 10, L: 100},
		Tunb:  func(active int) float64 { return float64(active) },
	}
	if got := e.UnbalancedStep(32); got != 32 {
		t.Fatalf("unbalanced step %g", got)
	}
	if got := e.UnbalancedStep(1000); got != 64 {
		t.Fatalf("unbalanced step clamps at P: %g", got)
	}
	if got := e.UnbalancedStep(0); got != 0 {
		t.Fatalf("zero active %g", got)
	}
	// Relation: an h-relation is the special case M = h*P, h1 = h2 = h.
	if got, want := e.Relation(5*64, 5, 5), e.G*5+e.L; got != want {
		t.Fatalf("relation %g, want %g", got, want)
	}
	// Total volume can dominate.
	if got := e.Relation(64*10, 1, 1); got != e.G*10+e.L {
		t.Fatalf("volume-dominated relation %g", got)
	}
}

func TestIntLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 64: 6, 1024: 10}
	for n, want := range cases {
		if got := IntLog2(n); got != want {
			t.Fatalf("IntLog2(%d) = %d, want %d", n, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("IntLog2(0) did not panic")
		}
	}()
	IntLog2(0)
}

func TestCubeRootAndSqrt(t *testing.T) {
	if q, err := CubeRootP(512); err != nil || q != 8 {
		t.Fatalf("CubeRootP(512) = %d, %v", q, err)
	}
	if q, err := CubeRootP(1000); err != nil || q != 10 {
		t.Fatalf("CubeRootP(1000) = %d, %v", q, err)
	}
	if _, err := CubeRootP(100); err == nil {
		t.Fatal("CubeRootP(100) succeeded")
	}
	if s, err := SqrtP(1024); err != nil || s != 32 {
		t.Fatalf("SqrtP(1024) = %d, %v", s, err)
	}
	if _, err := SqrtP(48); err == nil {
		t.Fatal("SqrtP(48) succeeded")
	}
	// Property: perfect cubes always round-trip.
	f := func(qRaw uint8) bool {
		q := int(qRaw)%20 + 1
		got, err := CubeRootP(q * q * q)
		return err == nil && got == q
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Hand-computed values of the Section 4 formulas.
func TestPredictMatMul(t *testing.T) {
	costs := AlgoCosts{Alpha: 2, BetaSum: 1, WordBytes: 4}
	b := BSP{P: 64, G: 10, L: 100}
	// N=16, q=4: alpha*N^3/P = 2*4096/64 = 128; blk = 256/16 = 16;
	// beta*16 = 16; 3*g*16 = 480; 2L = 200 -> 824.
	got, err := PredictMatMulBSP(b, costs, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got != 824 {
		t.Fatalf("BSP matmul prediction %g, want 824", got)
	}
	mp := MPBSP{P: 64, G: 10, L: 100}
	// 128 + 16 + 3*(110)*16 = 5424.
	got, err = PredictMatMulMPBSP(mp, costs, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5424 {
		t.Fatalf("MP-BSP matmul prediction %g, want 5424", got)
	}
	bp := MPBPRAM{P: 64, Sigma: 1, Ell: 50}
	// 128 + 16 + 3*4*(sigma*w*256/64 + 50) = 144 + 12*(16+50) = 936.
	got, err = PredictMatMulBPRAM(bp, costs, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got != 936 {
		t.Fatalf("BPRAM matmul prediction %g, want 936", got)
	}
	// Shape errors.
	if _, err := PredictMatMulBSP(BSP{P: 60}, costs, 16); err == nil {
		t.Fatal("non-cube P accepted")
	}
	if _, err := PredictMatMulBSP(b, costs, 17); err == nil {
		t.Fatal("indivisible N accepted")
	}
}

func TestPredictBitonic(t *testing.T) {
	costs := AlgoCosts{MergeC: 1, SortBeta: 0, SortGamma: 1, WordBytes: 4}
	b := BSP{P: 16, G: 2, L: 10}
	// n=160, M=10, logP=4, stages=10, local sort = 4*10=40.
	// per stage-step: 1*10 + 2*10 + 10 = 40; total = 40 + 400 = 440.
	if got := PredictBitonicBSP(b, costs, 160); got != 440 {
		t.Fatalf("BSP bitonic %g, want 440", got)
	}
	mp := MPBSP{P: 16, G: 2, L: 10}
	// per stage-step: 10 + 12*10 = 130; total = 40 + 1300.
	if got := PredictBitonicMPBSP(mp, costs, 160); got != 1340 {
		t.Fatalf("MP-BSP bitonic %g, want 1340", got)
	}
	bp := MPBPRAM{P: 16, Sigma: 0.5, Ell: 5}
	// transfer(40 bytes) = 25; per step 10+25 = 35; total = 40+350.
	if got := PredictBitonicBPRAM(bp, costs, 160); got != 390 {
		t.Fatalf("BPRAM bitonic %g, want 390", got)
	}
}

func TestPredictSampleSort(t *testing.T) {
	costs := AlgoCosts{MergeC: 1, SortBeta: 0, SortGamma: 1, OpC: 1, WordBytes: 4}
	bp := MPBPRAM{P: 16, Sigma: 0.5, Ell: 5}
	got, err := PredictSampleSortBPRAM(bp, costs, 16*64, 4, 80)
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 || math.IsNaN(got) {
		t.Fatalf("sample sort prediction %g", got)
	}
	// Must exceed its own splitter phase (a bitonic of P*S keys).
	if got <= PredictBitonicBPRAM(bp, costs, 64) {
		t.Fatalf("prediction %g below splitter phase alone", got)
	}
	if _, err := PredictSampleSortBPRAM(MPBPRAM{P: 15}, costs, 15*64, 4, 80); err == nil {
		t.Fatal("non-square P accepted")
	}
}

func TestPredictAPSP(t *testing.T) {
	costs := AlgoCosts{Alpha: 1, WordBytes: 4}
	b := BSP{P: 16, G: 2, L: 10}
	// N=16, sqrt(P)=4, M=4 >= 4: bcast = 2*(2*4+10) = 36.
	// alpha*N^3/P = 256; total = 256 + 2*16*36 = 1408.
	got, err := PredictAPSPBSP(b, costs, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1408 {
		t.Fatalf("APSP BSP %g, want 1408", got)
	}
	// M < sqrt(P) adds the doubling term.
	got2, err := PredictAPSPBSP(b, costs, 8)
	if err != nil {
		t.Fatal(err)
	}
	// N=8, M=2: bcast = 2*(2*2+10) + (2+10)*log(2) = 28+12 = 40;
	// 512/16 = 32; total = 32 + 2*8*40 = 672.
	if got2 != 672 {
		t.Fatalf("APSP BSP (M<sqrtP) %g, want 672", got2)
	}
	e := EBSP{MPBSP: MPBSP{P: 16, G: 2, L: 10}, Tunb: func(a int) float64 { return float64(a) }}
	got3, err := PredictAPSPEBSP(e, costs, 16)
	if err != nil {
		t.Fatal(err)
	}
	// bcast = M*Tunb(4) + M*Tunb(16) = 16+64 = 80; total = 256 + 2*16*80.
	if got3 != 256+2560 {
		t.Fatalf("APSP E-BSP %g, want 2816", got3)
	}
	if _, err := PredictAPSPBSP(BSP{P: 15}, costs, 15); err == nil {
		t.Fatal("non-square P accepted")
	}
	if _, err := PredictAPSPBSP(b, costs, 13); err == nil {
		t.Fatal("indivisible N accepted")
	}
}

func TestAlgoCostsLocalSort(t *testing.T) {
	c := AlgoCosts{SortBeta: 2, SortGamma: 3}
	// 4 passes * (2*256 + 3*100) = 4*812 = 3248.
	if got := c.LocalSort(100); got != 3248 {
		t.Fatalf("local sort %g, want 3248", got)
	}
}

func TestSeriesMetrics(t *testing.T) {
	s := Series{
		Name: "t", XLabel: "x",
		Xs:        []float64{1, 2},
		Measured:  []float64{100, 200},
		Predicted: []float64{110, 180},
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if e := s.RelErrAt(0); math.Abs(e-0.1) > 1e-12 {
		t.Fatalf("rel err %g", e)
	}
	if e := s.MaxAbsRelErr(); math.Abs(e-0.1) > 1e-12 {
		t.Fatalf("max abs rel err %g", e)
	}
	if b := s.Bias(); b != 0 {
		t.Fatalf("bias %d, want 0 (mixed)", b)
	}
	over := Series{Xs: []float64{1}, Measured: []float64{100}, Predicted: []float64{150}}
	if over.Bias() != 1 {
		t.Fatal("overestimating series not flagged")
	}
	under := Series{Xs: []float64{1}, Measured: []float64{100}, Predicted: []float64{50}}
	if under.Bias() != -1 {
		t.Fatal("underestimating series not flagged")
	}
	if s.Table() == "" {
		t.Fatal("empty table")
	}
	bad := Series{Xs: []float64{1}, Measured: []float64{1}}
	if err := bad.Check(); err == nil {
		t.Fatal("mismatched series passed Check")
	}
	empty := Series{}
	if err := empty.Check(); err == nil {
		t.Fatal("empty series passed Check")
	}
}
