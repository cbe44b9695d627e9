package fit

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLeastSquaresLineExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3.5*x + 7
	}
	l, err := LeastSquaresLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.Slope-3.5) > 1e-9 || math.Abs(l.Intercept-7) > 1e-9 {
		t.Fatalf("fit %v, want slope 3.5 intercept 7", l)
	}
	if l.R2 < 1-1e-12 {
		t.Fatalf("exact fit R^2 = %g", l.R2)
	}
	if got := l.Eval(10); math.Abs(got-42) > 1e-9 {
		t.Fatalf("Eval(10) = %g, want 42", got)
	}
}

// Property: the line fit recovers random slopes and intercepts from
// noise-free samples.
func TestLeastSquaresLineRecovery(t *testing.T) {
	f := func(a8, b8 int8) bool {
		a, b := float64(a8), float64(b8)
		xs := []float64{0, 1, 2, 5, 9, 12}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = a*x + b
		}
		l, err := LeastSquaresLine(xs, ys)
		if err != nil {
			return false
		}
		return math.Abs(l.Slope-a) < 1e-6 && math.Abs(l.Intercept-b) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLeastSquaresLineDegenerate(t *testing.T) {
	if _, err := LeastSquaresLine([]float64{1}, []float64{2}); err == nil {
		t.Fatal("single point fit succeeded")
	}
	if _, err := LeastSquaresLine([]float64{3, 3, 3}, []float64{1, 2, 3}); err == nil {
		t.Fatal("vertical data fit succeeded")
	}
	if _, err := LeastSquaresLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestLeastSquaresPolyExact(t *testing.T) {
	// y = 2x^2 - 3x + 1
	xs := []float64{-2, -1, 0, 1, 2, 3}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2*x*x - 3*x + 1
	}
	p, err := LeastSquaresPoly(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -3, 2}
	for i, w := range want {
		if math.Abs(p.Coef[i]-w) > 1e-8 {
			t.Fatalf("coef[%d] = %g, want %g (all %v)", i, p.Coef[i], w, p.Coef)
		}
	}
	if got := p.Eval(4); math.Abs(got-21) > 1e-8 {
		t.Fatalf("Eval(4) = %g, want 21", got)
	}
}

func TestLeastSquaresPolyErrors(t *testing.T) {
	if _, err := LeastSquaresPoly([]float64{1, 2}, []float64{1, 2}, -1); err == nil {
		t.Fatal("negative degree accepted")
	}
	if _, err := LeastSquaresPoly([]float64{1, 2}, []float64{1, 2}, 2); err == nil {
		t.Fatal("underdetermined fit accepted")
	}
}

func TestLeastSquaresSqrtQuadratic(t *testing.T) {
	// The paper's T_unb form: y = 0.84x + 11.8*sqrt(x) + 73.3.
	xs := []float64{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 0.84*x + 11.8*math.Sqrt(x) + 73.3
	}
	s, err := LeastSquaresSqrtQuadratic(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.A-0.84) > 1e-6 || math.Abs(s.B-11.8) > 1e-5 || math.Abs(s.C-73.3) > 1e-4 {
		t.Fatalf("fit %v, want paper coefficients", s)
	}
	if _, err := LeastSquaresSqrtQuadratic([]float64{-1, 2, 3}, []float64{1, 2, 3}); err == nil {
		t.Fatal("negative abscissa accepted")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary %+v", s)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty summarize did not panic")
		}
	}()
	Summarize(nil)
}

func TestRelErr(t *testing.T) {
	if e := RelErr(110, 100); math.Abs(e-0.1) > 1e-12 {
		t.Fatalf("RelErr = %g", e)
	}
	if e := RelErr(90, 100); math.Abs(e+0.1) > 1e-12 {
		t.Fatalf("RelErr = %g", e)
	}
	if e := RelErr(0, 0); e != 0 {
		t.Fatalf("RelErr(0,0) = %g", e)
	}
	if e := RelErr(1, 0); !math.IsInf(e, 1) {
		t.Fatalf("RelErr(1,0) = %g", e)
	}
}

func TestMaxAbsRelErr(t *testing.T) {
	got := MaxAbsRelErr([]float64{110, 80}, []float64{100, 100})
	if math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("MaxAbsRelErr = %g, want 0.2", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched series did not panic")
		}
	}()
	MaxAbsRelErr([]float64{1}, []float64{1, 2})
}

// Property: R^2 of a line fit never exceeds 1 and equals 1 for exact data.
func TestR2Bounds(t *testing.T) {
	f := func(ys []float64) bool {
		if len(ys) < 3 {
			return true
		}
		if len(ys) > 40 {
			ys = ys[:40]
		}
		for _, y := range ys {
			if math.IsNaN(y) || math.IsInf(y, 0) || math.Abs(y) > 1e100 {
				return true
			}
		}
		xs := make([]float64, len(ys))
		for i := range xs {
			xs[i] = float64(i)
		}
		l, err := LeastSquaresLine(xs, ys)
		if err != nil {
			return true
		}
		return l.R2 <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
