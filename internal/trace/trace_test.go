package trace

import (
	"strings"
	"testing"
)

func TestRecorderAccumulates(t *testing.T) {
	r := NewRecorder()
	r.Record(Superstep{Barrier: true, Compute: 10, Wall: 35, Msgs: 4, Bytes: 16, H: 1, Active: 8})
	r.Record(Superstep{Barrier: true, Compute: 5, Wall: 20, Msgs: 4, Bytes: 16, H: 1, Active: 8})
	r.Record(Superstep{Compute: 0, Wall: 7, Msgs: 2, Bytes: 8, H: 2, Active: 3})
	if r.Len() != 3 {
		t.Fatalf("len %d", r.Len())
	}
	steps := r.Steps()
	if steps[0].Index != 0 || steps[2].Index != 2 {
		t.Fatalf("indices %d %d", steps[0].Index, steps[2].Index)
	}
	if got := steps[0].Comm(); got != 25 {
		t.Fatalf("comm %g", got)
	}
	tot := r.Totals()
	if tot.Supersteps != 3 || tot.Compute != 15 || tot.Comm != 47 || tot.Msgs != 10 || tot.Bytes != 40 || tot.MaxH != 2 {
		t.Fatalf("totals %+v", tot)
	}
}

func TestCommNeverNegative(t *testing.T) {
	s := Superstep{Compute: 50, Wall: 40}
	if s.Comm() != 0 {
		t.Fatalf("negative comm leaked: %g", s.Comm())
	}
}

func TestRenderCollapsesRuns(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 10; i++ {
		r.Record(Superstep{Barrier: true, Compute: 1, Wall: 3, Msgs: 4, Bytes: 16, H: 1, Active: 8})
	}
	r.Record(Superstep{Barrier: true, Compute: 2, Wall: 9, Msgs: 7, Bytes: 28, H: 2, Active: 9})
	var b strings.Builder
	r.Render(&b)
	out := b.String()
	if !strings.Contains(out, "0-9") {
		t.Fatalf("identical steps not collapsed:\n%s", out)
	}
	if !strings.Contains(out, "total: 11 supersteps") {
		t.Fatalf("missing totals:\n%s", out)
	}
}
