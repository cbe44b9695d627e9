package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("new clock at %g, want 0", c.Now())
	}
	c.Advance(1.5)
	c.Advance(2.5)
	if c.Now() != 4 {
		t.Fatalf("clock at %g, want 4", c.Now())
	}
	if !c.AdvanceTo(10) || c.Now() != 10 {
		t.Fatalf("AdvanceTo(10) failed, clock at %g", c.Now())
	}
	if c.AdvanceTo(5) {
		t.Fatal("AdvanceTo(5) moved a clock already at 10")
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("reset clock at %g", c.Now())
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance did not panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestEventQueueOrdersByTime(t *testing.T) {
	var q EventQueue
	times := []Time{5, 1, 3, 2, 4, 0.5}
	for _, at := range times {
		q.Push(Event{At: at})
	}
	prev := math.Inf(-1)
	for q.Len() > 0 {
		e := q.Pop()
		if e.At < prev {
			t.Fatalf("event at %g popped after %g", e.At, prev)
		}
		prev = e.At
	}
}

func TestEventQueueFIFOAmongTies(t *testing.T) {
	var q EventQueue
	for i := 0; i < 10; i++ {
		q.Push(Event{At: 7, Who: i})
	}
	for i := 0; i < 10; i++ {
		if e := q.Pop(); e.Who != i {
			t.Fatalf("tie-broken event %d popped at position %d", e.Who, i)
		}
	}
}

func TestEventQueuePeekAndReset(t *testing.T) {
	var q EventQueue
	if _, ok := q.Peek(); ok {
		t.Fatal("peek on empty queue returned an event")
	}
	q.Push(Event{At: 2})
	q.Push(Event{At: 1})
	if e, ok := q.Peek(); !ok || e.At != 1 {
		t.Fatalf("peek got %+v, want event at 1", e)
	}
	if q.Len() != 2 {
		t.Fatalf("len %d after peek, want 2", q.Len())
	}
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("len %d after reset", q.Len())
	}
}

// TestEventQueuePushBatchMatchesPush pins the batch-scheduling contract:
// PushBatch must be observationally identical to pushing each event in
// slice order — same time ordering, same FIFO tie-break — across both the
// rebuild path (batch dominates the queue) and the sift-up path (small
// batch into a populated queue).
func TestEventQueuePushBatchMatchesPush(t *testing.T) {
	mkBatch := func(n, salt int) []Event {
		b := make([]Event, n)
		for i := range b {
			b[i] = Event{At: Time((i * 7 % 5)), Kind: salt, Who: i}
		}
		return b
	}
	for _, tc := range []struct {
		name           string
		preload, batch int
	}{
		{"dominating-batch", 3, 64},
		{"small-batch", 64, 3},
		{"empty-queue", 0, 16},
		{"empty-batch", 16, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ref, q EventQueue
			for i := 0; i < tc.preload; i++ {
				e := Event{At: Time(i % 4), Kind: -1, Who: i}
				ref.Push(e)
				q.Push(e)
			}
			batch := mkBatch(tc.batch, 1)
			for _, e := range batch {
				ref.Push(e)
			}
			q.PushBatch(batch)
			if ref.Len() != q.Len() {
				t.Fatalf("len %d after PushBatch, want %d", q.Len(), ref.Len())
			}
			for i := 0; ref.Len() > 0; i++ {
				want, got := ref.Pop(), q.Pop()
				if want != got {
					t.Fatalf("pop %d: got %+v, want %+v", i, got, want)
				}
			}
		})
	}
}

// TestEventQueueReserve checks that a reservation eliminates growth
// reallocation for exactly the reserved number of pushes.
func TestEventQueueReserve(t *testing.T) {
	var q EventQueue
	q.Reserve(128)
	if cap(q.h) < 128 {
		t.Fatalf("cap %d after Reserve(128)", cap(q.h))
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 128; i++ {
			q.Push(Event{At: Time(i)})
		}
		q.Reset()
	})
	if allocs != 0 {
		t.Fatalf("reserved pushes allocate %.1f allocs/op, want 0", allocs)
	}
}

// TestRNGStateRoundTrip pins the snapshot contract State/SetState: restoring
// a snapshot replays the exact stream continuation.
func TestRNGStateRoundTrip(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 17; i++ {
		r.Uint64()
	}
	snap := r.State()
	var want [8]uint64
	for i := range want {
		want[i] = r.Uint64()
	}
	r.SetState(snap)
	for i := range want {
		if got := r.Uint64(); got != want[i] {
			t.Fatalf("draw %d after SetState: got %d, want %d", i, got, want[i])
		}
	}
}

// TestEventQueueZeroAllocSteadyState pins the hot-path property the 4-ary
// heap was built for: once the backing array has grown to the working set,
// Push and Pop allocate nothing (no any-boxing, no heap growth).
func TestEventQueueZeroAllocSteadyState(t *testing.T) {
	var q EventQueue
	for i := 0; i < 64; i++ {
		q.Push(Event{At: Time(i % 7)})
	}
	for q.Len() > 0 {
		q.Pop()
	}
	at := Time(7) // above the drained events: pushes must never time-travel
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			at += 1
			q.Push(Event{At: at})
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Push/Pop allocates %.1f allocs/op, want 0", allocs)
	}
}

// Property: popping a randomly filled queue yields a time-sorted sequence.
func TestEventQueueSortedProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var q EventQueue
		times := make([]float64, len(raw))
		for i, r := range raw {
			times[i] = float64(r)
			q.Push(Event{At: float64(r)})
		}
		sort.Float64s(times)
		for i := range times {
			if q.Pop().At != times[i] {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
	c := NewRNG(124)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical draws of 1000", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	root := NewRNG(7)
	s1 := root.Split(1)
	s2 := root.Split(2)
	s1b := NewRNG(7).Split(1)
	for i := 0; i < 100; i++ {
		if s1.Uint64() != s1b.Uint64() {
			t.Fatal("Split is not a pure function of seed and stream")
		}
	}
	// Splitting must not disturb the parent stream.
	r1 := NewRNG(7)
	r2 := NewRNG(7)
	_ = r2.Split(99)
	for i := 0; i < 100; i++ {
		if r1.Uint64() != r2.Uint64() {
			t.Fatal("Split disturbed the parent stream")
		}
	}
	_ = s2
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(2)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %g, want ~0.5", mean)
	}
}

// Property: Perm returns a permutation of [0, n).
func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		p := NewRNG(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Sample returns k distinct in-range values.
func TestSampleDistinct(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%100 + 1
		k := int(kRaw) % (n + 1)
		s := NewRNG(seed).Sample(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(3)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("Normal mean %g, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("Normal stddev %g, want ~2", math.Sqrt(variance))
	}
}
