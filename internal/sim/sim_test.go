package sim

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

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
	for i := int32(0); i < 10; i++ {
		q.Push(Event{At: 7, Who: i})
	}
	for i := int32(0); i < 10; i++ {
		if e := q.Pop(); e.Who != i {
			t.Fatalf("tie-broken event %d popped at position %d", e.Who, i)
		}
	}
}

// TestEventQueueReset pins that Reset empties a queue whose buckets still
// hold events, drops the time-travel floor, and restarts FIFO order.
func TestEventQueueReset(t *testing.T) {
	var q EventQueue
	for _, at := range []Time{2, 1, 900, 1e9, math.Inf(1)} {
		q.Push(Event{At: at})
	}
	if e := q.Pop(); e.At != 1 {
		t.Fatalf("popped %+v, want t=1", e)
	}
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("len %d after reset", q.Len())
	}
	// Below the old floor: legal in a new simulation window.
	q.Push(Event{At: 0.5, Who: 1})
	q.Push(Event{At: 0.5, Who: 2})
	for want := int32(1); want <= 2; want++ {
		if e := q.Pop(); e.Who != want || e.At != 0.5 {
			t.Fatalf("popped %+v after reset, want entity %d at t=0.5", e, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("len %d after draining", q.Len())
	}
}

// TestEventQueueMatchesStableSortUnderChurn interleaves pushes and pops the
// way the engines do - pushes never earlier than the last pop, with many
// exact ties - and checks the whole popped sequence against a stable sort
// of the pushed one: sorted by time, ties in push order.
func TestEventQueueMatchesStableSortUnderChurn(t *testing.T) {
	rng := NewRNG(7)
	var q EventQueue
	var pushed, popped []Event
	floor := Time(0)
	for i := 0; i < 20000; i++ {
		if q.Len() == 0 || rng.Intn(3) > 0 {
			// Few distinct offsets, several of them exact: most pushes tie
			// with another pending event or with the last pop.
			at := floor + []Time{0, 0.25, 1, 1, 3.5, 1e3, 1e6}[rng.Intn(7)]
			e := Event{At: at, Who: int32(i)}
			q.Push(e)
			pushed = append(pushed, e)
			continue
		}
		e := q.Pop()
		floor = e.At
		popped = append(popped, e)
	}
	for q.Len() > 0 {
		popped = append(popped, q.Pop())
	}
	want := slices.Clone(pushed)
	slices.SortStableFunc(want, func(a, b Event) int { return cmp.Compare(a.At, b.At) })
	if !slices.Equal(popped, want) {
		for i := range want {
			if popped[i] != want[i] {
				t.Fatalf("pop %d: got %+v, want %+v", i, popped[i], want[i])
			}
		}
		t.Fatalf("popped %d events, pushed %d", len(popped), len(want))
	}
}

// BenchmarkEventQueue measures the queue under the load of the CM-5 event
// loop: about 1,100 pending events, every push at or after the last pop,
// and many exact ties. After warm-up the bucket arrays have grown to the
// working set, so the loop must run at 0 allocs/op.
func BenchmarkEventQueue(b *testing.B) {
	const pending = 1100
	rng := NewRNG(11)
	// Overhead-sized delays, a few distinct values so that equal times
	// recur, as they do for jitter-free processors in lockstep.
	delays := make([]Time, 4096)
	for i := range delays {
		delays[i] = []Time{0, 6.5, 6.5, 10.25, 13, 40.5}[rng.Intn(6)]
	}
	var q EventQueue
	for i := 0; i < pending; i++ {
		q.Push(Event{At: delays[i%len(delays)], Who: int32(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := q.Pop()
		e.At += delays[i%len(delays)]
		q.Push(e)
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

// TestEventQueueZeroAllocSteadyState pins the hot-path property the event
// loops rely on: once the buckets have grown to the working set, Push and
// Pop allocate nothing (no any-boxing, no bucket growth).
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
