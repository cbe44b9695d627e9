// The figF experiments are the degradation studies of the fault-injection
// layer: they run a fixed permutation workload on fault-armed machines and
// report the slowdown relative to the same workload under the reliable
// protocol with an empty fault schedule. Using the armed-but-healthy
// configuration as the baseline isolates the cost of the *faults*
// (retransmission rounds, longer route-arounds, stall skews) from the
// fixed cost of the protocol itself (acknowledgement traffic), which is
// reported separately as protocol overhead.
package experiments

import (
	"fmt"

	"quantpar/internal/comm"
	"quantpar/internal/core"
	"quantpar/internal/faults"
	"quantpar/internal/machine"
	"quantpar/internal/sim"
	"quantpar/internal/topology"
)

func init() {
	register("figf1", "Fig F1: message-loss rate vs slowdown under reliable delivery", runFigF1)
	register("figf2", "Fig F2: killed links vs route-around slowdown", runFigF2)
	register("figf3", "Fig F3: stalled processors vs degradation", runFigF3)
}

// faultRounds is the number of barriered h-relation rounds the degradation
// workload prices; enough that every fault window and retransmission round
// is exercised, small enough to keep the sweep test-friendly.
const faultRounds = 6

// faultWorkload prices the fixed degradation workload on the machine's
// router: faultRounds barriered full permutations, each processor sending
// one message of the given size to a round-dependent partner. The pattern
// is a pure function of (p, round), so the workload isolates the fault
// schedule as the only variable between two runs. Returns the total
// elapsed time and the router counters.
func faultWorkload(m *machine.Machine, bytes int, rng *sim.RNG) (sim.Time, comm.Stats) {
	p := m.P()
	sends := make([][]comm.Msg, p)
	for i := range sends {
		sends[i] = make([]comm.Msg, 1)
	}
	total := sim.Time(0)
	stats := comm.Stats{}
	for round := 0; round < faultRounds; round++ {
		shift := 1 << (round % 5)
		if shift >= p {
			shift = 1
		}
		for i := 0; i < p; i++ {
			sends[i][0] = comm.Msg{Src: i, Dst: (i + shift) % p, Bytes: bytes}
		}
		step := &comm.Step{Sends: sends, Barrier: true}
		// The workload is one sequential execution: its stream deliberately
		// chains across the rounds, like a trial on the real machine.
		res := m.Router.Route(step, rng.Split(uint64(round)))
		total += res.Elapsed
		stats.Add(res.Stats)
	}
	return total, stats
}

// degradePoint runs the workload twice on a worker-private machine - once
// under the given fault spec, once under the same spec with the fault
// schedule emptied - and returns the slowdown plus the faulty run's stats.
// Both runs share the protocol configuration, so the ratio isolates the
// injected faults.
func degradePoint(m *machine.Machine, spec faults.Spec, bytes int, rng *sim.RNG) (float64, comm.Stats, error) {
	healthy := spec
	healthy.DropRate, healthy.CorruptRate, healthy.DelayRate, healthy.DuplicateRate = 0, 0, 0, 0
	healthy.LinkKills, healthy.Stalls, healthy.Crashes = nil, nil, nil

	basePlan, err := faults.NewPlan(healthy)
	if err != nil {
		return 0, comm.Stats{}, err
	}
	if err := machine.InjectFaults(m, basePlan); err != nil {
		return 0, comm.Stats{}, err
	}
	t0, _ := faultWorkload(m, bytes, rng.Split(0))

	plan, err := faults.NewPlan(spec)
	if err != nil {
		return 0, comm.Stats{}, err
	}
	if err := machine.InjectFaults(m, plan); err != nil {
		return 0, comm.Stats{}, err
	}
	// The same stream as the healthy run: fault decisions draw from the
	// plan's own seed, so the workload jitter stays identical and the
	// ratio is pure fault cost.
	t1, stats := faultWorkload(m, bytes, rng.Split(0))

	if err := machine.InjectFaults(m, nil); err != nil {
		return 0, comm.Stats{}, err
	}
	if t0 <= 0 {
		return 0, comm.Stats{}, fmt.Errorf("experiments: degenerate healthy time %g", t0)
	}
	return float64(t1 / t0), stats, nil
}

func runFigF1(ctx *Context) (*Outcome, error) {
	out := &Outcome{ID: "figf1", Title: "message-loss rate vs slowdown under reliable delivery"}
	rates := []float64{0, 0.05, 0.1, 0.2}
	if ctx.Scale == Full {
		rates = []float64{0, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3}
	}
	backends := []struct {
		key string
		mk  machineFactory
	}{
		{"gcel", newGCel},
		{"cm5", newCM5},
		{"cluster", newCluster},
	}
	idxs := make([]int, len(rates))
	for i := range idxs {
		idxs[i] = i
	}
	for bi, b := range backends {
		base := sim.NewRNG(ctx.Seed ^ 0xF1 ^ uint64(bi)<<8)
		type point struct {
			slowdown float64
			stats    comm.Stats
		}
		pts, err := sweepGrid(ctx, b.mk, idxs, 1, func(m *machine.Machine, i, _ int) (point, error) {
			spec := faults.Spec{Seed: ctx.Seed ^ 0xF1A<<4 ^ uint64(i), DropRate: rates[i]}
			s, st, err := degradePoint(m, spec, 64, base.Split(uint64(i)))
			return point{s, st}, err
		})
		if err != nil {
			return nil, err
		}
		s := core.Series{Name: b.key + " slowdown vs loss rate (naive 1/(1-f)^2 reference)", XLabel: "drop rate"}
		for i, pt := range pts {
			s.Xs = append(s.Xs, rates[i])
			s.Measured = append(s.Measured, pt.slowdown)
			s.Predicted = append(s.Predicted, 1/((1-rates[i])*(1-rates[i])))
		}
		out.Series = append(out.Series, s)
		out.check(b.key+" healthy baseline is neutral", pts[0].slowdown == 1,
			"slowdown at f=0 is %.4f, want exactly 1", pts[0].slowdown)
		last := len(pts) - 1
		out.check(b.key+" loss costs time", pts[last].slowdown > 1,
			"slowdown at f=%.2f is %.3f", rates[last], pts[last].slowdown)
		out.check(b.key+" losses forced retransmissions", pts[last].stats.Retries > 0 && pts[last].stats.Dropped > 0,
			"retries=%d dropped=%d at f=%.2f", pts[last].stats.Retries, pts[last].stats.Dropped, rates[last])
		out.extra("%s: slowdown %.3f at f=%.2f (retries=%d, dropped=%d)",
			b.key, pts[last].slowdown, rates[last], pts[last].stats.Retries, pts[last].stats.Dropped)
	}
	return out, nil
}

// meshKills picks k connectivity-preserving link kills on a WxH mesh: only
// horizontal links in rows >= 1 are cut, so every column stays intact and
// row 0 still connects the columns. Deterministic and spread across rows.
func meshKills(w, h, k int) ([]faults.LinkKill, error) {
	if k > (w-1)*(h-1) {
		return nil, fmt.Errorf("experiments: %d kills exceed the mesh's safe set", k)
	}
	grid, err := topology.NewMesh(w, h)
	if err != nil {
		return nil, err
	}
	kills := make([]faults.LinkKill, 0, k)
	for j := 0; j < k; j++ {
		x, y := j/(h-1), 1+j%(h-1)
		kills = append(kills, faults.LinkKill{U: grid.ID(x, y), V: grid.ID(x+1, y)})
	}
	return kills, nil
}

// torusKills picks k connectivity-preserving link kills on an ary-ary
// dims-cube: at most one dimension-0 link per ring, so each ring degrades
// to a path and every other dimension stays intact.
func torusKills(ary, dims, k int) ([]faults.LinkKill, error) {
	rings := 1
	for d := 1; d < dims; d++ {
		rings *= ary
	}
	if ary < 3 || k > rings {
		return nil, fmt.Errorf("experiments: %d kills exceed the torus's safe set", k)
	}
	kills := make([]faults.LinkKill, 0, k)
	for j := 0; j < k; j++ {
		u := ary * j // node with dimension-0 coordinate 0 on ring j
		kills = append(kills, faults.LinkKill{U: u, V: u + 1})
	}
	return kills, nil
}

func runFigF2(ctx *Context) (*Outcome, error) {
	out := &Outcome{ID: "figf2", Title: "killed links vs route-around slowdown"}
	killCounts := []int{0, 1, 2, 4}
	if ctx.Scale == Full {
		killCounts = []int{0, 1, 2, 4, 8, 12}
	}
	backends := []struct {
		key   string
		mk    machineFactory
		kills func(k int) ([]faults.LinkKill, error)
	}{
		{"gcel", newGCel, func(k int) ([]faults.LinkKill, error) { return meshKills(8, 8, k) }},
		{"cluster", newCluster, func(k int) ([]faults.LinkKill, error) { return torusKills(4, 3, k) }},
	}
	for bi, b := range backends {
		base := sim.NewRNG(ctx.Seed ^ 0xF2 ^ uint64(bi)<<8)
		kills := b.kills
		pts, err := sweepGrid(ctx, b.mk, killCounts, 1, func(m *machine.Machine, k, _ int) (float64, error) {
			lk, err := kills(k)
			if err != nil {
				return 0, err
			}
			spec := faults.Spec{Seed: ctx.Seed ^ 0xF2B<<4 ^ uint64(k), LinkKills: lk}
			s, _, err := degradePoint(m, spec, 64, base.Split(uint64(k)))
			return s, err
		})
		if err != nil {
			return nil, err
		}
		s := core.Series{Name: b.key + " slowdown vs killed links (unit reference)", XLabel: "links killed"}
		for i, k := range killCounts {
			s.Xs = append(s.Xs, float64(k))
			s.Measured = append(s.Measured, pts[i])
			s.Predicted = append(s.Predicted, 1)
		}
		out.Series = append(out.Series, s)
		out.check(b.key+" zero kills is neutral", pts[0] == 1, "slowdown at 0 kills is %.4f", pts[0])
		last := len(killCounts) - 1
		out.check(b.key+" route-around never helps", pts[last] >= 1,
			"slowdown at %d kills is %.4f", killCounts[last], pts[last])
		out.extra("%s: slowdown %.4f at %d killed links", b.key, pts[last], killCounts[last])
	}
	return out, nil
}

func runFigF3(ctx *Context) (*Outcome, error) {
	out := &Outcome{ID: "figf3", Title: "stalled processors vs degradation"}
	stallCounts := []int{0, 1, 2, 4}
	if ctx.Scale == Full {
		stallCounts = []int{0, 1, 2, 4, 8}
	}
	backends := []struct {
		key string
		mk  machineFactory
		// stallFor is the per-processor stall duration, scaled to each
		// machine's own round time (a GCel superstep costs three orders of
		// magnitude more than a cluster one).
		stallFor sim.Time
	}{
		{"gcel", newGCel, 20000},
		{"cm5", newCM5, 200},
		{"cluster", newCluster, 50},
	}
	for bi, b := range backends {
		base := sim.NewRNG(ctx.Seed ^ 0xF3 ^ uint64(bi)<<8)
		dur := b.stallFor
		pts, err := sweepGrid(ctx, b.mk, stallCounts, 1, func(m *machine.Machine, k, _ int) (float64, error) {
			stalls := make([]faults.Stall, 0, k)
			for i := 0; i < k; i++ {
				// Spread the stalled processors across the machine and
				// their outages across the run's early steps.
				stalls = append(stalls, faults.Stall{
					Proc:     (i * 7) % m.P(),
					At:       0,
					Duration: dur * sim.Time(1+i%2),
				})
			}
			spec := faults.Spec{Seed: ctx.Seed ^ 0xF3C<<4 ^ uint64(k), Stalls: stalls}
			s, _, err := degradePoint(m, spec, 64, base.Split(uint64(k)))
			return s, err
		})
		if err != nil {
			return nil, err
		}
		s := core.Series{Name: b.key + " slowdown vs stalled processors (unit reference)", XLabel: "stalled procs"}
		for i, k := range stallCounts {
			s.Xs = append(s.Xs, float64(k))
			s.Measured = append(s.Measured, pts[i])
			s.Predicted = append(s.Predicted, 1)
		}
		out.Series = append(out.Series, s)
		out.check(b.key+" zero stalls is neutral", pts[0] == 1, "slowdown at 0 stalls is %.4f", pts[0])
		last := len(stallCounts) - 1
		out.check(b.key+" stalls cost time", pts[last] > 1,
			"slowdown at %d stalls is %.4f", stallCounts[last], pts[last])
		out.extra("%s: slowdown %.4f at %d stalled processors", b.key, pts[last], stallCounts[last])
	}
	return out, nil
}
