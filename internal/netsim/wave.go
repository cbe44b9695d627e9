// The wave engine simulates SIMD circuit-switched routers of the MasPar
// MP-1 kind: every cluster of PEs shares a single router channel, and
// routing proceeds in waves. In each wave every cluster channel offers its
// oldest pending message; a message succeeds if it can atomically claim its
// source channel, a conflict-free path through the interconnect (supplied
// by the topology policy), the destination cluster channel, and the
// destination PE. Deferred messages retry in the next wave (greedy circuit
// switching). A wave lasts for the circuit-establishment time plus the
// streaming time of the longest message it carries - the machine is SIMD,
// so all circuits of a wave are held until the slowest transfer completes.
//
// Messages above the block threshold switch to an asynchronous streaming
// model: long transfers hold circuits while other PEs keep retrying, so the
// base time is set by per-channel byte serialization, with a conflict
// surcharge proportional to how many extra establishment waves the
// cluster-level pattern needs over the channel-serialization floor.

package netsim

import (
	"fmt"

	"quantpar/internal/comm"
	"quantpar/internal/sim"
)

// WaveConfig holds the physical constants of a SIMD circuit-switched
// router, in microseconds, plus the interconnect policy: Path writes the
// link IDs of the (unique, deterministic) route between two cluster ports
// into buf, and NumLinks bounds the link ID space.
type WaveConfig struct {
	PEs         int     // number of processor elements
	ClusterSize int     // PEs per router channel
	LFixed      float64 // per-step ACU decode + synchronization overhead
	TCircuit    float64 // per-wave circuit-establishment time
	TLaunch     float64 // per-wave message launch overhead on the channel
	TByte       float64 // per-byte streaming time through a held circuit
	// Block-transfer constants: messages larger than BlockThreshold bytes
	// are priced with the asynchronous streaming model instead of waves.
	BlockThreshold int
	TByteBlock     float64 // per byte through a cluster channel, conflict-free
	TBlockSetup    float64 // extra per-message setup on the channel
	BlockStall     float64 // surcharge weight per relative extra wave
	// Path appends the link IDs of the route from source cluster port src
	// to destination cluster port dst onto buf and returns the result.
	Path func(buf []int, src, dst int) []int
	// NumLinks is the number of distinct link IDs Path may emit.
	NumLinks int
}

// Wave is an instantiated SIMD circuit-wave engine.
//
// A Wave engine carries reusable per-Route scratch (cluster queues,
// wave-stamp tables, streaming accumulators), so Route is not safe for
// concurrent use on one instance; the parallel sweep engine gives every
// worker its own router. The scratch makes steady-state routing
// allocation-free once the backing arrays have grown to the step's working
// set.
type Wave struct {
	cfg      WaveConfig
	clusters int

	// Per-Route scratch, reset at the top of each call that uses it.
	queues [][]wavePending
	finish []sim.Time // always zero on this SIMD machine; see Route
	// waves scratch: head indices and wave-stamp claim tables. The stamp
	// tables are cleared on every waves call - the wave counter restarts at
	// 1 each call, and the scan-origin rotation depends on absolute wave
	// numbers, so carrying stamps across calls would corrupt the schedule.
	heads       []int
	linkBusy    []int
	dstChanBusy []int
	dstPEBusy   []int
	pathBuf     []int
	// stream scratch.
	srcBusy      []sim.Time
	dstBusy      []sim.Time
	peBusy       []sim.Time
	crossOut     []int
	crossIn      []int
	streamQueues [][]wavePending

	wd sim.Watchdog // livelock guard over the wave loop
}

// Watchdog exposes the engine's livelock guard; the core labels and
// configures it.
func (r *Wave) Watchdog() *sim.Watchdog { return &r.wd }

// NewWave builds a wave engine. PEs must be a positive multiple of
// ClusterSize, and the Path policy must be non-nil.
func NewWave(cfg WaveConfig) (*Wave, error) {
	if cfg.PEs <= 0 || cfg.ClusterSize <= 0 || cfg.PEs%cfg.ClusterSize != 0 {
		return nil, fmt.Errorf("netsim: invalid PE/cluster geometry %d/%d", cfg.PEs, cfg.ClusterSize)
	}
	if cfg.Path == nil {
		return nil, fmt.Errorf("netsim: nil path function")
	}
	clusters := cfg.PEs / cfg.ClusterSize
	return &Wave{
		cfg:          cfg,
		clusters:     clusters,
		queues:       make([][]wavePending, clusters),
		finish:       make([]sim.Time, cfg.PEs),
		heads:        make([]int, clusters),
		linkBusy:     make([]int, cfg.NumLinks),
		dstChanBusy:  make([]int, clusters),
		dstPEBusy:    make([]int, cfg.PEs),
		srcBusy:      make([]sim.Time, clusters),
		dstBusy:      make([]sim.Time, clusters),
		peBusy:       make([]sim.Time, cfg.PEs),
		crossOut:     make([]int, clusters),
		crossIn:      make([]int, clusters),
		streamQueues: make([][]wavePending, clusters),
	}, nil
}

// Config returns the engine's constants.
func (r *Wave) Config() WaveConfig { return r.cfg }

// Procs implements Engine.
func (r *Wave) Procs() int { return r.cfg.PEs }

func (r *Wave) cluster(pe int) int { return pe / r.cfg.ClusterSize }

// wavePending tracks one in-flight message during wave simulation.
type wavePending struct {
	dst   int
	bytes int
}

// Route implements Engine. The machine is synchronous SIMD: offsets are
// ignored (they are always zero on this machine) and every step implicitly
// ends aligned, so Finish is all zeros.
//
// The wave schedule is fully deterministic for a given step; the paper's
// observed trial-to-trial variance comes from the random destination
// choices of the benchmarked patterns, not from router nondeterminism.
func (r *Wave) Route(step *comm.Step, rng *sim.RNG) comm.Result {
	if len(step.Sends) != r.cfg.PEs {
		panic(fmt.Sprintf("netsim: step for %d processors on a %d-PE machine", len(step.Sends), r.cfg.PEs))
	}
	// Queue per source cluster channel, preserving PE order within the
	// cluster (the channel serves its PEs round-robin by PE index, and
	// each PE's own messages in program order).
	queues := r.queues
	for i := range queues {
		queues[i] = queues[i][:0]
	}
	stats := comm.Stats{}
	for src, list := range step.Sends {
		c := r.cluster(src)
		for _, m := range list {
			queues[c] = append(queues[c], wavePending{dst: m.Dst, bytes: m.Bytes})
			stats.Msgs++
			stats.Bytes += m.Bytes
		}
	}

	maxBytes := 0
	for _, q := range queues {
		for _, m := range q {
			if m.bytes > maxBytes {
				maxBytes = m.bytes
			}
		}
	}

	elapsed := sim.Time(0)
	switch {
	case stats.Msgs == 0:
		if step.Barrier {
			// A pure barrier still costs the fixed ACU overhead.
			elapsed += r.cfg.LFixed
		}
	case maxBytes > r.cfg.BlockThreshold:
		elapsed += r.cfg.LFixed
		elapsed += r.stream(step, &stats)
	default:
		elapsed += r.cfg.LFixed
		elapsed += r.waves(queues, &stats)
	}

	// The machine always finishes aligned at time zero relative to the step
	// end, so Finish is the engine's permanently-zero scratch slice (never
	// written; see comm.Result.Finish ownership note).
	//
	// Events counts the discrete occurrences the wave schedule processed:
	// one per routed message, per deferred circuit attempt, and per wave.
	return comm.Result{
		Elapsed: elapsed,
		Finish:  r.finish,
		Stats:   stats,
		Events:  stats.Msgs + stats.Conflicts + stats.Waves,
	}
}

// waves runs the greedy circuit-switched schedule to exhaustion and returns
// the summed wave time.
func (r *Wave) waves(queues [][]wavePending, stats *comm.Stats) sim.Time {
	total := sim.Time(0)
	remaining := 0
	for _, q := range queues {
		remaining += len(q)
	}
	heads := r.heads // index of next message per source channel
	clear(heads)

	// Wave-stamped claim tables (a resource is busy in this wave when its
	// stamp equals the wave number); slices, not maps, since this is the
	// innermost loop of every MasPar experiment. The stamps MUST be cleared
	// here: the wave counter restarts at 1 on every call, and stale stamps
	// from a previous step would register as phantom conflicts.
	linkBusy := r.linkBusy
	clear(linkBusy)
	dstChanBusy := r.dstChanBusy
	clear(dstChanBusy)
	dstPEBusy := r.dstPEBusy
	clear(dstPEBusy)
	pathBuf := r.pathBuf

	r.wd.Reset()
	wave := 0
	for remaining > 0 {
		wave++
		r.wd.Tick(total, remaining)
		maxBytes := 0
		delivered := 0
		// Rotate the scan origin each wave so no cluster is persistently
		// favoured; the rotation is deterministic.
		origin := (wave * 17) % r.clusters
		for i := 0; i < r.clusters; i++ {
			c := (origin + i) % r.clusters
			if heads[c] >= len(queues[c]) {
				continue
			}
			msg := queues[c][heads[c]]
			dc := r.cluster(msg.dst)
			if dstChanBusy[dc] == wave || dstPEBusy[msg.dst] == wave {
				stats.Conflicts++
				continue
			}
			// Intra-cluster traffic does not enter the interconnect but
			// still serialises on the shared cluster channel.
			ok := true
			if dc != c {
				pathBuf = r.cfg.Path(pathBuf[:0], c, dc)
				for _, link := range pathBuf {
					if linkBusy[link] == wave {
						ok = false
						break
					}
				}
				if ok {
					for _, link := range pathBuf {
						linkBusy[link] = wave
					}
				}
			}
			if !ok {
				stats.Conflicts++
				continue
			}
			dstChanBusy[dc] = wave
			dstPEBusy[msg.dst] = wave
			heads[c]++
			remaining--
			delivered++
			if msg.bytes > maxBytes {
				maxBytes = msg.bytes
			}
		}
		if delivered == 0 {
			// Cannot happen: at least one head always succeeds because the
			// first candidate examined claims fresh resources.
			r.wd.Fail(total, remaining, "wave delivered no messages")
		}
		r.wd.Progress(total)
		total += r.cfg.TCircuit + r.cfg.TLaunch + sim.Time(maxBytes)*r.cfg.TByte
	}
	r.pathBuf = pathBuf
	stats.Waves += wave
	return total
}

// stream prices a block-transfer step with the asynchronous streaming
// model: every cluster channel serializes the bytes of the messages it
// sources and the bytes of the messages it sinks (plus a per-message setup
// cost); destination PEs additionally serialize their own inbound bytes.
// The base time is the busiest resource's; a conflict surcharge scales it
// by how many extra circuit-establishment waves the cluster-level pattern
// needs over the channel-serialization minimum.
func (r *Wave) stream(step *comm.Step, stats *comm.Stats) sim.Time {
	srcBusy := r.srcBusy
	clear(srcBusy)
	dstBusy := r.dstBusy
	clear(dstBusy)
	// Per-PE accumulator as a dense slice rather than a map: most PEs are
	// active in the block-transfer experiments, and the slice keeps this
	// path allocation-free.
	peBusy := r.peBusy
	clear(peBusy)
	crossOut := r.crossOut
	clear(crossOut)
	crossIn := r.crossIn
	clear(crossIn)
	queues := r.streamQueues
	for i := range queues {
		queues[i] = queues[i][:0]
	}
	for src, list := range step.Sends {
		sc := r.cluster(src)
		for _, m := range list {
			cost := sim.Time(m.Bytes)*r.cfg.TByteBlock + r.cfg.TBlockSetup + r.cfg.TCircuit + r.cfg.TLaunch
			srcBusy[sc] += cost
			dc := r.cluster(m.Dst)
			dstBusy[dc] += cost
			peBusy[m.Dst] += cost
			if dc != sc {
				crossOut[sc]++
				crossIn[dc]++
				// Cluster-level pattern for the conflict probe: one
				// representative PE per destination channel.
				queues[sc] = append(queues[sc], wavePending{dst: dc * r.cfg.ClusterSize, bytes: 0})
			}
		}
	}
	busiest := sim.Time(0)
	for c := 0; c < r.clusters; c++ {
		if srcBusy[c] > busiest {
			busiest = srcBusy[c]
		}
		if dstBusy[c] > busiest {
			busiest = dstBusy[c]
		}
	}
	for _, b := range peBusy {
		if b > busiest {
			busiest = b
		}
	}

	// Conflict surcharge: compare actual establishment waves against the
	// channel-serialization floor.
	floor := 0
	for c := 0; c < r.clusters; c++ {
		if crossOut[c] > floor {
			floor = crossOut[c]
		}
		if crossIn[c] > floor {
			floor = crossIn[c]
		}
	}
	if floor > 0 {
		var probe comm.Stats
		r.waves(queues, &probe)
		if probe.Waves > floor {
			busiest *= sim.Time(1 + r.cfg.BlockStall*(float64(probe.Waves)/float64(floor)-1))
		}
		stats.Waves += probe.Waves
		stats.Conflicts += probe.Conflicts
	}
	return busiest
}
