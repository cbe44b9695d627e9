package quantpar_test

import (
	"fmt"
	"log"

	"quantpar"
	"quantpar/internal/machine/backends"
	"quantpar/internal/wire"
)

// ExampleNewMachine builds machines through the name-keyed registry and
// assembles a custom variant of a registered backend: a 16-node version
// of the modern-cluster machine, constructed purely from a parameter
// literal, then put to work on a real sort.
func ExampleNewMachine() {
	fmt.Printf("registered: %v\n", quantpar.Machines())

	std, err := quantpar.NewMachine("cluster")
	if err != nil {
		log.Fatal(err)
	}

	p := backends.DefaultClusterParams()
	p.Ary, p.Dims = 4, 2 // 4x4 torus instead of the default 4x4x4
	small, err := backends.Cluster(p)
	if err != nil {
		log.Fatal(err)
	}
	small.Name = "cluster-16"
	fmt.Printf("%s: %d procs, %s: %d procs\n", std.Name, std.P(), small.Name, small.P())

	res, err := quantpar.RunBitonic(small, quantpar.BitonicConfig{
		KeysPerProc: 256, Variant: quantpar.BitonicBlock, Seed: 5, Verify: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sorted: %v\n", res.Sorted)
	// Output:
	// registered: [cluster cm5 gcel maspar]
	// Modern cluster: 64 procs, cluster-16: 16 procs
	// sorted: true
}

// ExampleRunMatMul multiplies two matrices on the simulated CM-5 with the
// block-transfer (MP-BPRAM) algorithm and verifies the result.
func ExampleRunMatMul() {
	m, err := quantpar.NewMachine("cm5")
	if err != nil {
		log.Fatal(err)
	}
	res, err := quantpar.RunMatMul(m, quantpar.MatMulConfig{
		N: 64, Q: 4, Variant: quantpar.MatMulBPRAM, Seed: 1, Verify: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified: %v, supersteps: %d\n", res.MaxErr < 1e-9, res.Run.Supersteps)
	// Output: verified: true, supersteps: 11
}

// ExampleRun writes a two-processor ping-pong against the superstep API
// and runs it on the simulated GCel, where each millisecond-scale message
// overhead is visible in the simulated clock.
func ExampleRun() {
	m, err := quantpar.NewMachine("gcel")
	if err != nil {
		log.Fatal(err)
	}
	var echoed uint32
	res, err := quantpar.Run(m, func(ctx *quantpar.Context) {
		switch ctx.ID() {
		case 0:
			ctx.Send(1, 0, wire.PutUint32s([]uint32{41}))
			ctx.Sync()
			ctx.Sync()
			echoed = wire.Uint32s(ctx.RecvFrom(1, 0))[0]
		case 1:
			ctx.Sync()
			v := wire.Uint32s(ctx.RecvFrom(0, 0))[0]
			ctx.Send(0, 0, wire.PutUint32s([]uint32{v + 1}))
			ctx.Sync()
		default:
			ctx.Sync()
			ctx.Sync()
		}
	}, quantpar.RunOptions{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("echoed %d after %d supersteps (>10 simulated ms: %v)\n",
		echoed, res.Supersteps, res.Time > 10_000)
	// Output: echoed 42 after 2 supersteps (>10 simulated ms: true)
}

// ExampleNewTrace records and renders the superstep timeline of a run.
func ExampleNewTrace() {
	m, err := quantpar.NewMachine("cm5")
	if err != nil {
		log.Fatal(err)
	}
	rec := quantpar.NewTrace()
	_, err = quantpar.Run(m, func(ctx *quantpar.Context) {
		ctx.Send((ctx.ID()+1)%m.P(), 0, wire.PutUint32s([]uint32{1}))
		ctx.Sync()
		ctx.Sync()
	}, quantpar.RunOptions{Seed: 1, Trace: rec})
	if err != nil {
		log.Fatal(err)
	}
	t := rec.Totals()
	fmt.Printf("%d supersteps, %d messages, max h=%d\n", t.Supersteps, t.Msgs, t.MaxH)
	// Output: 2 supersteps, 64 messages, max h=1
}
