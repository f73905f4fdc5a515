package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"github.com/plasma-hpc/dsmcpic/internal/balance"
	"github.com/plasma-hpc/dsmcpic/internal/core"
	"github.com/plasma-hpc/dsmcpic/internal/mesh"
)

// workload is one plume case. It fixes only the case — mesh, injection,
// weights, dt, ranks and workers — and how long the window runs; every
// solver knob with a default keeps it (see caseConfig).
type workload struct {
	name string

	meshN, meshNZ  int     // mesh.Nozzle transversal and axial resolution
	radius, length float64 // nozzle radius and length (m)

	injectH, injectIon int // global simulation particles injected per step
	weightH, weightIon float64
	dt                 float64 // DSMC timestep (s)

	ranks, workers int

	// warmup is the number of untimed steps before the window: the
	// population fills the nozzle (it is flat within a few percent after
	// ~20 steps) and the inlet-heavy first partition gets rebalanced at
	// the balancer's first check (step T-1 = 19).
	warmup int
	// nominalStepS converts --seconds into a fixed number of timed steps
	// (see timedSteps). It is a constant, not a measurement, so the step
	// count — and with it every deterministic output — depends only on
	// the arguments.
	nominalStepS float64
}

// minTimedSteps keeps at least ten timed steps beyond the 90th percentile.
const minTimedSteps = 100

var workloads = []workload{
	{
		name:  "plume_particles",
		meshN: 3, meshNZ: 8, radius: 0.05, length: 0.2,
		injectH: 14000, injectIon: 1400, weightH: 1e12, weightIon: 6000, dt: 1.2586e-6,
		ranks: 2, workers: 1,
		warmup: 24, nominalStepS: 0.16,
	},
	{
		name:  "plume_field",
		meshN: 6, meshNZ: 16, radius: 0.05, length: 0.2,
		injectH: 1500, injectIon: 150, weightH: 1e12, weightIon: 6000, dt: 1.2586e-6,
		ranks: 2, workers: 1,
		warmup: 24, nominalStepS: 0.17,
	},
	{
		name:  "plume_threads",
		meshN: 3, meshNZ: 8, radius: 0.05, length: 0.2,
		injectH: 14000, injectIon: 1400, weightH: 1e12, weightIon: 6000, dt: 1.2586e-6,
		ranks: 1, workers: 2,
		warmup: 24, nominalStepS: 0.17,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// timedSteps is the window length for a measurement budget of seconds.
func (w workload) timedSteps(seconds int) int {
	n := int(math.Round(float64(seconds) / w.nominalStepS))
	if n < minTimedSteps {
		n = minTimedSteps
	}
	return n
}

// simSeed derives the simulation seed from the workload seed. It is the
// only channel through which the workload seed reaches the solver.
func simSeed(workloadName string, seed uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(workloadName))
	z := seed ^ h.Sum64()
	// splitmix64 finalizer: nearby workload seeds give unrelated streams.
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// caseConfig is the generated input of one run: the workload's case and
// the derived simulation seed. PoissonTol, PoissonExchange, the exchange
// strategy, the wall model and the chemistry stay at their defaults; the
// load balancer runs with balance.DefaultConfig, the paper's parameters.
func caseConfig(w workload, ref *mesh.Refinement, seed uint64, steps int) core.Config {
	lb := balance.DefaultConfig()
	return core.Config{
		Ref:              ref,
		Steps:            steps,
		DtDSMC:           w.dt,
		InjectHPerStep:   w.injectH,
		InjectIonPerStep: w.injectIon,
		WeightH:          w.weightH,
		WeightIon:        w.weightIon,
		LB:               &lb,
		Seed:             simSeed(w.name, seed),
		Workers:          w.workers,
	}
}
