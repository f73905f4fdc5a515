// Package dsmcpic is a parallel coupled DSMC/PIC particle-simulation
// library with dynamic load balancing, reproducing "Parallelizing and
// Balancing Coupled DSMC/PIC for Large-scale Particle Simulations"
// (IPDPS 2022).
//
// The library simulates rarefied plasma plumes (hydrogen atoms H and ions
// H+) on dual nested unstructured tetrahedral grids: a coarse grid sized by
// the particle mean free path carries the DSMC computation (movement, Bird
// NTC collisions with the VHS model, chemical reactions), and a fine grid —
// every coarse tetrahedron split into eight — sized by the Debye length
// carries the PIC computation (charge deposition, a finite-element Poisson
// solve, and the Boris pusher).
//
// Parallel execution runs over a simulated MPI runtime (goroutine ranks
// with MPI point-to-point and collective semantics). Two particle-migration
// strategies are provided — centralized (gather/classify/scatter through a
// root) and distributed (two-round ordered pairwise exchange) — plus the
// paper's dynamic load balancer: a load-imbalance indicator over component
// times, a weighted load model driving graph re-partitioning, and
// Kuhn-Munkres remapping of new partitions onto ranks to minimize migrated
// data.
//
// Quick start:
//
//	grids, err := dsmcpic.BuildNozzleGrids(4, 10, 0.05, 0.2)
//	cfg := dsmcpic.Config{
//		Ref:            grids,
//		Steps:          25,
//		DtDSMC:         1.25e-6,
//		InjectHPerStep: 4000,
//		Strategy:       dsmcpic.Distributed,
//		LB:             dsmcpic.DefaultLoadBalance(),
//	}
//	stats, err := dsmcpic.Run(dsmcpic.NewWorld(16), cfg)
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package dsmcpic

import (
	"github.com/plasma-hpc/dsmcpic/internal/balance"
	"github.com/plasma-hpc/dsmcpic/internal/commcost"
	"github.com/plasma-hpc/dsmcpic/internal/core"
	"github.com/plasma-hpc/dsmcpic/internal/dsmc"
	"github.com/plasma-hpc/dsmcpic/internal/exchange"
	"github.com/plasma-hpc/dsmcpic/internal/geom"
	"github.com/plasma-hpc/dsmcpic/internal/mesh"
	"github.com/plasma-hpc/dsmcpic/internal/metrics"
	"github.com/plasma-hpc/dsmcpic/internal/particle"
	"github.com/plasma-hpc/dsmcpic/internal/pic"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
)

// Geometry and grids.
type (
	// Vec3 is a 3D point or vector.
	Vec3 = geom.Vec3
	// Mesh is an unstructured tetrahedral grid.
	Mesh = mesh.Mesh
	// Grids couples the coarse DSMC grid with its nested fine PIC grid.
	Grids = mesh.Refinement
)

// V constructs a Vec3.
func V(x, y, z float64) Vec3 { return geom.V(x, y, z) }

// BuildNozzleGrids generates the 3D cylindrical-nozzle case-study grids:
// a coarse tetrahedral grid with transversal cell size radius/n and nz
// axial cells, uniformly refined 1-to-8 into the fine PIC grid. The inlet
// disk is at z = 0, the outlet at z = length, the lateral surface is a
// wall.
func BuildNozzleGrids(n, nz int, radius, length float64) (*Grids, error) {
	coarse, err := mesh.Nozzle(n, nz, radius, length)
	if err != nil {
		return nil, err
	}
	return mesh.RefineUniform(coarse)
}

// BuildConicalNozzleGrids generates grids for a diverging (or converging)
// nozzle whose radius varies linearly from rInlet at z = 0 to rOutlet at
// z = length.
func BuildConicalNozzleGrids(n, nz int, rInlet, rOutlet, length float64) (*Grids, error) {
	coarse, err := mesh.ConicalNozzle(n, nz, rInlet, rOutlet, length)
	if err != nil {
		return nil, err
	}
	return mesh.RefineUniform(coarse)
}

// BuildBoxGrids generates grids for an axis-aligned box domain (all
// boundaries walls); useful for tests and custom setups.
func BuildBoxGrids(nx, ny, nz int, lx, ly, lz float64) (*Grids, error) {
	coarse, err := mesh.Box(nx, ny, nz, lx, ly, lz)
	if err != nil {
		return nil, err
	}
	return mesh.RefineUniform(coarse)
}

// Simulation configuration and execution.
type (
	// Config describes one coupled simulation; see the field docs in
	// internal/core.
	Config = core.Config
	// Solver is one rank's live simulation state (exposed to OnStep
	// probes).
	Solver = core.Solver
	// RunStats aggregates a finished run.
	RunStats = core.RunStats
	// RankStats is one rank's share of RunStats.
	RankStats = core.RankStats
	// CostModel converts work counts into modeled seconds.
	CostModel = core.CostModel
	// World is a set of simulated MPI ranks.
	World = simmpi.World
	// Comm is one rank's communicator.
	Comm = simmpi.Comm
)

// Per-phase observability (Config.Metrics).
type (
	// MetricsCollector holds one Registry per rank, recording measured
	// wall time per solver phase and per-step counters. Attach one to
	// Config.Metrics; export with WriteJSONL or WriteChromeTrace.
	MetricsCollector = metrics.Collector
	// MetricsRegistry is one rank's step-scoped phase timers.
	MetricsRegistry = metrics.Registry
)

// NewMetricsCollector returns a collector for an n-rank world using the
// default monotonic clock. Observe-only: attaching one to Config.Metrics
// never changes simulation behavior (Config.MeasuredLB opts into feeding
// the measured times to the load balancer).
func NewMetricsCollector(n int) *MetricsCollector {
	return metrics.NewCollector(n, nil)
}

// Species and particles.
type (
	// Species identifies a particle species (H or HPlus).
	Species = particle.Species
	// Particle is one simulation particle.
	Particle = particle.Particle
	// WallModel configures wall reflection.
	WallModel = dsmc.WallModel
)

// Species and wall-model constants.
const (
	H     = particle.H
	HPlus = particle.HPlus
	H2    = particle.H2

	SpecularWall = dsmc.SpecularWall
	DiffuseWall  = dsmc.DiffuseWall
)

// Exchange strategies (paper §IV-B).
type Strategy = exchange.Strategy

// Strategy values.
const (
	Centralized = exchange.Centralized
	Distributed = exchange.Distributed
)

// PoissonExchange selects the communication structure of the distributed
// Poisson CG (Config.PoissonExchange).
type PoissonExchange = pic.ExchangeMode

// PoissonExchange values: PoissonOwnerLocal (the default) keeps only owned
// CSR rows plus a ghost layer resident per rank and ships only
// partition-boundary values — the charge reduction, the per-iteration
// ghost refresh and the phi assembly (DESIGN.md §6j); the full potential
// is replicated only on demand (checkpoints, diagnostics).
// PoissonReplicated moves the full vector through rank 0 every iteration
// (the paper's Table IV scalability-wall structure, for comparison).
const (
	PoissonOwnerLocal = pic.ExchangeOwnerLocal
	PoissonReplicated = pic.ExchangeReplicated
)

// LoadBalance configures the dynamic load balancer (paper §V).
type LoadBalance = balance.Config

// DefaultLoadBalance returns the paper's tuned balancer parameters
// (T=20, Threshold=2.0, R=2, WCell=1, Kuhn-Munkres remapping on).
func DefaultLoadBalance() *LoadBalance {
	cfg := balance.DefaultConfig()
	return &cfg
}

// Platforms for the communication cost model (paper §VI-A).
type Platform = commcost.Platform

// Platform presets.
var (
	Tianhe2 = commcost.Tianhe2
	BSCC    = commcost.BSCC
	Tianhe3 = commcost.Tianhe3
)

// Placement selects the fat-tree MPI rank placement (paper §VII-D2).
type Placement = commcost.Placement

// Placement values.
const (
	InnerFrame = commcost.InnerFrame
	InnerRack  = commcost.InnerRack
	InterRack  = commcost.InterRack
)

// Component names of the modeled time breakdown (paper Table IV rows).
const (
	CompInject       = core.CompInject
	CompDSMCMove     = core.CompDSMCMove
	CompDSMCExchange = core.CompDSMCExchange
	CompReindex      = core.CompReindex
	CompColliReact   = core.CompColliReact
	CompPICMove      = core.CompPICMove
	CompPICExchange  = core.CompPICExchange
	CompPoisson      = core.CompPoisson
	CompRebalance    = core.CompRebalance
)

// NewWorld creates a world of n simulated MPI ranks.
func NewWorld(n int) *World { return simmpi.NewWorld(n, simmpi.Options{}) }

// Reduction operators for Comm.AllreduceFloat64.
var (
	OpSum = simmpi.OpSum
	OpMax = simmpi.OpMax
	OpMin = simmpi.OpMin
)

// DefaultCostModel builds the work-to-seconds cost model for a platform
// and placement.
func DefaultCostModel(p Platform, pl Placement) CostModel {
	return core.DefaultCostModel(p, pl)
}

// CalibrationProfile holds measured per-unit compute costs fitted from a
// benchmark's phase timers (cmd/bench -calibrate); Apply substitutes them
// into a CostModel.
type CalibrationProfile = core.CalibrationProfile

// LoadCalibration reads and validates a calibration profile JSON file.
var LoadCalibration = core.LoadCalibrationFile

// ErrCanceled is the sentinel a canceled run's error matches (errors.Is)
// when Config.Cancel fires; see Config.Cancel.
var ErrCanceled = simmpi.ErrCanceled

// Run executes the coupled simulation on the world and returns aggregated
// statistics.
func Run(world *World, cfg Config) (*RunStats, error) {
	return core.Run(world, cfg)
}

// Checkpoint captures a running simulation's world state for later resume.
type Checkpoint = core.Checkpoint

// CaptureCheckpoint gathers the world state at rank 0 from inside an
// OnStep probe (collective; returns nil on other ranks).
func CaptureCheckpoint(s *Solver, step int) *Checkpoint {
	return core.CaptureCheckpoint(s, step)
}

// LoadCheckpoint reads a checkpoint written by Checkpoint.Save.
var LoadCheckpoint = core.LoadCheckpoint

// DefaultReactions returns the hydrogen plume chemistry (ionization of H,
// recombination of H+).
func DefaultReactions() dsmc.ReactionModel {
	return dsmc.DefaultHydrogenReactions()
}

// FullChemistry returns the extended neutral chemistry: the DefaultReactions
// channels plus H2 formation (H + H -> H2) and collision-induced
// dissociation (H2 + M -> 2H + M), which change the particle count.
func FullChemistry() dsmc.ReactionModel {
	return dsmc.DefaultNeutralChemistry()
}
