package core

import (
	"github.com/plasma-hpc/dsmcpic/internal/particle"
	"github.com/plasma-hpc/dsmcpic/internal/rng"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
)

// FieldFrame is one captured snapshot of the simulation's macroscopic
// fields: the fine-grid nodal potential plus per-coarse-cell number
// density and temperature, globally reduced. Frames are what the serving
// daemon streams on /jobs/{id}/frames and what a UI animates.
//
// Every slice is freshly allocated per frame (safe to retain) and every
// value comes off deterministic collectives (fixed-tree allreduce,
// GatherPhi), so for a fixed (Config, Seed) the frame sequence — and its
// canonical JSON encoding — is byte-identical across replays.
type FieldFrame struct {
	// Step is the 0-based DSMC step after which the frame was captured.
	Step int
	// Phi is the nodal electrostatic potential on the fine grid (V),
	// fully replicated (GatherPhi is called first in owner-local mode).
	Phi []float64
	// Density is the global number density per coarse cell (1/m^3),
	// weights applied.
	Density []float64
	// Temperature is the global temperature per coarse cell (K), from
	// the peculiar-velocity variance of all species.
	Temperature []float64
}

// snapshotAccs is the number of per-cell accumulators reduced for one
// frame: real-particle count, mass, momentum (3), and mass-weighted
// squared speed.
const snapshotAccs = 6

// captureSnapshot reduces the moment fields and emits one FieldFrame
// through Config.OnSnapshot on rank 0. Collective: every rank must call
// it at the same step (Step does, gated on SnapshotEvery). The reduction
// uses the fixed binomial-tree AllreduceFloat64 and the owner-local
// GatherPhi, so captured bytes replay exactly.
func (s *Solver) captureSnapshot(step int) {
	nc := s.Ref.Coarse.NumCells()
	acc := make([]float64, snapshotAccs*nc)
	w := acc[0*nc : 1*nc]
	mSum := acc[1*nc : 2*nc]
	mvx := acc[2*nc : 3*nc]
	mvy := acc[3*nc : 4*nc]
	mvz := acc[4*nc : 5*nc]
	mv2 := acc[5*nc : 6*nc]
	for i := 0; i < s.St.Len(); i++ {
		c := s.St.Cell[i]
		wgt := s.weightOf(s.St.Sp[i])
		mass := particle.InfoOf(s.St.Sp[i]).Mass * wgt
		v := s.St.Vel[i]
		w[c] += wgt
		mSum[c] += mass
		mvx[c] += mass * v.X
		mvy[c] += mass * v.Y
		mvz[c] += mass * v.Z
		mv2[c] += mass * v.Norm2()
	}
	red := s.Comm.AllreduceFloat64(acc, simmpi.OpSum)
	// Replicate phi before reading it globally: a no-op in replicated
	// mode, a collective gather in owner-local mode.
	s.dist.GatherPhi(s.Comm, s.phi)
	if s.Comm.Rank() != 0 {
		return
	}
	w = red[0*nc : 1*nc]
	mSum = red[1*nc : 2*nc]
	mvx = red[2*nc : 3*nc]
	mvy = red[3*nc : 4*nc]
	mvz = red[4*nc : 5*nc]
	mv2 = red[5*nc : 6*nc]
	frame := FieldFrame{
		Step:        step,
		Phi:         append([]float64(nil), s.phi...),
		Density:     make([]float64, nc),
		Temperature: make([]float64, nc),
	}
	for c := 0; c < nc; c++ {
		if w[c] <= 0 {
			continue
		}
		frame.Density[c] = w[c] / s.Ref.Coarse.Volumes[c]
		// T from peculiar kinetic energy: 3/2 N k T = 1/2 (Σ m v² − M |v̄|²).
		vbar2 := (mvx[c]*mvx[c] + mvy[c]*mvy[c] + mvz[c]*mvz[c]) / (mSum[c] * mSum[c])
		ke := 0.5 * (mv2[c] - mSum[c]*vbar2)
		if ke < 0 {
			ke = 0 // float cancellation on near-single-particle cells
		}
		frame.Temperature[c] = 2 * ke / (3 * w[c] * rng.KBoltzmann)
	}
	s.Cfg.OnSnapshot(frame)
}
