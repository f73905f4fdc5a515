package pic

import (
	"fmt"
	"sort"

	"github.com/plasma-hpc/dsmcpic/internal/mesh"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
)

// Owner-local exchanges (DESIGN.md §6j): the ExchangeOwnerLocal half of
// DistSolver's three exchanges. All three are boundary-proportional and
// point-to-point:
//
//   - charge reduction: interior nodes have exactly one contributing rank,
//     so only partition-boundary contributions travel, straight to the
//     nodes' owners (TagChargeBoundary);
//   - ghost refresh: each iteration ships only the owned entries other
//     ranks' rows read (TagPoissonHalo);
//   - phi assembly: converged potential goes only to the ranks whose owned
//     fine cells read it — the deposit/field-gather consumer set
//     (TagPhiConsumer). Full replication is on demand, behind GatherPhi,
//     for diagnostics and checkpoints.

// Traffic sub-phase labels for the owner-local once-per-solve exchanges.
// Solve brackets its charge reduction and consumer assembly with these
// (restoring the caller's phase), so benchmarks can attribute the
// boundary-proportional bytes separately from the per-iteration CG
// traffic. Replicated mode never sets them, keeping its byte stream
// untouched.
const (
	PhasePoissonCharge   = "Poisson_Charge"
	PhasePoissonAssemble = "Poisson_Assemble"
)

// FineCellOwners expands the coarse-cell partition to fine cells (paper
// §IV-A: only the coarse grid is decomposed; fine cells inherit their
// coarse parent's rank). Every rank computes the same table.
func FineCellOwners(ref *mesh.Refinement, coarseOwner []int32) []int32 {
	out := make([]int32, ref.Fine.NumCells())
	for fc := range out {
		out[fc] = coarseOwner[ref.CoarseOf(fc)]
	}
	return out
}

// NewDistSolverOwnerLocal prepares an owner-local solver. nodeOwner is the
// per-node rank table (NodeOwners); fineOwner the per-fine-cell table
// (FineCellOwners) from which the charge/consumer pairing is derived. Both
// tables are replicated, so every pair of ranks derives matching index
// lists without negotiation.
func NewDistSolverOwnerLocal(p *Poisson, nodeOwner, fineOwner []int32, nRanks, rank int) (*DistSolver, error) {
	if len(fineOwner) != p.Fine.NumCells() {
		return nil, fmt.Errorf("pic: fine-owner table has %d entries for %d cells", len(fineOwner), p.Fine.NumCells())
	}
	for c, r := range fineOwner {
		if r < 0 || int(r) >= nRanks {
			return nil, fmt.Errorf("pic: fine cell %d owned by invalid rank %d", c, r)
		}
	}
	return newDistSolver(p, nodeOwner, fineOwner, nRanks, rank, ExchangeOwnerLocal)
}

// buildHalo derives the per-neighbour ghost-refresh lists in local ids.
// recvIdx comes straight from the ghost tail (sorted by global id); the
// send side is one pass over the other ranks' rows of the global matrix,
// which every rank holds, so both endpoints derive matching lists without
// any structural-symmetry assumption or negotiation round.
func (d *DistSolver) buildHalo(nRanks, rank int) {
	me := int32(rank)
	nOwn := d.local.NumOwned()
	d.recvIdx = make([][]int32, nRanks)
	for li := nOwn; li < nOwn+d.local.NumGhost(); li++ {
		q := d.Owner[d.local.LocalToGlobal(int32(li))]
		d.recvIdx[q] = append(d.recvIdx[q], int32(li))
	}
	d.sendIdx = make([][]int32, nRanks)
	k := d.P.K
	for i, rowOwner := range d.Owner {
		if rowOwner == me {
			continue
		}
		for e := k.RowPtr[i]; e < k.RowPtr[i+1]; e++ {
			if j := k.ColIdx[e]; d.Owner[j] == me {
				d.sendIdx[rowOwner] = append(d.sendIdx[rowOwner], d.local.LocalOf(j))
			}
		}
	}
	d.sendBuf = make([][]byte, nRanks)
	for q := 0; q < nRanks; q++ {
		d.sendIdx[q] = sortUnique(d.sendIdx[q])
		if len(d.sendIdx[q]) > 0 {
			d.sendNbr = append(d.sendNbr, q)
			d.sendBuf[q] = make([]byte, 8*len(d.sendIdx[q]))
		}
		if len(d.recvIdx[q]) > 0 {
			d.recvNbr = append(d.recvNbr, q)
		}
	}
}

// sortUnique sorts ids ascending and drops duplicates in place.
func sortUnique(ids []int32) []int32 {
	if len(ids) == 0 {
		return nil
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	out := ids[:1]
	for _, v := range ids[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// buildConsumers derives the charge/consumer pairing from fine-cell
// ownership. My consumer set is the nodes of my owned fine cells — exactly
// where DepositCharge writes and the field gather reads. One replicated
// pass over all fine cells gives both directions: rank A's chgSend[B] and
// rank B's chgRecv[A] are the same set ("nodes of A's cells owned by B")
// computed from the same tables, so the wire pairing agrees by
// construction.
func (d *DistSolver) buildConsumers(fineOwner []int32, nRanks, rank int) {
	me := int32(rank)
	d.chgSend = make([][]int32, nRanks)
	d.chgRecv = make([][]int32, nRanks)
	cells := d.P.Fine.Cells
	for fc := range cells {
		fo := fineOwner[fc]
		for _, n := range cells[fc] {
			no := d.Owner[n]
			switch {
			case fo == me && no != me:
				d.chgSend[no] = append(d.chgSend[no], n)
			case fo != me && no == me:
				d.chgRecv[fo] = append(d.chgRecv[fo], d.local.LocalOf(n))
			}
		}
	}
	d.chgSendBuf = make([][]byte, nRanks)
	d.phiSendBuf = make([][]byte, nRanks)
	for q := 0; q < nRanks; q++ {
		d.chgSend[q] = sortUnique(d.chgSend[q])
		d.chgRecv[q] = sortUnique(d.chgRecv[q])
		if len(d.chgSend[q]) > 0 {
			d.chgSendNbr = append(d.chgSendNbr, q)
			d.chgSendBuf[q] = make([]byte, 8*len(d.chgSend[q]))
		}
		if len(d.chgRecv[q]) > 0 {
			d.chgRecvNbr = append(d.chgRecvNbr, q)
			d.phiSendBuf[q] = make([]byte, 8*len(d.chgRecv[q]))
		}
	}
}

// spreadOwnerLocal refreshes the ghost tail of a local vector from the
// owners, shipping only the index-listed boundary entries between
// neighbours in the two ordered rounds of the distributed particle
// exchange (paper §IV-B2): round 1 moves low→high pairs (send to higher
// neighbours ascending, then drain lower neighbours ascending), round 2
// moves high→low. Sends gather from the owned prefix, receives scatter
// into the ghost tail. Sends are posted before the round's receives —
// simmpi sends never block, matching eager/Isend semantics for these
// small boundary payloads — so the schedule cannot deadlock.
//
//commvet:hot
func (d *DistSolver) spreadOwnerLocal(comm *simmpi.Comm, vec []float64) {
	me := comm.Rank()
	// Round 1: low -> high.
	for _, q := range d.sendNbr {
		if q > me {
			d.sendBuf[q] = simmpi.EncodeFloat64sGatherInto(d.sendBuf[q], vec, d.sendIdx[q])
			comm.Send(q, simmpi.TagPoissonHalo, d.sendBuf[q])
		}
	}
	for _, q := range d.recvNbr {
		if q < me {
			simmpi.DecodeFloat64sScatter(vec, d.recvIdx[q], comm.Recv(q, simmpi.TagPoissonHalo))
		}
	}
	// Round 2: high -> low.
	for _, q := range d.sendNbr {
		if q < me {
			d.sendBuf[q] = simmpi.EncodeFloat64sGatherInto(d.sendBuf[q], vec, d.sendIdx[q])
			comm.Send(q, simmpi.TagPoissonHalo, d.sendBuf[q])
		}
	}
	for _, q := range d.recvNbr {
		if q > me {
			simmpi.DecodeFloat64sScatter(vec, d.recvIdx[q], comm.Recv(q, simmpi.TagPoissonHalo))
		}
	}
}

// reduceChargeBoundary performs the boundary-only charge reduction into
// chg: the owned prefix is seeded from this rank's own deposits, then
// neighbour contributions at shared partition-boundary nodes are
// scatter-added in ascending-rank order (a fixed, deterministic summation
// order: own contribution first, then contributors by rank). All sends are
// posted before any receive; simmpi sends never block, so the schedule
// cannot deadlock.
func (d *DistSolver) reduceChargeBoundary(comm *simmpi.Comm, nodeChargeLocal []float64) {
	for li, g := range d.mine {
		d.chg[li] = nodeChargeLocal[g]
	}
	for _, q := range d.chgSendNbr {
		d.chgSendBuf[q] = simmpi.EncodeFloat64sGatherInto(d.chgSendBuf[q], nodeChargeLocal, d.chgSend[q])
		comm.Send(q, simmpi.TagChargeBoundary, d.chgSendBuf[q])
	}
	for _, q := range d.chgRecvNbr {
		simmpi.DecodeFloat64sScatterAdd(d.chg, d.chgRecv[q], comm.Recv(q, simmpi.TagChargeBoundary))
	}
}

// assembleOwnerLocal publishes the converged local solution: owned entries
// of phi directly, then one consumer-targeted exchange delivering each
// boundary value only to the ranks whose owned fine cells read it. Entries
// of phi outside this rank's owned+consumer set are left untouched (use
// GatherPhi before reading phi globally).
func (d *DistSolver) assembleOwnerLocal(comm *simmpi.Comm, phi []float64) {
	for li, g := range d.mine {
		phi[g] = d.x[li]
	}
	prev := comm.Phase()
	comm.SetPhase(PhasePoissonAssemble)
	for _, q := range d.chgRecvNbr { // ranks whose cells read nodes I own
		d.phiSendBuf[q] = simmpi.EncodeFloat64sGatherInto(d.phiSendBuf[q], d.x, d.chgRecv[q])
		comm.Send(q, simmpi.TagPhiConsumer, d.phiSendBuf[q])
	}
	for _, q := range d.chgSendNbr { // owners of my consumer ghosts
		simmpi.DecodeFloat64sScatter(phi, d.chgSend[q], comm.Recv(q, simmpi.TagPhiConsumer))
	}
	comm.SetPhase(prev)
}

// GatherPhi replicates phi on every rank — the explicit on-demand gather
// behind diagnostics, VTK output and checkpoint capture in owner-local
// mode. Replicated mode keeps phi replicated after every Solve, so the
// call is a communication-free no-op there. All ranks must call
// collectively in owner-local mode.
func (d *DistSolver) GatherPhi(comm *simmpi.Comm, phi []float64) {
	if d.Mode == ExchangeReplicated {
		return
	}
	d.encBuf = simmpi.EncodeFloat64sGatherInto(d.encBuf, phi, d.mine)
	parts := comm.Allgatherv(d.encBuf)
	for q, ids := range d.ownedByRank {
		if q == comm.Rank() {
			continue // own entries are already in phi
		}
		simmpi.DecodeFloat64sScatter(phi, ids, parts[q])
	}
}

// ResidentState is the per-rank resident solver footprint backing the
// metrics gauges and bench schema v5: what this rank keeps in memory for
// the Poisson solve, split into matrix storage (the owned rows and their
// IC(0) factor), solver vectors and local⇄global/index-list maps. Every
// term is O(nodes/P + ghosts) except replicated mode's full-length
// assembly buffer. (The mesh, ownership tables and the assembly-time
// global K — shared with the rest of the solver — are outside this scope;
// see DESIGN.md §6j.)
type ResidentState struct {
	OwnedRows     int
	GhostCols     int
	MatrixBytes   int64
	VectorBytes   int64
	IndexMapBytes int64
}

// TotalBytes sums the byte-valued fields.
func (rs ResidentState) TotalBytes() int64 {
	return rs.MatrixBytes + rs.VectorBytes + rs.IndexMapBytes
}

// ResidentState reports this solver's resident footprint (see the type).
func (d *DistSolver) ResidentState() ResidentState {
	return ResidentState{
		OwnedRows:   len(d.mine),
		GhostCols:   d.local.NumGhost(),
		MatrixBytes: d.local.MatrixBytes() + d.pc.Bytes(),
		VectorBytes: 8 * int64(len(d.b)+len(d.r)+len(d.z)+len(d.ap)+len(d.chg)+
			len(d.p)+len(d.x)+len(d.full)),
		IndexMapBytes: d.local.IndexMapBytes() + idxListBytes(d.sendIdx) + idxListBytes(d.recvIdx) +
			idxListBytes(d.chgSend) + idxListBytes(d.chgRecv),
	}
}

// idxListBytes sums the storage of a per-rank index-list table.
func idxListBytes(lists [][]int32) int64 {
	var n int64
	for _, l := range lists {
		n += 4 * int64(len(l))
	}
	return n
}
