package pic

import (
	"fmt"
	"math"

	"github.com/plasma-hpc/dsmcpic/internal/mesh"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
	"github.com/plasma-hpc/dsmcpic/internal/sparse"
)

// NodeOwners assigns each fine-grid node to the rank owning the
// lowest-indexed fine cell touching it, where fine-cell ownership follows
// the coarse-cell partition (paper §IV-A: only the coarse grid is
// decomposed; fine cells and nodes inherit). Every rank computes the same
// assignment deterministically.
func NodeOwners(ref *mesh.Refinement, coarseOwner []int32) []int32 {
	owners := make([]int32, ref.Fine.NumNodes())
	for i := range owners {
		owners[i] = -1
	}
	for fc := range ref.Fine.Cells {
		rank := coarseOwner[ref.CoarseOf(fc)]
		for _, n := range ref.Fine.Cells[fc] {
			if owners[n] == -1 {
				owners[n] = rank
			}
		}
	}
	return owners
}

// ExchangeMode selects the communication structure of the distributed
// CG's three exchanges: the once-per-solve charge reduction, the
// per-iteration ghost refresh of the search direction, and the
// once-per-solve phi publication. Both modes run the same owned-row CG on
// the same partition-local matrix, so given the same right-hand side their
// iterates are bitwise identical.
type ExchangeMode int

const (
	// ExchangeOwnerLocal — the default — is true row ownership (DESIGN.md
	// §6j): the charge reduction ships only partition-boundary
	// contributions point-to-point to node owners, each iteration ships
	// only the ghost entries owned rows read (a PETSc VecScatter
	// analogue), and converged phi is delivered only to the ranks whose
	// owned fine cells read it. All traffic is O(partition boundary).
	// Construct with NewDistSolverOwnerLocal (the mode needs fine-cell
	// ownership).
	ExchangeOwnerLocal ExchangeMode = iota
	// ExchangeReplicated reduces the charge with a full-vector allreduce,
	// re-assembles the full search direction through rank 0 every
	// iteration (Gatherv + Bcast, O(nodes) regardless of rank count) and
	// replicates phi the same way at convergence — the paper's Poisson
	// scalability wall (Table IV), kept for internal/experiments.
	ExchangeReplicated
)

// exchangeModeNames is the config-file spelling of each mode.
var exchangeModeNames = [...]string{
	ExchangeOwnerLocal: "owner",
	ExchangeReplicated: "replicated",
}

// String returns the mode's config-file spelling ("owner"/"replicated").
func (m ExchangeMode) String() string {
	if m >= 0 && int(m) < len(exchangeModeNames) {
		return exchangeModeNames[m]
	}
	return fmt.Sprintf("ExchangeMode(%d)", int(m))
}

// ParseExchangeMode inverts ExchangeMode.String.
func ParseExchangeMode(s string) (ExchangeMode, error) {
	for m, name := range exchangeModeNames {
		if s == name {
			return ExchangeMode(m), nil
		}
	}
	return 0, fmt.Errorf("pic: unknown Poisson exchange mode %q (want owner or replicated)", s)
}

// DistSolver runs the Poisson solve with the communication structure of a
// row-distributed parallel Krylov solver (the paper's PETSc KSP usage,
// §IV-C): each rank keeps and computes only the matrix rows of the nodes
// it owns (sparse.LocalCSR: owned rows plus a ghost column layer), inner
// products are allreduced, and the configured ExchangeMode supplies the
// charge reduction, the per-iteration ghost refresh and the phi
// publication. The preconditioner is block Jacobi with an IC(0) factor of
// each rank's owned×owned block (sparse.IC0), so it adds no
// communication and depends on the partition only: both modes iterate
// bitwise identically.
type DistSolver struct {
	P     *Poisson
	Owner []int32
	Mode  ExchangeMode

	ownedByRank [][]int32
	mine        []int32 // owned global ids, ascending: local ids 0..len(mine)-1
	local       *sparse.LocalCSR
	pc          *sparse.IC0 // block-Jacobi IC(0) of the owned×owned block

	// Ghost-refresh lists (owner mode), in local ids and derived from the
	// CSR column pattern, so both sides of every pairing agree exactly:
	// sendIdx[q] lists my owned nodes that rank q's rows reference (what I
	// ship to q); recvIdx[q] lists my ghost columns owned by q. Both are
	// in ascending global order, which fixes the packing order on the
	// wire.
	sendIdx [][]int32
	recvIdx [][]int32
	sendNbr []int // ranks with non-empty sendIdx, ascending
	recvNbr []int // ranks with non-empty recvIdx, ascending

	// Charge/consumer pairing (owner mode), derived from fine-cell
	// ownership. My consumer set is the nodes of my owned fine cells
	// (deposit writes and field-gather reads touch exactly those):
	// chgSend[q] lists, in global ids, my consumer nodes owned by q —
	// charges flow out along it and converged phi flows back in;
	// chgRecv[q] lists, in local ids, my owned nodes that are q's
	// consumers — charges flow in, phi flows out.
	chgSend    [][]int32
	chgRecv    [][]int32
	chgSendNbr []int
	chgRecvNbr []int

	// Reused buffers: everything the solve path touches is allocated once
	// at construction, so steady-state solves allocate nothing. sendBuf[q]
	// is repacked each exchange; that is safe without copying (simmpi
	// does not copy payloads) because at least one allreduce completes
	// between consecutive exchanges, and a finished allreduce proves every
	// peer contributed — i.e. passed its previous receive phase and fully
	// decoded the previous payload.
	sendBuf    [][]byte
	chgSendBuf [][]byte
	phiSendBuf [][]byte
	encBuf     []byte    // owned-segment encode buffer
	full       []float64 // replicated mode: the assembled full vector
	fullEnc    []byte    // replicated mode, rank 0: its encoding

	b, r, z, ap, chg []float64 // owned-length CG state
	p, x             []float64 // owned+ghost (the matvec reads ghosts)
	red              [3]float64
}

// NewDistSolver prepares a replicated-mode solver for a world of nRanks;
// rank is this rank's id and owner the per-node rank table (NodeOwners).
// ExchangeOwnerLocal additionally needs fine-cell ownership — use
// NewDistSolverOwnerLocal for that mode.
func NewDistSolver(p *Poisson, owner []int32, nRanks, rank int, mode ExchangeMode) (*DistSolver, error) {
	switch mode {
	case ExchangeReplicated:
		return newDistSolver(p, owner, nil, nRanks, rank, mode)
	case ExchangeOwnerLocal:
		return nil, fmt.Errorf("pic: owner-local mode needs fine-cell ownership; use NewDistSolverOwnerLocal")
	}
	return nil, fmt.Errorf("pic: unknown Poisson exchange mode %v", mode)
}

// newDistSolver is the builder behind both constructors: it validates the
// node-owner table, extracts the partition-local matrix, sizes the CG
// state, and builds the mode's exchange lists and buffers. fineOwner is
// used (and already validated) in owner mode only.
func newDistSolver(p *Poisson, owner, fineOwner []int32, nRanks, rank int, mode ExchangeMode) (*DistSolver, error) {
	n := p.Fine.NumNodes()
	if len(owner) != n {
		return nil, fmt.Errorf("pic: owner table has %d entries for %d nodes", len(owner), n)
	}
	d := &DistSolver{P: p, Owner: owner, Mode: mode, ownedByRank: make([][]int32, nRanks)}
	for i, r := range owner {
		if r < 0 || int(r) >= nRanks {
			return nil, fmt.Errorf("pic: node %d owned by invalid rank %d", i, r)
		}
		d.ownedByRank[r] = append(d.ownedByRank[r], int32(i))
	}
	d.mine = d.ownedByRank[rank]
	var err error
	if d.local, err = sparse.NewLocalCSR(p.K, d.mine); err != nil {
		return nil, err
	}
	d.pc = sparse.NewIC0(d.local)
	nOwn, tot := d.local.NumOwned(), d.local.NumOwned()+d.local.NumGhost()
	d.b = make([]float64, nOwn)
	d.r = make([]float64, nOwn)
	d.z = make([]float64, nOwn)
	d.ap = make([]float64, nOwn)
	d.chg = make([]float64, nOwn)
	d.p = make([]float64, tot)
	d.x = make([]float64, tot)
	d.encBuf = make([]byte, 8*nOwn)
	if mode == ExchangeReplicated {
		d.full = make([]float64, n)
		if rank == 0 {
			d.fullEnc = make([]byte, 8*n)
		}
		return d, nil
	}
	d.buildHalo(nRanks, rank)
	d.buildConsumers(fineOwner, nRanks, rank)
	return d, nil
}

// OwnedNodes returns the node ids this rank owns (do not modify).
func (d *DistSolver) OwnedNodes() []int32 { return d.mine }

// IterNNZ returns the matrix and factor entries one CG iteration reads on
// this rank: the owned-row matvec plus one preconditioner apply.
func (d *DistSolver) IterNNZ() int64 {
	return int64(d.local.NNZ() + d.pc.ApplyNNZ())
}

// IterCodecBytes returns the bytes this rank encodes or decodes in one CG
// iteration's ghost refresh. Replicated mode funnels the full vector
// through rank 0: every rank encodes its owned segment and decodes the
// full vector, and rank 0 also decodes every segment and encodes the full
// vector — O(nodes) per rank whatever the rank count. Owner mode packs
// its send lists and unpacks its ghost lists only.
func (d *DistSolver) IterCodecBytes() int64 {
	if d.Mode == ExchangeReplicated {
		n := int64(len(d.full))
		b := 8 * (int64(len(d.mine)) + n)
		if d.fullEnc != nil { // rank 0
			b += 16 * n
		}
		return b
	}
	// idxListBytes counts 4 bytes per index; each index moves one float64.
	return 2 * (idxListBytes(d.sendIdx) + idxListBytes(d.recvIdx))
}

// dotOwned computes sum over the first n entries of a[i]*b[i].
//
//commvet:hot
func dotOwned(n int, a, b []float64) float64 {
	var s float64
	for i := 0; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// replicate assembles the full vector from every rank's owned prefix of
// vec into d.full on every rank: gather the owned segments at rank 0,
// which assembles and broadcasts the full vector. Traffic is O(nodes)
// regardless of rank count, funnelled through rank 0 — the communication
// structure behind the paper's Poisson scalability wall.
//
//commvet:hot
func (d *DistSolver) replicate(comm *simmpi.Comm, vec []float64) {
	d.encBuf = simmpi.EncodeFloat64sInto(d.encBuf, vec[:len(d.mine)])
	parts := comm.Gatherv(0, d.encBuf)
	var blob []byte
	if comm.Rank() == 0 {
		for q, ids := range d.ownedByRank {
			simmpi.DecodeFloat64sScatter(d.full, ids, parts[q])
		}
		d.fullEnc = simmpi.EncodeFloat64sInto(d.fullEnc, d.full)
		blob = d.fullEnc
	}
	simmpi.DecodeFloat64sInto(d.full, comm.Bcast(0, blob))
}

// loadGhosts fills the ghost tail of a local vector from a full-length
// one.
func (d *DistSolver) loadGhosts(vec, full []float64) {
	for li := len(d.mine); li < len(vec); li++ {
		vec[li] = full[d.local.LocalToGlobal(int32(li))]
	}
}

// spread refreshes the ghost tail of a local vector from the owners.
//
//commvet:hot
func (d *DistSolver) spread(comm *simmpi.Comm, vec []float64) {
	if d.Mode == ExchangeReplicated {
		d.replicate(comm, vec)
		d.loadGhosts(vec, d.full)
		return
	}
	d.spreadOwnerLocal(comm, vec)
}

// reduceCharge sums the per-rank nodal charge contributions into the
// owned-length d.chg. Replicated mode allreduces the full vector; owner
// mode ships only partition-boundary contributions, under its own phase
// label.
func (d *DistSolver) reduceCharge(comm *simmpi.Comm, nodeChargeLocal []float64) {
	if d.Mode == ExchangeReplicated {
		charge := comm.AllreduceFloat64(nodeChargeLocal, simmpi.OpSum)
		for li, g := range d.mine {
			d.chg[li] = charge[g]
		}
		return
	}
	prev := comm.Phase()
	comm.SetPhase(PhasePoissonCharge)
	d.reduceChargeBoundary(comm, nodeChargeLocal)
	comm.SetPhase(prev)
}

// loadGuess copies the initial guess phi into d.x, ghost tail included.
// A replicated-mode phi is replicated after every solve, so its ghost
// entries are current; an owner-mode phi keeps only the consumer set
// fresh, which the CSR ghost tail can exceed, so the ghosts are refreshed
// from the owners.
func (d *DistSolver) loadGuess(comm *simmpi.Comm, phi []float64) {
	for li, g := range d.mine {
		d.x[li] = phi[g]
	}
	if d.Mode == ExchangeReplicated {
		d.loadGhosts(d.x, phi)
		return
	}
	d.spreadOwnerLocal(comm, d.x)
}

// publish writes the converged solution into phi: replicated mode
// replicates the full vector on every rank; owner mode writes the owned
// entries and delivers boundary values to their consumers only.
func (d *DistSolver) publish(comm *simmpi.Comm, phi []float64) {
	if d.Mode == ExchangeReplicated {
		d.replicate(comm, d.x)
		copy(phi, d.full)
		return
	}
	d.assembleOwnerLocal(comm, phi)
}

// Solve reduces the per-rank nodal charge contributions, builds the
// owned right-hand side, and runs the distributed block-Jacobi
// IC(0)-preconditioned CG. phi (full length) is the initial guess and is
// overwritten with the solution: everywhere in replicated mode, on owned
// and consumer nodes in owner mode (call GatherPhi before reading it
// globally). All ranks must call Solve collectively. Zero opts fields
// resolve to the shared solver defaults (sparse.DefaultTol et al.).
func (d *DistSolver) Solve(comm *simmpi.Comm, nodeChargeLocal, phi []float64, opts sparse.SolveOptions) (sparse.SolveResult, error) {
	n := d.P.Fine.NumNodes()
	if len(nodeChargeLocal) != n || len(phi) != n {
		return sparse.SolveResult{}, fmt.Errorf("pic: Solve dimension mismatch")
	}
	opts = opts.WithDefaults(n)
	nOwn := len(d.mine)
	d.reduceCharge(comm, nodeChargeLocal)

	// Owned right-hand side (Poisson.RHSInto restricted to owned rows).
	p := d.P
	for li, g := range d.mine {
		if p.IsDirichlet[g] {
			d.b[li] = p.DirichletVal[g]
			continue
		}
		v := d.chg[li] / Epsilon0
		for _, cp := range p.couplings[g] {
			v -= cp.k * p.DirichletVal[cp.node]
		}
		d.b[li] = v
	}

	d.loadGuess(comm, phi)
	// r = b - K x on owned rows.
	d.local.MulVecOwned(d.ap, d.x)
	for i := 0; i < nOwn; i++ {
		d.r[i] = d.b[i] - d.ap[i]
	}
	d.pc.Apply(d.z, d.r)
	copy(d.p, d.z)
	// One fused 3-element allreduce seeds |b|^2, |r|^2 and r.z together.
	d.red[0] = dotOwned(nOwn, d.b, d.b)
	d.red[1] = dotOwned(nOwn, d.r, d.r)
	d.red[2] = dotOwned(nOwn, d.r, d.z)
	sums := comm.AllreduceFloat64(d.red[:3], simmpi.OpSum)
	bnorm := math.Sqrt(sums[0])
	if bnorm == 0 {
		// The solution is zero everywhere; every rank knows that without
		// communication (bnorm is an allreduce result).
		for i := range phi {
			phi[i] = 0
		}
		return sparse.SolveResult{Converged: true}, nil
	}
	rr, rz := sums[1], sums[2]
	d.spread(comm, d.p)
	it := 0
	for ; it < opts.MaxIter; it++ {
		res := math.Sqrt(rr) / bnorm
		if res <= opts.Tol {
			d.publish(comm, phi)
			return sparse.SolveResult{Iterations: it, Residual: res, Converged: true}, nil
		}
		d.local.MulVecOwned(d.ap, d.p)
		d.red[0] = dotOwned(nOwn, d.p, d.ap)
		pap := comm.AllreduceFloat64(d.red[:1], simmpi.OpSum)[0]
		if pap <= 0 {
			// pap is an allreduce result, bitwise identical on every rank,
			// so all ranks take this exit together.
			return sparse.SolveResult{Iterations: it, Residual: res},
				fmt.Errorf("pic: distributed CG breakdown (pAp=%g)", pap)
		}
		alpha := rz / pap
		for i := 0; i < nOwn; i++ {
			d.x[i] += alpha * d.p[i]
			d.r[i] -= alpha * d.ap[i]
		}
		d.pc.Apply(d.z, d.r)
		// The per-iteration |r|^2 and r.z reductions ride one fused
		// 2-element allreduce.
		d.red[0] = dotOwned(nOwn, d.r, d.r)
		d.red[1] = dotOwned(nOwn, d.r, d.z)
		sums := comm.AllreduceFloat64(d.red[:2], simmpi.OpSum)
		rr = sums[0]
		rzNew := sums[1]
		beta := rzNew / rz
		rz = rzNew
		for i := 0; i < nOwn; i++ {
			d.p[i] = d.z[i] + beta*d.p[i]
		}
		d.spread(comm, d.p)
	}
	res := math.Sqrt(rr) / bnorm
	d.publish(comm, phi)
	return sparse.SolveResult{Iterations: it, Residual: res}, nil
}
