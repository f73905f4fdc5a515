package simmpi

// Point-to-point tag registry. User-level subsystems draw their Send/Recv
// tags from the named constants below; the commvet tagdiscipline analyzer
// rejects integer literals and function-local constants at call sites, so
// every tag in the codebase is reviewable here, in one place.
//
// The (src, tag) pair is the whole matching namespace of a receive: two
// subsystems that pick the same tag can silently intercept each other's
// traffic if their calls ever interleave. The registry therefore reserves
// a disjoint block per subsystem; a new subsystem takes the next free
// block instead of inventing a literal.
//
// Negative tags are reserved for the collectives' internal rounds (see
// collectives.go) and must never be used for user point-to-point traffic.
const (
	// tagBlockSize is the span of each subsystem's reserved block.
	tagBlockSize = 0x100

	// TagExchangeBase..TagExchangeBase+0xff: particle-exchange subsystem
	// (internal/exchange).
	TagExchangeBase = 0x100
	// TagExchangeMigrate carries packed particle payloads in the
	// distributed (pairwise) exchange strategy's two ordered rounds.
	TagExchangeMigrate = TagExchangeBase + 0

	// TagCheckpointBase..TagCheckpointBase+0xff: checkpoint/restart
	// subsystem (internal/core resilient runtime).
	TagCheckpointBase = 0x200
	// TagCheckpointGather carries each rank's encoded particle payload to
	// rank 0 during a collective checkpoint capture (core's
	// CaptureCheckpoint) — checkpoint traffic matches on its own tag
	// instead of riding the generic Gatherv collective internals.
	TagCheckpointGather = TagCheckpointBase + 0

	// TagPoissonBase..TagPoissonBase+0xff: distributed Poisson solver
	// (internal/pic distributed CG).
	TagPoissonBase = 0x300
	// TagPoissonHalo carries boundary (ghost-node) entries of the CG
	// search direction between neighbouring row blocks in the owner-local
	// ghost refresh's two ordered rounds.
	TagPoissonHalo = TagPoissonBase + 0
	// TagChargeBoundary carries per-neighbour partial nodal charges in the
	// owner-local solver's boundary-only charge reduction: each rank ships
	// its deposited contributions at partition-boundary nodes straight to
	// the nodes' owners (interior nodes have exactly one contributor and
	// never touch the wire).
	TagChargeBoundary = TagPoissonBase + 1
	// TagPhiConsumer carries converged potential values from node owners
	// to the ranks whose owned fine cells read them (the field-gather /
	// Boris consumer set) — the owner-local replacement for the
	// full-vector convergence allgatherv.
	TagPhiConsumer = TagPoissonBase + 2

	// TagUserBase marks the start of unreserved space: ad-hoc tools and
	// experiments should allocate a block here and register it above.
	TagUserBase = 0x400
)
