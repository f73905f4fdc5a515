package main

import (
	"fmt"
	"io"
	"sort"
)

// wallRegressionLimitPct is the -compare gate: a matched cell whose median
// wall time grew by more than this percentage fails the comparison.
const wallRegressionLimitPct = 20.0

// memRegressionLimitPct gates the v5 per-rank resident Poisson bytes
// (poisson_mem matrix + vector + index-map, max over ranks): growing the
// busiest rank's footprint by more than this fails the comparison. Cells
// where either file predates the field (v4 and older) compare
// traffic-only and never gate on memory.
const memRegressionLimitPct = 20.0

// cellKey matches runs across BENCH files. The Poisson exchange mode is
// deliberately not part of the key: each bench invocation runs one mode,
// and comparing a replicated baseline against an owner candidate is exactly
// the comparison the mode knob exists for (the modes are printed so the
// reader sees what changed). Workers IS part of the key — a 4-worker cell
// is a different machine configuration than a serial one — with 0 (v3
// files and the v4 default) normalized to 1 so old baselines match new
// workers=1 cells.
type cellKey struct {
	Ranks    int
	Strategy string
	Workers  int
}

// keyOf builds the match key for a run, normalizing absent worker counts.
func keyOf(r *runResult) cellKey {
	w := r.Workers
	if w <= 0 {
		w = 1
	}
	return cellKey{r.Ranks, r.Strategy, w}
}

// compareReports prints per-cell wall, per-phase median and traffic deltas
// between two BENCH reports and returns whether any matched cell's median
// wall time regressed by more than wallPct percent. Cells present in only
// one file are listed but never gate.
func compareReports(w io.Writer, oldRep, newRep *benchReport, wallPct float64) bool {
	oldByKey := make(map[cellKey]*runResult, len(oldRep.Runs))
	for i := range oldRep.Runs {
		r := &oldRep.Runs[i]
		oldByKey[keyOf(r)] = r
	}
	regressed := false
	matched := map[cellKey]bool{}
	for i := range newRep.Runs {
		n := &newRep.Runs[i]
		key := keyOf(n)
		o, ok := oldByKey[key]
		if !ok {
			fmt.Fprintf(w, "ranks=%d %s workers=%d: only in %s\n", n.Ranks, n.Strategy, key.Workers, "new file")
			continue
		}
		matched[key] = true
		fmt.Fprintf(w, "ranks=%d %s workers=%d (%s -> %s): wall %.3fs -> %.3fs (%s)\n",
			n.Ranks, n.Strategy, key.Workers, modeLabel(o.PoissonExchange), modeLabel(n.PoissonExchange),
			o.WallMedianS, n.WallMedianS, pctDelta(o.WallMedianS, n.WallMedianS))
		if o.WallMedianS > 0 && n.WallMedianS > o.WallMedianS*(1+wallPct/100) {
			fmt.Fprintf(w, "  REGRESSION: wall median above the %+.0f%% gate\n", wallPct)
			regressed = true
		}
		for _, ph := range sortedKeys(o.PhaseMedianS, n.PhaseMedianS) {
			ov, nv := o.PhaseMedianS[ph], n.PhaseMedianS[ph]
			fmt.Fprintf(w, "  phase %-14s %10.3fms -> %10.3fms (%s)\n",
				ph+":", ov*1e3, nv*1e3, pctDelta(ov, nv))
		}
		for _, ph := range sortedTrafficKeys(o.Traffic, n.Traffic) {
			ot, nt := o.Traffic[ph], n.Traffic[ph]
			fmt.Fprintf(w, "  traffic %-12s %6d msgs / %11d B -> %6d msgs / %11d B (bytes %s)\n",
				ph+":", ot.Messages, ot.Bytes, nt.Messages, nt.Bytes,
				pctDelta(float64(ot.Bytes), float64(nt.Bytes)))
		}
		if o.PoissonIters != 0 || n.PoissonIters != 0 {
			fmt.Fprintf(w, "  poisson iters: %d -> %d, final residual %.3g -> %.3g\n",
				o.PoissonIters, n.PoissonIters, o.PoissonResidual, n.PoissonResidual)
		}
		switch {
		case o.PoissonMem != nil && n.PoissonMem != nil:
			ob, nb := o.PoissonMem.residentBytes(), n.PoissonMem.residentBytes()
			fmt.Fprintf(w, "  poisson mem/rank: %d B -> %d B (bytes %s), owned rows %d -> %d, ghost cols %d -> %d\n",
				ob, nb, pctDelta(float64(ob), float64(nb)),
				o.PoissonMem.OwnedRowsMax, n.PoissonMem.OwnedRowsMax,
				o.PoissonMem.GhostColsMax, n.PoissonMem.GhostColsMax)
			if ob > 0 && float64(nb) > float64(ob)*(1+memRegressionLimitPct/100) {
				fmt.Fprintf(w, "  REGRESSION: per-rank Poisson resident bytes above the %+.0f%% gate\n", memRegressionLimitPct)
				regressed = true
			}
		case n.PoissonMem != nil:
			fmt.Fprintf(w, "  poisson mem/rank: (old file predates poisson_mem) -> %d B resident\n",
				n.PoissonMem.residentBytes())
		}
		if o.Particles != n.Particles {
			fmt.Fprintf(w, "  note: particle counts differ (%d -> %d); physics changed, not just performance\n",
				o.Particles, n.Particles)
		}
	}
	for i := range oldRep.Runs {
		r := &oldRep.Runs[i]
		if !matched[keyOf(r)] {
			fmt.Fprintf(w, "ranks=%d %s workers=%d: only in old file\n", r.Ranks, r.Strategy, keyOf(r).Workers)
		}
	}
	return regressed
}

// modeLabel renders a possibly-absent (v1 schema) exchange-mode string.
func modeLabel(s string) string {
	if s == "" {
		return "replicated" // v1 files predate the knob; that was the only behaviour
	}
	return s
}

// pctDelta formats the relative change from old to new.
func pctDelta(oldV, newV float64) string {
	if oldV == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(newV-oldV)/oldV)
}

// sortedKeys returns the union of both maps' keys, sorted.
func sortedKeys(a, b map[string]float64) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedTrafficKeys(a, b map[string]trafficStats) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
