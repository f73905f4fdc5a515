package main

import (
	"strings"
	"testing"
)

func twoReports() (*benchReport, *benchReport) {
	oldRep := &benchReport{
		Schema: "dsmcpic-bench/v1",
		Runs: []runResult{{
			Ranks: 2, Strategy: "CC", WallMedianS: 1.0,
			PhaseMedianS: map[string]float64{"Poisson_Solve": 0.009},
			Traffic:      map[string]trafficStats{"Poisson_Solve": {Messages: 5480, Bytes: 23195904}},
			Particles:    1000,
		}},
	}
	newRep := &benchReport{
		Schema: "dsmcpic-bench/v2",
		Runs: []runResult{{
			Ranks: 2, Strategy: "CC", PoissonExchange: "owner", WallMedianS: 0.9,
			PhaseMedianS: map[string]float64{"Poisson_Solve": 0.002},
			Traffic:      map[string]trafficStats{"Poisson_Solve": {Messages: 5480, Bytes: 2000000}},
			Particles:    1000, PoissonIters: 390, PoissonResidual: 5e-7,
		}},
	}
	return oldRep, newRep
}

func TestCompareReportsImprovement(t *testing.T) {
	oldRep, newRep := twoReports()
	var sb strings.Builder
	if compareReports(&sb, oldRep, newRep, wallRegressionLimitPct) {
		t.Fatalf("improvement flagged as regression:\n%s", sb.String())
	}
	out := sb.String()
	for _, want := range []string{
		"ranks=2 CC workers=1 (replicated -> owner)",
		"phase Poisson_Solve:",
		"traffic Poisson_Solve:",
		"poisson iters: 0 -> 390",
		"-10.0%", // wall delta
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCompareReportsWallRegressionGates(t *testing.T) {
	oldRep, newRep := twoReports()
	newRep.Runs[0].WallMedianS = 1.21 // +21% > the 20% gate
	var sb strings.Builder
	if !compareReports(&sb, oldRep, newRep, wallRegressionLimitPct) {
		t.Fatalf("+21%% wall not flagged:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "REGRESSION") {
		t.Errorf("regression line missing:\n%s", sb.String())
	}
	// Exactly at the gate is not a regression (strictly-greater check).
	newRep.Runs[0].WallMedianS = 1.2
	if compareReports(&sb, oldRep, newRep, wallRegressionLimitPct) {
		t.Error("+20% exactly should not gate")
	}
}

func TestCompareReportsPoissonMem(t *testing.T) {
	oldRep, newRep := twoReports()
	// Old file predates poisson_mem (v4): the new value is reported but
	// never gates, whatever its size.
	newRep.Runs[0].PoissonMem = &poissonMem{
		OwnedRowsMax: 700, GhostColsMax: 150,
		MatrixBytesMax: 60_000, VectorBytesMax: 30_000, IndexMapBytesMax: 8_000,
	}
	var sb strings.Builder
	if compareReports(&sb, oldRep, newRep, wallRegressionLimitPct) {
		t.Fatalf("memory must not gate against a pre-v5 baseline:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "old file predates poisson_mem") {
		t.Errorf("missing one-sided poisson_mem report:\n%s", sb.String())
	}

	// Both files carry the field: an improvement passes, a >20% growth of
	// the resident bytes gates.
	oldRep.Runs[0].PoissonMem = &poissonMem{
		OwnedRowsMax: 2601, GhostColsMax: 0,
		MatrixBytesMax: 300_000, VectorBytesMax: 97_000, IndexMapBytesMax: 0,
	}
	sb.Reset()
	if compareReports(&sb, oldRep, newRep, wallRegressionLimitPct) {
		t.Fatalf("resident-bytes drop flagged as regression:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "poisson mem/rank:") {
		t.Errorf("missing poisson_mem delta line:\n%s", sb.String())
	}
	newRep.Runs[0].PoissonMem = &poissonMem{MatrixBytesMax: 480_000}
	sb.Reset()
	if !compareReports(&sb, oldRep, newRep, wallRegressionLimitPct) {
		t.Fatalf("+21%% resident bytes not flagged:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "Poisson resident bytes above") {
		t.Errorf("memory regression line missing:\n%s", sb.String())
	}
	// Exactly at the gate passes (strictly-greater, like the wall gate).
	newRep.Runs[0].PoissonMem = &poissonMem{MatrixBytesMax: 476_400}
	if compareReports(&sb, oldRep, newRep, wallRegressionLimitPct) {
		t.Error("+20% resident bytes exactly should not gate")
	}
}

func TestCompareReportsUnmatchedCells(t *testing.T) {
	oldRep, newRep := twoReports()
	newRep.Runs = append(newRep.Runs, runResult{Ranks: 8, Strategy: "DC", WallMedianS: 2})
	oldRep.Runs = append(oldRep.Runs, runResult{Ranks: 16, Strategy: "CC", WallMedianS: 3})
	var sb strings.Builder
	if compareReports(&sb, oldRep, newRep, wallRegressionLimitPct) {
		t.Fatal("unmatched cells must not gate")
	}
	if !strings.Contains(sb.String(), "ranks=8 DC workers=1: only in new file") ||
		!strings.Contains(sb.String(), "ranks=16 CC workers=1: only in old file") {
		t.Errorf("unmatched cells not reported:\n%s", sb.String())
	}
}
