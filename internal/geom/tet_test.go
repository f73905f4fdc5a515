package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// unitTet is the reference tetrahedron with volume 1/6.
var unitTet = Tet{
	A: Vec3{0, 0, 0},
	B: Vec3{1, 0, 0},
	C: Vec3{0, 1, 0},
	D: Vec3{0, 0, 1},
}

func randTet(r *rand.Rand) Tet {
	// Random tetrahedron with volume bounded away from zero.
	for {
		t := Tet{
			A: Vec3{r.Float64(), r.Float64(), r.Float64()},
			B: Vec3{r.Float64(), r.Float64(), r.Float64()},
			C: Vec3{r.Float64(), r.Float64(), r.Float64()},
			D: Vec3{r.Float64(), r.Float64(), r.Float64()},
		}
		if t.Volume() > 1e-3 {
			return t
		}
	}
}

func TestUnitTetVolume(t *testing.T) {
	if got := unitTet.Volume(); !almostEq(got, 1.0/6, 1e-15) {
		t.Errorf("Volume = %v, want 1/6", got)
	}
	if got := unitTet.SignedVolume(); !almostEq(got, 1.0/6, 1e-15) {
		t.Errorf("SignedVolume = %v, want +1/6", got)
	}
	// Swapping two vertices flips the sign.
	flipped := Tet{A: unitTet.B, B: unitTet.A, C: unitTet.C, D: unitTet.D}
	if got := flipped.SignedVolume(); !almostEq(got, -1.0/6, 1e-15) {
		t.Errorf("flipped SignedVolume = %v, want -1/6", got)
	}
}

func TestCentroid(t *testing.T) {
	c := unitTet.Centroid()
	if !vecAlmostEq(c, Vec3{0.25, 0.25, 0.25}, 1e-15) {
		t.Errorf("Centroid = %v", c)
	}
}

func TestBarycentricVertices(t *testing.T) {
	for i := 0; i < 4; i++ {
		w := unitTet.Barycentric(unitTet.Vertex(i))
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if !almostEq(w[j], want, 1e-12) {
				t.Errorf("vertex %d: w[%d] = %v, want %v", i, j, w[j], want)
			}
		}
	}
}

func TestBarycentricCentroid(t *testing.T) {
	w := unitTet.Barycentric(unitTet.Centroid())
	for j := 0; j < 4; j++ {
		if !almostEq(w[j], 0.25, 1e-12) {
			t.Errorf("w[%d] = %v, want 0.25", j, w[j])
		}
	}
}

// Property: barycentric coordinates sum to 1 and reconstruct the point.
func TestBarycentricPartitionOfUnity(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(px, py, pz float64) bool {
		tet := randTet(r)
		p := Vec3{clamp(px) / 100, clamp(py) / 100, clamp(pz) / 100}
		w := tet.Barycentric(p)
		sum := w[0] + w[1] + w[2] + w[3]
		rec := tet.A.Scale(w[0]).Add(tet.B.Scale(w[1])).Add(tet.C.Scale(w[2])).Add(tet.D.Scale(w[3]))
		return almostEq(sum, 1, 1e-8) && vecAlmostEq(rec, p, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestContains(t *testing.T) {
	inside := []Vec3{{0.1, 0.1, 0.1}, {0.25, 0.25, 0.25}, {0.01, 0.01, 0.9}}
	outside := []Vec3{{1, 1, 1}, {-0.1, 0.1, 0.1}, {0.5, 0.5, 0.5}, {0, 0, 1.001}}
	for _, p := range inside {
		if !unitTet.Contains(p, 1e-12) {
			t.Errorf("Contains(%v) = false, want true", p)
		}
	}
	for _, p := range outside {
		if unitTet.Contains(p, 1e-12) {
			t.Errorf("Contains(%v) = true, want false", p)
		}
	}
	// On-boundary point should be inside with tolerance.
	if !unitTet.Contains(Vec3{0.5, 0.5, 0}, 1e-9) {
		t.Error("boundary point rejected")
	}
}

func TestFaceNormalOutward(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		tet := randTet(r)
		c := tet.Centroid()
		for f := 0; f < 4; f++ {
			n := tet.FaceNormal(f)
			if !almostEq(n.Norm(), 1, 1e-9) {
				t.Fatalf("face %d normal not unit: %v", f, n.Norm())
			}
			fv := FaceVerts[f]
			fc := tet.Vertex(fv[0]).Add(tet.Vertex(fv[1])).Add(tet.Vertex(fv[2])).Scale(1.0 / 3)
			// Outward: pointing away from the centroid.
			if n.Dot(fc.Sub(c)) <= 0 {
				t.Fatalf("face %d normal not outward", f)
			}
		}
	}
}

func TestFaceAreaSumUnitTet(t *testing.T) {
	// Unit tet: three faces of area 1/2 plus the slanted face sqrt(3)/2.
	total := 0.0
	for f := 0; f < 4; f++ {
		total += unitTet.FaceArea(f)
	}
	want := 1.5 + math.Sqrt(3)/2
	if !almostEq(total, want, 1e-12) {
		t.Errorf("total area = %v, want %v", total, want)
	}
}

func TestExitFaceStraightRay(t *testing.T) {
	// Ray from centroid along +x must exit the face x = ... on the slanted
	// side or the face opposite vertex A? For the unit tet the +x direction
	// from (.25,.25,.25) hits plane x+y+z=1 (face opposite A, index 0).
	face, tx := unitTet.ExitFace(unitTet.Centroid(), Vec3{1, 0, 0}, 10)
	if face != 0 {
		t.Fatalf("exit face = %d, want 0", face)
	}
	// Crossing at x+y+z=1: 0.25+t + 0.25 + 0.25 = 1 -> t = 0.25.
	if !almostEq(tx, 0.25, 1e-12) {
		t.Errorf("tExit = %v, want 0.25", tx)
	}
	// Ray along -z exits face z=0, which is the face opposite D (index 3).
	face, tz := unitTet.ExitFace(unitTet.Centroid(), Vec3{0, 0, -1}, 10)
	if face != 3 {
		t.Fatalf("exit face = %d, want 3", face)
	}
	if !almostEq(tz, 0.25, 1e-12) {
		t.Errorf("tExit = %v, want 0.25", tz)
	}
}

func TestExitFaceStaysInside(t *testing.T) {
	// Short ray that never leaves: face must be -1, tExit = tMax.
	face, te := unitTet.ExitFace(unitTet.Centroid(), Vec3{1, 0, 0}, 0.1)
	if face != -1 || te != 0.1 {
		t.Errorf("face=%d tExit=%v, want -1, 0.1", face, te)
	}
}

// Property: the exit point of a ray from an interior point lies on the
// reported face (its barycentric coordinate vanishes) and inside the tet.
func TestExitFaceOnFace(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		tet := randTet(r)
		// Interior start point via random positive barycentric weights.
		w := [4]float64{r.Float64() + .05, r.Float64() + .05, r.Float64() + .05, r.Float64() + .05}
		s := w[0] + w[1] + w[2] + w[3]
		p := tet.A.Scale(w[0] / s).Add(tet.B.Scale(w[1] / s)).Add(tet.C.Scale(w[2] / s)).Add(tet.D.Scale(w[3] / s))
		d := Vec3{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		if d.Norm() < 1e-6 {
			continue
		}
		face, te := tet.ExitFace(p, d, 1e9)
		if face < 0 {
			t.Fatalf("trial %d: ray failed to exit", trial)
		}
		q := p.Add(d.Scale(te))
		wq := tet.Barycentric(q)
		if !almostEq(wq[face], 0, 1e-6) {
			t.Fatalf("trial %d: exit point barycentric[%d] = %v, want 0", trial, face, wq[face])
		}
		if !tet.Contains(q, 1e-6) {
			t.Fatalf("trial %d: exit point not on boundary", trial)
		}
	}
}

// TestExitFaceLongSkewedRay pins the conditioning of the exit time on the
// scale of the plume mesh: a millimetre-sized skewed cell far from the
// origin, crossed by an ion-speed ray (|d| ~ 2e4 m/s, so one unit of ray
// parameter is ~1e7 cell widths away). The computed exit point must lie on
// the reported face plane to ~1e-12 of the cell size.
func TestExitFaceLongSkewedRay(t *testing.T) {
	const h = 2e-3
	o := Vec3{0.031, -0.017, 0.143}
	tet := Tet{
		A: o,
		B: o.Add(Vec3{h, 0.1 * h, -0.05 * h}),
		C: o.Add(Vec3{0.93 * h, 0.21 * h, 0.02 * h}),
		D: o.Add(Vec3{0.4 * h, 0.35 * h, 0.9 * h}),
	}
	r := rand.New(rand.NewSource(5))
	worst := 0.0
	for trial := 0; trial < 200; trial++ {
		w := [4]float64{r.Float64() + .05, r.Float64() + .05, r.Float64() + .05, r.Float64() + .05}
		s := w[0] + w[1] + w[2] + w[3]
		p := tet.A.Scale(w[0] / s).Add(tet.B.Scale(w[1] / s)).Add(tet.C.Scale(w[2] / s)).Add(tet.D.Scale(w[3] / s))
		d := Vec3{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}.Scale(2e4)
		face, te := tet.ExitFace(p, d, 1)
		if face < 0 {
			t.Fatalf("trial %d: ray failed to exit", trial)
		}
		fv := FaceVerts[face]
		p0, p1, p2 := tet.Vertex(fv[0]), tet.Vertex(fv[1]), tet.Vertex(fv[2])
		n := p1.Sub(p0).Cross(p2.Sub(p0)).Normalize()
		q := p.Add(d.Scale(te))
		worst = math.Max(worst, math.Abs(n.Dot(q.Sub(p0)))/h)
	}
	if worst > 1e-12 {
		t.Fatalf("exit point off the face plane by %.3g cell sizes, want <= 1e-12", worst)
	}
}

func TestGradShape(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		tet := randTet(r)
		g := tet.GradShape()
		// Sum of shape gradients is zero (partition of unity).
		sum := g[0].Add(g[1]).Add(g[2]).Add(g[3])
		if sum.Norm() > 1e-9 {
			t.Fatalf("grad sum = %v", sum)
		}
		// Finite-difference check: N_i(p) = barycentric_i(p).
		p := tet.Centroid()
		h := 1e-6
		for i := 0; i < 4; i++ {
			for axis := 0; axis < 3; axis++ {
				dp := Vec3{}
				switch axis {
				case 0:
					dp.X = h
				case 1:
					dp.Y = h
				case 2:
					dp.Z = h
				}
				fd := (tet.Barycentric(p.Add(dp))[i] - tet.Barycentric(p.Sub(dp))[i]) / (2 * h)
				var an float64
				switch axis {
				case 0:
					an = g[i].X
				case 1:
					an = g[i].Y
				case 2:
					an = g[i].Z
				}
				if !almostEq(fd, an, 1e-4*(math.Abs(an)+1)) {
					t.Fatalf("grad N_%d axis %d: fd=%v analytic=%v", i, axis, fd, an)
				}
			}
		}
	}
}

func BenchmarkBarycentric(b *testing.B) {
	p := Vec3{0.2, 0.3, 0.1}
	for i := 0; i < b.N; i++ {
		_ = unitTet.Barycentric(p)
	}
}

func BenchmarkExitFace(b *testing.B) {
	p := unitTet.Centroid()
	d := Vec3{1, 0.2, -0.3}
	for i := 0; i < b.N; i++ {
		_, _ = unitTet.ExitFace(p, d, 1e9)
	}
}

func TestExitFaceZeroVelocity(t *testing.T) {
	// Zero direction: barycentric coordinates never change, no exit.
	face, te := unitTet.ExitFace(unitTet.Centroid(), Vec3{}, 5)
	if face != -1 || te != 5 {
		t.Errorf("zero velocity: face=%d te=%v, want -1, 5", face, te)
	}
}

func TestExitFaceStartOnFace(t *testing.T) {
	// Start exactly on face z=0 (opposite D) moving out: immediate exit.
	p := Vec3{X: 0.25, Y: 0.25, Z: 0}
	face, te := unitTet.ExitFace(p, Vec3{Z: -1}, 5)
	if face != 3 || te != 0 {
		t.Errorf("on-face outward: face=%d te=%v, want 3, 0", face, te)
	}
	// Moving inward from the face: exits through a different face later.
	face, te = unitTet.ExitFace(p, Vec3{Z: 1}, 5)
	if face == 3 || te <= 0 {
		t.Errorf("on-face inward: face=%d te=%v", face, te)
	}
}
