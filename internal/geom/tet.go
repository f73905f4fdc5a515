package geom

import "math"

// Tet is a tetrahedron given by its four vertex positions. Vertex order
// matters only for the sign of the volume; all query functions work for
// either orientation.
type Tet struct {
	A, B, C, D Vec3
}

// FaceVerts[f] lists the three local vertex indices of face f; face f is the
// face opposite local vertex f (0=A, 1=B, 2=C, 3=D). The solver relies on
// this convention when walking across faces: barycentric coordinate f
// vanishing means the point lies on face f.
var FaceVerts = [4][3]int{
	{1, 2, 3}, // opposite A
	{0, 3, 2}, // opposite B
	{0, 1, 3}, // opposite C
	{0, 2, 1}, // opposite D
}

// SignedVolume6 returns six times the signed volume of the tetrahedron
// (a, b, c, d): dot(b-a, cross(c-a, d-a)). Positive when d lies on the
// side of plane (a,b,c) given by the right-hand rule.
func SignedVolume6(a, b, c, d Vec3) float64 {
	return b.Sub(a).Dot(c.Sub(a).Cross(d.Sub(a)))
}

// Volume returns the (unsigned) volume of the tetrahedron.
func (t Tet) Volume() float64 {
	return math.Abs(SignedVolume6(t.A, t.B, t.C, t.D)) / 6
}

// SignedVolume returns the signed volume of the tetrahedron.
func (t Tet) SignedVolume() float64 {
	return SignedVolume6(t.A, t.B, t.C, t.D) / 6
}

// Centroid returns the barycenter of the tetrahedron.
func (t Tet) Centroid() Vec3 {
	return Vec3{
		(t.A.X + t.B.X + t.C.X + t.D.X) / 4,
		(t.A.Y + t.B.Y + t.C.Y + t.D.Y) / 4,
		(t.A.Z + t.B.Z + t.C.Z + t.D.Z) / 4,
	}
}

// Vertex returns the i-th vertex (0..3).
func (t Tet) Vertex(i int) Vec3 {
	switch i {
	case 0:
		return t.A
	case 1:
		return t.B
	case 2:
		return t.C
	default:
		return t.D
	}
}

// Barycentric returns the barycentric coordinates (wA, wB, wC, wD) of point
// p with respect to the tetrahedron. The coordinates sum to 1 for any p; all
// four are in [0, 1] exactly when p lies inside (or on the boundary of) the
// tetrahedron. Degenerate (zero-volume) tetrahedra return NaNs.
func (t Tet) Barycentric(p Vec3) [4]float64 {
	v := SignedVolume6(t.A, t.B, t.C, t.D)
	// Replace each vertex by p in turn; the ratio of sub-volume to total
	// volume is the weight of the replaced vertex.
	wa := SignedVolume6(p, t.B, t.C, t.D) / v
	wb := SignedVolume6(t.A, p, t.C, t.D) / v
	wc := SignedVolume6(t.A, t.B, p, t.D) / v
	wd := SignedVolume6(t.A, t.B, t.C, p) / v
	return [4]float64{wa, wb, wc, wd}
}

// Contains reports whether p lies inside the tetrahedron, with tolerance
// eps on the barycentric coordinates (eps >= 0 expands the tetrahedron
// slightly; useful against floating-point jitter on shared faces).
func (t Tet) Contains(p Vec3, eps float64) bool {
	w := t.Barycentric(p)
	for _, wi := range w {
		if wi < -eps || math.IsNaN(wi) {
			return false
		}
	}
	return true
}

// FaceNormal returns the outward unit normal of face f (the face opposite
// local vertex f), assuming positive orientation (SignedVolume > 0). For
// negatively oriented tetrahedra the normal points inward.
func (t Tet) FaceNormal(f int) Vec3 {
	fv := FaceVerts[f]
	p0, p1, p2 := t.Vertex(fv[0]), t.Vertex(fv[1]), t.Vertex(fv[2])
	n := p1.Sub(p0).Cross(p2.Sub(p0)).Normalize()
	// Orient away from the opposite vertex.
	if n.Dot(t.Vertex(f).Sub(p0)) > 0 {
		n = n.Scale(-1)
	}
	return n
}

// FaceArea returns the area of face f.
func (t Tet) FaceArea(f int) float64 {
	fv := FaceVerts[f]
	p0, p1, p2 := t.Vertex(fv[0]), t.Vertex(fv[1]), t.Vertex(fv[2])
	return 0.5 * p1.Sub(p0).Cross(p2.Sub(p0)).Norm()
}

// ExitFace computes which face a straight ray starting at p with direction d
// leaves the tetrahedron through, and the ray parameter tExit at the
// crossing (exit point = p + tExit*d). It assumes p is inside (or on the
// boundary of) the tetrahedron. If the ray never leaves within parameter
// tMax, ExitFace returns face -1 and tExit = tMax.
//
// The implementation uses the linearity of barycentric coordinates along the
// ray: w_i(t) = w_i(0) + t * dw_i, and the first coordinate to hit zero
// (with t > tol) identifies the exit face. Both terms come from the shape
// gradients g_i (GradShape): the slope dw_i = g_i·d, and the start value
// w_i(0) = g_i·(p − v) with v a vertex of face i. Neither evaluates a
// barycentric coordinate at a far point such as p+d, whose cancellation
// would cost the crossing time most of its digits when |d| spans many
// cell sizes.
func (t Tet) ExitFace(p, d Vec3, tMax float64) (face int, tExit float64) {
	g := t.GradShape()
	face = -1
	tExit = tMax
	for i := 0; i < 4; i++ {
		dw := g[i].Dot(d)
		if dw >= 0 {
			continue // coordinate i is not decreasing; can't exit face i
		}
		ti := -g[i].Dot(p.Sub(t.Vertex(FaceVerts[i][0]))) / dw
		if ti < 0 {
			ti = 0 // already on/past the face plane: exits immediately
		}
		if ti < tExit {
			tExit = ti
			face = i
		}
	}
	return face, tExit
}

// GradShape returns the gradients of the four linear (P1) shape functions on
// the tetrahedron. Shape function i equals 1 at vertex i and 0 at the other
// vertices; its gradient is constant over the element. These are the
// building blocks for the FEM Poisson assembly and the per-cell electric
// field E = -grad(phi).
func (t Tet) GradShape() [4]Vec3 {
	// N_i is the i-th barycentric coordinate; its gradient is constant:
	// grad N_i = n_i / |6V|, where n_i is the face-i cross product
	// (magnitude 2*Area_i) oriented toward vertex i, since
	// |grad N_i| = Area_i / (3V) = 2*Area_i / (6V).
	absV6 := math.Abs(SignedVolume6(t.A, t.B, t.C, t.D))
	var g [4]Vec3
	verts := [4]Vec3{t.A, t.B, t.C, t.D}
	for i := 0; i < 4; i++ {
		fv := FaceVerts[i]
		p0, p1, p2 := verts[fv[0]], verts[fv[1]], verts[fv[2]]
		n := p1.Sub(p0).Cross(p2.Sub(p0))
		if n.Dot(verts[i].Sub(p0)) < 0 {
			n = n.Scale(-1)
		}
		g[i] = n.Scale(1 / absV6)
	}
	return g
}
