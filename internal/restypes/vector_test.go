package restypes

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	want := map[Kind]string{CPU: "cpu", Memory: "memory", Disk: "disk", Net: "net"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("invalid kind string = %q", got)
	}
}

func TestAtWithRoundTrip(t *testing.T) {
	// At reads back, for each kind, the dimension V set in that position.
	v := V(1, 2, 3, 4)
	for i, k := range Kinds() {
		if got := v.At(k); got != float64(i+1) {
			t.Errorf("At(%v) = %g, want %d", k, got, i+1)
		}
	}
}

func TestAtPanicsOnInvalidKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At(NumKinds) did not panic")
		}
	}()
	V(1, 1, 1, 1).At(NumKinds)
}

func TestArithmetic(t *testing.T) {
	a, b := V(1, 2, 3, 4), V(4, 3, 2, 1)
	if got := a.Add(b); got != V(5, 5, 5, 5) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V(-3, -1, 1, 3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Sub(b).ClampNonNegative(); got != V(0, 0, 1, 3) {
		t.Errorf("ClampNonNegative = %v", got)
	}
	if got := a.Scale(2); got != V(2, 4, 6, 8) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Mul(b); got != V(4, 6, 6, 4) {
		t.Errorf("Mul = %v", got)
	}
	if got := a.Min(b); got != V(1, 2, 2, 1) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != V(4, 3, 3, 4) {
		t.Errorf("Max = %v", got)
	}
	if got := a.Dot(b); got != 4+6+6+4 {
		t.Errorf("Dot = %g", got)
	}
}

func TestCosineSimilarity(t *testing.T) {
	a := V(1, 0, 0, 0)
	if got := a.CosineSimilarity(a); math.Abs(got-1) > 1e-12 {
		t.Errorf("self similarity = %g, want 1", got)
	}
	b := V(0, 1, 0, 0)
	if got := a.CosineSimilarity(b); got != 0 {
		t.Errorf("orthogonal similarity = %g, want 0", got)
	}
	if got := a.CosineSimilarity(Vector{}); got != 0 {
		t.Errorf("zero-vector similarity = %g, want 0", got)
	}
	// Scaled vectors have identical similarity: the fitness is shape-based.
	d := V(2, 8192, 10, 10)
	if got, want := d.CosineSimilarity(d.Scale(3)), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("scaled similarity = %g, want 1", got)
	}
}

func TestFits(t *testing.T) {
	cap := V(4, 16384, 100, 100)
	if !V(4, 16384, 100, 100).Fits(cap) {
		t.Error("exact fit rejected")
	}
	if !V(2, 1024, 50, 50).Fits(cap) {
		t.Error("smaller vector rejected")
	}
	if V(4.1, 1, 1, 1).Fits(cap) {
		t.Error("oversized CPU accepted")
	}
	if V(1, 1, 1, 101).Fits(cap) {
		t.Error("oversized net accepted")
	}
}

func TestFractionOf(t *testing.T) {
	v := V(2, 8192, 0, 50)
	w := V(4, 16384, 0, 100)
	got := v.FractionOf(w)
	want := V(0.5, 0.5, 0, 0.5)
	if got != want {
		t.Errorf("FractionOf = %v, want %v", got, want)
	}
	if f := V(1, 0, 0, 0).FractionOf(Vector{}); !math.IsInf(f.CPU, 1) {
		t.Errorf("nonzero/zero fraction = %v, want +Inf", f.CPU)
	}
}

func TestMaxComponentSumUniform(t *testing.T) {
	if got := V(1, 9, 3, 4).MaxComponent(); got != 9 {
		t.Errorf("MaxComponent = %g", got)
	}
	if got := V(1, 2, 3, 4).Sum(); got != 10 {
		t.Errorf("Sum = %g", got)
	}
	if got := Uniform(0.5); got != V(0.5, 0.5, 0.5, 0.5) {
		t.Errorf("Uniform = %v", got)
	}
}

func TestPositiveIsZero(t *testing.T) {
	if !V(1, 1, 1, 1).Positive() {
		t.Error("all-positive vector not Positive")
	}
	if V(1, 0, 1, 1).Positive() {
		t.Error("vector with a zero component is Positive")
	}
	if !(Vector{}).IsZero() {
		t.Error("zero vector not IsZero")
	}
	if V(0, 0, 0, 1).IsZero() {
		t.Error("nonzero vector IsZero")
	}
}

func TestString(t *testing.T) {
	got := V(4, 16384, 100, 100).String()
	want := "{cpu:4 mem:16384MB disk:100MB/s net:100MB/s}"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// small constrains quick-check inputs to a well-conditioned range.
func small(x float64) float64 { return math.Mod(math.Abs(x), 1024) }

func sanitize(v Vector) Vector {
	return V(small(v.CPU), small(v.MemoryMB), small(v.DiskMBps), small(v.NetMBps))
}

func TestQuickAddSubInverse(t *testing.T) {
	f := func(a, b Vector) bool {
		a, b = sanitize(a), sanitize(b)
		got := a.Add(b).Sub(b)
		const eps = 1e-9
		return math.Abs(got.CPU-a.CPU) < eps && math.Abs(got.MemoryMB-a.MemoryMB) < eps &&
			math.Abs(got.DiskMBps-a.DiskMBps) < eps && math.Abs(got.NetMBps-a.NetMBps) < eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMinFitsMax(t *testing.T) {
	f := func(a, b Vector) bool {
		a, b = sanitize(a), sanitize(b)
		return a.Min(b).Fits(a) && a.Min(b).Fits(b) && a.Fits(a.Max(b)) && b.Fits(a.Max(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCosineBounds(t *testing.T) {
	f := func(a, b Vector) bool {
		a, b = sanitize(a), sanitize(b)
		c := a.CosineSimilarity(b)
		// All components are non-negative after sanitize, so cosine ∈ [0,1].
		return c >= -1e-12 && c <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickClampNonNegative(t *testing.T) {
	f := func(a, b Vector) bool {
		d := sanitize(a).Sub(sanitize(b)).ClampNonNegative()
		return d.CPU >= 0 && d.MemoryMB >= 0 && d.DiskMBps >= 0 && d.NetMBps >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	// Vectors cross the REST control plane; the wire format is stable
	// exported-field JSON.
	v := V(4, 16384, 100, 1250)
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"CPU":4,"MemoryMB":16384,"DiskMBps":100,"NetMBps":1250}`
	if string(data) != want {
		t.Errorf("wire form = %s, want %s", data, want)
	}
	var back Vector
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != v {
		t.Errorf("round trip = %v, want %v", back, v)
	}
}

// sameFloat reports whether a and b have identical bits, or are both NaN
// (the NaN payload is not part of the contract).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkMinMax compares Min, Max, MinF and MaxF with math.Min and
// math.Max, and ClampNonNegative of both arguments with math.Max(x, 0),
// component by component.
func checkMinMax(t *testing.T, v, w Vector) {
	t.Helper()
	mn, mx, cl, clw := v.Min(w), v.Max(w), v.ClampNonNegative(), w.ClampNonNegative()
	for _, k := range Kinds() {
		x, y := v.At(k), w.At(k)
		if got, want := clw.At(k), math.Max(y, 0); !sameFloat(got, want) {
			t.Errorf("ClampNonNegative %v: %v → %v, math.Max %v", k, y, got, want)
		}
		if got, want := MinF(x, y), math.Min(x, y); !sameFloat(got, want) {
			t.Errorf("MinF(%v, %v) = %v, math.Min %v", x, y, got, want)
		}
		if got, want := MaxF(x, y), math.Max(x, y); !sameFloat(got, want) {
			t.Errorf("MaxF(%v, %v) = %v, math.Max %v", x, y, got, want)
		}
		if got, want := mn.At(k), math.Min(x, y); !sameFloat(got, want) {
			t.Errorf("Min %v: min(%v, %v) = %v, math.Min %v", k, x, y, got, want)
		}
		if got, want := mx.At(k), math.Max(x, y); !sameFloat(got, want) {
			t.Errorf("Max %v: max(%v, %v) = %v, math.Max %v", k, x, y, got, want)
		}
		if got, want := cl.At(k), math.Max(x, 0); !sameFloat(got, want) {
			t.Errorf("ClampNonNegative %v: %v → %v, math.Max %v", k, x, got, want)
		}
	}
}

// TestMinMaxSpecialValues holds Vector.Min, Max and ClampNonNegative to
// math.Min / math.Max on the values where a hand-written comparison goes
// wrong: signed zeros, infinities and NaN, in every pairing and both
// argument orders.
func TestMinMaxSpecialValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{negZero, 0, math.Inf(1), math.Inf(-1), math.NaN(), 1, -1}
	for _, x := range vals {
		for _, y := range vals {
			checkMinMax(t, Uniform(x), Uniform(y))
		}
	}
	// Mixed components: each dimension is compared on its own.
	checkMinMax(t, V(negZero, math.NaN(), math.Inf(1), -2), V(0, 3, 5, math.Inf(-1)))
}

func FuzzVectorMinMax(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add(negZero, 0.0, math.Inf(1), math.NaN(), 0.0, negZero, math.Inf(-1), 1.0)
	f.Add(1.0, 2.0, 3.0, 4.0, 4.0, 3.0, 2.0, 1.0)
	f.Add(-1e-300, 1e300, math.MaxFloat64, -math.SmallestNonzeroFloat64, 0.0, 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g, h, i float64) {
		checkMinMax(t, V(a, b, c, d), V(e, g, h, i))
	})
}
