package spark

import "testing"

func TestRDDBuilders(t *testing.T) {
	ctx := NewContext()
	src := ctx.Source("in", 8, 1.0, 10)
	if src.ID() != 0 || src.Name() != "in" || src.Partitions() != 8 {
		t.Errorf("source = %d/%q/%d", src.ID(), src.Name(), src.Partitions())
	}
	m := src.Map("m", 0.5, 5)
	if m.Partitions() != 8 {
		t.Errorf("map partitions = %d, want parent's 8", m.Partitions())
	}
	if len(m.deps) != 1 || m.deps[0].Wide || m.deps[0].Parent != src {
		t.Errorf("map deps wrong: %+v", m.deps)
	}
	sh := m.Shuffle("s", 4, 0.2, 2)
	if sh.Partitions() != 4 || !sh.deps[0].Wide {
		t.Error("shuffle dep not wide or partitions wrong")
	}
	j := sh.Join(m, "j", 2, 0.1, 1)
	if len(j.deps) != 2 || !j.deps[0].Wide || !j.deps[1].Wide {
		t.Errorf("join deps wrong: %+v", j.deps)
	}
	tr := ctx.Transform("t", 8, 0.1, 1, Dep{Parent: src}, Dep{Parent: sh, Broadcast: true})
	if len(tr.deps) != 2 || !tr.deps[1].Broadcast {
		t.Error("transform deps wrong")
	}
	if ctx.nextID != 5 {
		t.Errorf("context assigned %d ids, want 5", ctx.nextID)
	}
}

func TestRDDFlags(t *testing.T) {
	ctx := NewContext()
	r := ctx.Source("in", 4, 1, 1)
	if r.cached || r.driverHeld {
		t.Error("fresh RDD has flags set")
	}
	if r.Cache() != r || !r.cached {
		t.Error("Cache not chainable/effective")
	}
	if r.CollectToDriver() != r || !r.driverHeld {
		t.Error("CollectToDriver not chainable/effective")
	}
}

func TestRDDValidationPanics(t *testing.T) {
	ctx := NewContext()
	mustPanic(t, "zero partitions", func() { ctx.Source("x", 0, 1, 1) })
	mustPanic(t, "negative work", func() { ctx.Source("x", 1, -1, 1) })
	mustPanic(t, "negative out", func() { ctx.Source("x", 1, 1, -1) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}
