// Package lib is a fixture for the exported-name scan in exports_test.go.
package lib

// Limit is exported and never read.
const Limit = 3

// Used is read by cmd/app.
const Used = 1

// Orphan is a type nothing names outside its own declaration and methods.
type Orphan struct{ next *Orphan }

// Size is a method of an unused type; the type's methods do not keep it.
func (o *Orphan) Size() int { return Used }

// Widget is constructed by cmd/app.
type Widget struct{ n int }

// NewWidget is called by cmd/app.
func NewWidget() *Widget { return &Widget{n: helper()} }

// Turn is called by cmd/app.
func (w *Widget) Turn() { w.n++ }

// Spin calls itself only.
func (w *Widget) Spin(k int) {
	if k > 0 {
		w.Spin(k - 1)
	}
}

// Unused is a method nothing calls.
func (w *Widget) Unused() {}

// Recursive calls only itself.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

func helper() int { return Used }

// DialConfig is the field scan's fixture: each field is set in one way.
type DialConfig struct {
	TestOnly  int // set only from lib_test.go
	Defaulted int // filled in only by withDefaults
	Literal   int // set by a composite literal in cmd/app
	Addressed int // set through &cfg.Addressed in cmd/app
	Assigned  int // set by an assignment in Dial
}

func (c DialConfig) withDefaults() DialConfig {
	if c.Defaulted == 0 {
		c.Defaulted = 3
	}
	return c
}

// Dial is called by cmd/app.
func Dial(cfg DialConfig) int {
	cfg = cfg.withDefaults()
	cfg.Assigned = cfg.Literal + cfg.Addressed
	return cfg.Assigned + cfg.Defaulted + cfg.TestOnly
}
