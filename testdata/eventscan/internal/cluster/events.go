// Package cluster is a fixture for the event-path scan in exports_test.go.
package cluster

// EventKind is the fixture's event vocabulary.
type EventKind string

const (
	evLaunch EventKind = "launch"
	NodeDown EventKind = "node-down"
)

const retries = 3

// Counts is the fold of the kinds it counts.
type Counts struct{ Launched, Down int }

func (c *Counts) add(k EventKind) {
	switch k {
	case evLaunch:
		c.Launched++
	case NodeDown:
		c.Down++
	}
}

// Manager counts through emit, and once around it.
type Manager struct {
	counts Counts
	fold   *WALState
}

func (m *Manager) emit(k EventKind) { m.counts.add(k) }

func (m *Manager) repair(n int) {
	switch n { // not on a kind
	case retries:
		m.counts.add(NodeDown)
	}
}

// WALState is the fixture's fold.
type WALState struct {
	AppliedSeq uint64
	Placements map[string]string
}

// NewWALState returns an empty fold.
func NewWALState() *WALState { return &WALState{Placements: make(map[string]string)} }

// apply is the fold's one writer.
func (s *WALState) apply(vm, node string) {
	s.AppliedSeq++
	if node == "" {
		delete(s.Placements, vm)
		return
	}
	s.Placements[vm] = node
}

// place writes the manager's fold around apply.
func (m *Manager) place(vm, node string) { m.fold.Placements[vm] = node }

// fresh deletes from a fold its constructor returned.
func fresh(vm string) *WALState {
	st := NewWALState()
	delete(st.Placements, vm)
	return st
}

// listing is not the fold: a write to its same-named map does not count.
type listing struct{ Placements map[string]string }

func (l *listing) add(vm, node string) { l.Placements[vm] = node }
