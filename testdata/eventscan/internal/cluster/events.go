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
type Manager struct{ counts Counts }

func (m *Manager) emit(k EventKind) { m.counts.add(k) }

func (m *Manager) repair(n int) {
	switch n { // not on a kind
	case retries:
		m.counts.add(NodeDown)
	}
}
