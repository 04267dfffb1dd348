package cluster

import "testing"

// A test's switch on a kind does not count.
func TestKinds(t *testing.T) {
	switch k := evLaunch; k {
	case NodeDown:
		t.Fatal(k)
	}
}
