package lib

import "testing"

// A test's use of Limit does not count.
func TestLimit(t *testing.T) { _ = Limit; (&Widget{}).Unused() }
