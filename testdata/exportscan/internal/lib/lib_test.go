package lib

import "testing"

// A test's use of Limit does not count, nor does a test's setting of a
// config field.
func TestLimit(t *testing.T) {
	_ = Limit
	(&Widget{}).Unused()
	_ = Dial(DialConfig{TestOnly: 1})
}
