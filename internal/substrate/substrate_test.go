package substrate_test

import (
	"testing"

	"deflation/internal/substrate"
)

// TestKindNormalize: the zero Kind is a hypervisor (state written before
// substrates existed), and every named kind is itself.
func TestKindNormalize(t *testing.T) {
	for k, want := range map[substrate.Kind]substrate.Kind{
		"":                       substrate.KindHypervisor,
		substrate.KindHypervisor: substrate.KindHypervisor,
		substrate.KindContainer:  substrate.KindContainer,
	} {
		if got := k.Normalize(); got != want {
			t.Errorf("Kind(%q).Normalize() = %q, want %q", k, got, want)
		}
	}
}
