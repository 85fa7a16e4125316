package input

import (
	"testing"

	"matchfilter/internal/clocktest"
	"matchfilter/internal/guard"
)

// useManualClock binds the pipeline's clock to a manual one for the rest
// of the test: supervisors built after it read the returned clock.
func useManualClock(t testing.TB) *clocktest.Clock {
	c := clocktest.New()
	clock = c
	t.Cleanup(func() { clock = guard.Runtime })
	return c
}
