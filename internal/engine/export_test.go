package engine

import (
	"testing"

	"matchfilter/internal/clocktest"
	"matchfilter/internal/guard"
)

// useManualClock binds the engine's clock to a manual one for the rest
// of the test: engines built after it stamp heartbeats and poll their
// watchdog on the returned clock.
func useManualClock(t testing.TB) *clocktest.Clock {
	c := clocktest.New()
	clock = c
	t.Cleanup(func() { clock = guard.Runtime })
	return c
}
