// The robustness layer's one clock: every time-dependent path of the
// guard layer and the pipeline it supervises reads a Clock. Production
// binds Runtime; a package that reads time keeps its Clock in a
// package-private variable that only its export_test.go rebinds, to a
// clocktest.Clock that moves only when the test advances it.
package guard

import "time"

// Clock reads the current time and arms one-shot timers.
type Clock interface {
	Now() time.Time
	// AfterFunc calls f once d has passed, unless the returned stop is
	// called first (stop then reports true).
	AfterFunc(d time.Duration, f func()) (stop func() bool)
}

// Runtime is the production clock: the runtime's own.
var Runtime Clock = runtimeClock{}

type runtimeClock struct{}

func (runtimeClock) Now() time.Time { return time.Now() }

func (runtimeClock) AfterFunc(d time.Duration, f func()) func() bool {
	return time.AfterFunc(d, f).Stop
}

// After returns a channel that is closed once c has moved d on, and the
// stop that disarms it.
func After(c Clock, d time.Duration) (<-chan struct{}, func() bool) {
	ch := make(chan struct{})
	return ch, c.AfterFunc(d, func() { close(ch) })
}
