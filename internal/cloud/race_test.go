//go:build race

package cloud

// The race detector's instrumentation allocates on its own, so
// allocation pins do not hold under it.
func init() { raceEnabled = true }
