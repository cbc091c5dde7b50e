package main

import "time"

// now is the benchmark's only wall-clock read: every set-up, pass,
// request and span time it reports is a difference of two now() values.
func now() time.Time {
	return time.Now() //lint:allow wallclock the benchmark measures host time; nothing it times enters a stall table
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
