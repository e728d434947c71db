package main

import "time"

// now reads the wall clock. Every timing the benchmark reports goes
// through here: measuring elapsed time is this program's whole job, and
// none of it feeds the report bytes it checks.
func now() time.Time {
	//lint:ignore walltime the benchmark measures elapsed wall time by design
	return time.Now()
}

// seconds returns the wall time elapsed since start, in seconds.
func seconds(start time.Time) float64 {
	//lint:ignore walltime the benchmark measures elapsed wall time by design
	return time.Since(start).Seconds()
}

// durationOf converts seconds to a time.Duration.
func durationOf(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
