//go:build !race

package core

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation changes what allocates: exact
// allocation pins skip under it.
const raceEnabled = false
