//go:build !race

package serve

// raceEnabled reports whether the race detector instruments this build;
// its shadow bookkeeping allocates, so allocation budgets are not enforced.
const raceEnabled = false
