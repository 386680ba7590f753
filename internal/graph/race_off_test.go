//go:build !race

package graph_test

// raceEnabled flags a -race build: the race runtime allocates on its own
// account, so an allocation budget only holds without it.
const raceEnabled = false
