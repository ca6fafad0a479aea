//go:build race

package experiments

// raceEnabled says the test binary was built with -race (see ciReport).
const raceEnabled = true
