//go:build race

package broker

// raceEnabled thins the crash sweeps when the race detector (which
// slows the simulator an order of magnitude) is on: every crash point
// still goes through the fan-out, only fewer of them are visited.
const raceEnabled = true
