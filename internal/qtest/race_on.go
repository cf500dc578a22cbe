//go:build race

package qtest

// raceEnabled thins the crash sweeps when the race detector (which
// slows the simulator an order of magnitude) is on: every kind of
// access is still cut, only fewer of them.
const raceEnabled = true
