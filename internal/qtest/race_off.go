//go:build !race

package qtest

const raceEnabled = false
