//go:build race

package bsplib

// raceEnabled turns on poison, which overwrites released payload bytes.
const raceEnabled = true
