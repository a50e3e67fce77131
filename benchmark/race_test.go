//go:build race

package main

// raceDetector says the test binary was built with -race.
const raceDetector = true
