//go:build race

package lpcluster

const raceEnabled = true
