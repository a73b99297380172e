//go:build !race

package bch

const raceEnabled = false
