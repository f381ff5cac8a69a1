//go:build !race

package group

const raceEnabled = false
