//go:build !race

package transport

const raceEnabled = false
