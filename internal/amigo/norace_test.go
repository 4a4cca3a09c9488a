//go:build !race

package amigo

const raceEnabled = false
