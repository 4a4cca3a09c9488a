//go:build race

package shard

// raceEnabled lets TestMountAllocs skip its exact allocation pin.
const raceEnabled = true
