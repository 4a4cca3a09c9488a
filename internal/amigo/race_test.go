//go:build race

package amigo

// raceEnabled lets TestEndpointHTTPAllocs skip its exact allocation pin.
const raceEnabled = true
