package amigo

import "net/http"

// Hooks for the external test package (model_test.go), which drives the
// protocol through shard.Gateway and so cannot live inside package amigo.

// MaxLeaseBatch is the lease clamp the model mirrors.
const MaxLeaseBatch = maxLeaseBatch

// ErrLeaseME is DirectTransport's refusal of an upload whose lease names
// another ME than its first result, the 400 of the HTTP route.
var ErrLeaseME = errLeaseME

// HTTPTransport is the Transport an Endpoint with a nil Transport uses:
// one attempt per operation, no retry layer above it.
func HTTPTransport(baseURL string, c *http.Client) Transport {
	return &httpTransport{BaseURL: baseURL, Client: c}
}
