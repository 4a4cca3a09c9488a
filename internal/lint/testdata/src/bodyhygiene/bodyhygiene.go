// Package bodyhygiene is golden-test input for the ROAM004 analyzer:
// HTTP response bodies must be drained, closed, and read through a
// bound on every path.
package bodyhygiene

import (
	"encoding/json"
	"io"
	"net/http"
)

func badNeverClosed(client *http.Client) error {
	resp, err := client.Get("http://example") // want `response body of "resp" is never closed`
	if err != nil {
		return err
	}
	var v any
	return json.NewDecoder(resp.Body).Decode(&v)
}

func badClosedNotDrained(client *http.Client) error {
	resp, err := client.Get("http://example") // want `response body of "resp" is closed but never drained`
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var v any
	return json.NewDecoder(resp.Body).Decode(&v)
}

func goodDrainAndClose(client *http.Client) error {
	resp, err := client.Get("http://example")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 256<<10))
	resp.Body.Close()
	return nil
}

// Passing the whole response to a module-local helper delegates the
// lifecycle (the amigo drainClose idiom).
func goodDelegateWhole(client *http.Client) error {
	resp, err := client.Get("http://example")
	if err != nil {
		return err
	}
	drainClose(resp)
	return nil
}

func drainClose(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 256<<10))
	resp.Body.Close()
}

// Passing resp.Body to a module-local helper delegates too (the fleet
// drainBody idiom).
func goodDelegateBody(client *http.Client) error {
	resp, err := client.Get("http://example")
	if err != nil {
		return err
	}
	defer drainBody(resp.Body)
	return nil
}

func drainBody(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 256<<10))
	body.Close()
}

// A module-local helper that only reads the body cannot close it: no
// delegation (the wire.Decoder.ReadResults shape).
func badReaderHelper(client *http.Client) error {
	resp, err := client.Get("http://example") // want `response body of "resp" is never closed`
	if err != nil {
		return err
	}
	return readSome(resp.Body)
}

func readSome(r io.Reader) error {
	_, err := r.Read(make([]byte, 1))
	return err
}

// Returning the response hands the lifecycle to the caller.
func goodEscapes(client *http.Client) (*http.Response, error) {
	resp, err := client.Get("http://example")
	if err != nil {
		return nil, err
	}
	return resp, nil
}

func badUnboundedRead(resp *http.Response) ([]byte, error) {
	b, err := io.ReadAll(resp.Body) // want `io\.ReadAll on a network body without a bound`
	return b, err
}

func badUnboundedReqRead(req *http.Request) ([]byte, error) {
	b, err := io.ReadAll(req.Body) // want `io\.ReadAll on a network body without a bound`
	return b, err
}

func goodBoundedRead(resp *http.Response) ([]byte, error) {
	return io.ReadAll(io.LimitReader(resp.Body, 256<<10))
}

func allowedUnbounded(resp *http.Response) ([]byte, error) {
	//lint:allow bodyhygiene golden-test case: justified full read
	b, err := io.ReadAll(resp.Body)
	return b, err
}
