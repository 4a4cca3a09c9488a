package wire

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// decodeFrame routes a full frame through ParseHeader and the matching
// payload decoder, returning the re-encoded frame when decoding
// succeeds.
func decodeFrame(d *Decoder, frame []byte) (reencoded []byte, err error) {
	h, err := ParseHeader(frame)
	if err != nil {
		return nil, err
	}
	if len(frame) != HeaderLen+int(h.N) {
		return nil, errTrailing
	}
	payload := frame[HeaderLen:]
	switch h.Type {
	case MsgLeaseRequest:
		req, err := d.LeaseRequest(payload)
		if err != nil {
			return nil, err
		}
		// The re-encode writes a vitals record exactly when they are not
		// zero, so an accepted empty or zero-field record cannot round-trip.
		return AppendLeaseRequest(nil, req), nil
	case MsgTasks:
		tasks, drained, err := d.Lease(payload, nil)
		if err != nil {
			return nil, err
		}
		return AppendLease(nil, tasks, drained), nil
	case MsgSchedule:
		me, tasks, err := d.Schedule(payload, nil)
		if err != nil {
			return nil, err
		}
		return AppendSchedule(nil, me, tasks), nil
	default: // MsgResults; ParseHeader admits no other type
		rs, next, err := d.Upload(payload, nil)
		if err != nil {
			return nil, err
		}
		// The re-encode writes a lease record exactly when it names an ME,
		// so an accepted record without one cannot round-trip.
		return AppendUpload(nil, rs, next), nil
	}
}

func fuzzSeeds(f *testing.F) {
	f.Add(AppendLeaseRequest(nil, LeaseRequest{ME: "me-PAK", Max: 32, Ack: 7}))
	f.Add(AppendLeaseRequest(nil, LeaseRequest{}))
	f.Add(AppendLeaseRequest(nil, LeaseRequest{ME: "me-PAK", Max: 32, Ack: 7, Vitals: sampleVitals}))
	f.Add(AppendLeaseRequest(nil, LeaseRequest{Vitals: Vitals{RSSI: math.Copysign(0, -1), CQI: -1}}))
	f.Add(AppendLeaseRequest(nil, LeaseRequest{ME: "me-PAK", Max: 32, Redeliver: true}))
	f.Add(AppendLeaseRequest(nil, LeaseRequest{ME: "me-PAK", Max: 32, Ack: 7, Vitals: sampleVitals, Redeliver: true}))
	f.Add([]byte("R3\x03\x01\x00\x00\x00\x04\x05\x01\x05\x01"))         // redeliver repeated
	f.Add([]byte("R3\x03\x01\x00\x00\x00\x05\x05\x01\x02\x01\x01"))     // redeliver before max
	f.Add([]byte("R3\x03\x01\x00\x00\x00\x02\x05\x02"))                 // redeliver not 1
	f.Add([]byte("R3\x03\x01\x00\x00\x00\x02\x04\x00"))                 // empty vitals record
	f.Add([]byte("R3\x03\x01\x00\x00\x00\x04\x04\x02\x02\x00"))         // zero-valued vitals field
	f.Add([]byte("R3\x03\x01\x00\x00\x00\x06\x04\x04\x04\x01\x01\x01")) // vitals tags out of order
	f.Add(AppendTasks(nil, sampleTasks()))
	f.Add(AppendTasks(nil, nil))
	f.Add(AppendLease(nil, sampleTasks(), true))
	f.Add(AppendLease(nil, nil, true))
	f.Add([]byte("R3\x03\x02\x00\x00\x00\x02\x00\x00"))     // drained flag 0
	f.Add([]byte("R3\x03\x02\x00\x00\x00\x02\x00\x02"))     // drained flag 2
	f.Add([]byte("R3\x03\x02\x00\x00\x00\x03\x00\x01\x00")) // two bytes after the records
	f.Add(AppendResults(nil, sampleResults()))
	f.Add(AppendUpload(nil, sampleResults(), LeaseRequest{ME: "me-PAK-000001", Max: 32, Ack: 7}))
	f.Add(AppendUpload(nil, sampleResults()[:1], LeaseRequest{ME: "me-PAK-000001", Max: 32, Ack: 7, Vitals: sampleVitals, Redeliver: true}))
	f.Add(AppendUpload(nil, nil, LeaseRequest{ME: "m"}))
	f.Add([]byte("R3\x03\x03\x00\x00\x00\x02\x00\x00"))              // empty lease record
	f.Add([]byte("R3\x03\x03\x00\x00\x00\x04\x00\x02\x02\x20"))      // lease record without an ME
	f.Add([]byte("R3\x03\x03\x00\x00\x00\x05\x00\x05\x01\x01m"))     // lease record past the payload
	f.Add([]byte("R3\x03\x03\x00\x00\x00\x06\x00\x03\x01\x01m\x00")) // a byte after the lease record
	f.Add(AppendSchedule(nil, "me-PAK", sampleTasks()))
	f.Add(AppendSchedule(nil, "m", nil))
	f.Add([]byte("R3\x03\x04\x00\x00\x00\x02\x00\x00"))      // empty ME
	f.Add([]byte("R3\x03\x04\x00\x00\x00\x04\x01m\x05\x00")) // count > payload
	f.Add([]byte("R3\x03\x01\x00\x00\x00\x02\x02\x00"))      // zero-valued field
	f.Add([]byte("R3\x03\x02\x00\x00\x00\x02\x05\x00"))      // count > payload
	f.Add([]byte("R3\x03\x03\x00\x00\x00\x03\x01\x81\x00"))  // non-minimal varint
	f.Add([]byte("R3\x02\x01\x00\x00\x00\x00"))              // wrong version
	f.Add([]byte{})
}

// FuzzFrameRoundTrip pins the canonical-form contract: any frame the
// strict decoder accepts re-encodes to the byte-identical frame.
func FuzzFrameRoundTrip(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder()
		re, err := decodeFrame(d, data)
		if err != nil {
			return
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("decode+re-encode is not byte-identical:\n in  %x\n out %x", data, re)
		}
	})
}

// FuzzFrameDecode hammers the decoders with arbitrary bytes: they must
// never panic and never let header-declared sizes drive allocation
// past the actual input size (the count/record-length guards).
func FuzzFrameDecode(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder()
		if len(data) >= HeaderLen {
			// Also exercise the raw payload decoders directly, without
			// requiring a well-formed header.
			payload := data[HeaderLen:]
			_, _ = d.LeaseRequest(payload)
			_ = d.vitals(payload, new(Vitals))
			_, _ = d.Tasks(payload, nil)
			_, _, _ = d.Lease(payload, nil)
			_, _ = d.Results(payload, nil)
			_, _, _ = d.Upload(payload, nil)
			_, _, _ = d.Schedule(payload, nil)
		}
		h, buf, err := ReadFrame(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		if int(h.N) != len(buf) {
			t.Fatalf("ReadFrame returned %d bytes for a header declaring %d", len(buf), h.N)
		}
	})
}

// FuzzSchedules pins the schedule body contract: a body Schedules accepts
// re-encodes, frame by frame with each frame's tasks, to the same bytes,
// and a body it refuses leaves dst and frames as they were.
func FuzzSchedules(f *testing.F) {
	kinded := sampleTasks()[:3]
	two := AppendSchedule(AppendSchedule(nil, "me-PAK", kinded), "me-DEU", kinded[:1])
	f.Add(two)
	f.Add(append(slices.Clone(two), 0))
	f.Add(AppendSchedule(append(slices.Clone(two), AppendSchedule(nil, "m", nil)...), "me-PAK", kinded))
	f.Add(append(AppendSchedule(nil, "me-PAK", kinded), AppendTasks(nil, kinded)...))
	f.Fuzz(func(t *testing.T, body []byte) {
		prior := []Task{{ID: 1, Kind: "dns"}}
		tasks, frames, err := NewDecoder().Schedules(body, prior, nil)
		if err != nil {
			if len(tasks) != 1 || tasks[0] != prior[0] || len(frames) != 0 {
				t.Fatalf("a refused body (%v) left %d tasks and %d frames", err, len(tasks), len(frames))
			}
			return
		}
		var re []byte
		rest := tasks[1:]
		for _, fr := range frames {
			re = AppendSchedule(re, fr.ME, rest[:fr.Tasks])
			rest = rest[fr.Tasks:]
		}
		if len(rest) != 0 || !bytes.Equal(re, body) {
			t.Fatalf("re-encoded %x, body %x (%d tasks left over)", re, body, len(rest))
		}
	})
}
