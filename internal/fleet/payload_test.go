package fleet

import (
	"bytes"
	"testing"

	"roamsim/internal/amigo"
)

// TestCampaignPayloadsRoundTrip checks every payload a RunInProcess
// device campaign uploads, at seeds 42 and 7, from the outside: the codec
// decodes it, and encoding the decoded value writes the uploaded bytes
// back, so decode(encode(v)) == v for every value the campaign measured.
// amigo's TestCampaignPayloadsMatchMarshal compares the same schedule's
// payloads with the typed values they encode.
func TestCampaignPayloadsRoundTrip(t *testing.T) {
	w := testWorld(t)
	var trace amigo.MTRTrace
	for _, seed := range []int64{42, 7} {
		camp, err := RunInProcess(w, DeviceCampaignPlan(), seed, "payloads", true)
		if err != nil {
			t.Fatal(err)
		}
		checked := map[string]int{}
		for _, res := range camp.Results {
			if !res.OK {
				continue
			}
			var again []byte
			switch res.Kind {
			case "speedtest":
				again = reencode(&amigo.SpeedtestPayload{}, res.Payload)
			case "mtr":
				again = reencode(&trace, res.Payload)
			case "cdn":
				again = reencode(&amigo.CDNPayload{}, res.Payload)
			case "dns":
				again = reencode(&amigo.DNSPayload{}, res.Payload)
			case "video":
				again = reencode(&amigo.VideoPayload{}, res.Payload)
			default:
				t.Fatalf("unexpected kind %q", res.Kind)
			}
			if !bytes.Equal(again, res.Payload) {
				t.Fatalf("seed %d, %s task %d of %s: uploaded %x, decoded and re-encoded %x",
					seed, res.Kind, res.TaskID, res.ME, res.Payload, again)
			}
			checked[res.Kind]++
		}
		for _, kind := range []string{"speedtest", "mtr", "cdn", "video"} {
			if checked[kind] == 0 {
				t.Errorf("seed %d: no %s payload checked", seed, kind)
			}
		}
	}
}

// reencode decodes data into p and returns p's encoding, or nil — which
// no uploaded payload equals — if decoding or encoding failed.
func reencode(p interface {
	UnmarshalBinary([]byte) error
	AppendBinary([]byte) ([]byte, error)
}, data []byte) []byte {
	if p.UnmarshalBinary(data) != nil {
		return nil
	}
	b, err := p.AppendBinary(nil)
	if err != nil {
		return nil
	}
	return b
}
