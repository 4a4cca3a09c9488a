// Package video implements an adaptive-bitrate (ABR) video session model
// for the YouTube experiment: a bitrate ladder up to 4K, a buffer-based
// rate-adaptation loop, and the stats-for-nerds style output the
// campaign's browser extension scrapes (playback resolution shares,
// buffer occupancy, rebuffer events).
//
// Throughput enters as a sampling function so the measurement layer can
// wire in the simulated path bandwidth — including the YouTube-specific
// traffic-differentiation caps the paper conjectures for the HR b-MNOs.
package video

import (
	"fmt"

	"roamsim/internal/rng"
)

// Rung is one step of the encoding ladder.
type Rung struct {
	Name        string  // "720p"
	Height      int     // pixels
	BitrateKbps float64 // average encoded bitrate
}

// YouTubeLadder is a typical AVC ladder for a 4K source (the campaign
// plays a video whose maximum resolution is 2160p).
var YouTubeLadder = [...]Rung{
	{"144p", 144, 100},
	{"240p", 240, 250},
	{"360p", 360, 500},
	{"480p", 480, 1200},
	{"720p", 720, 2500},
	{"1080p", 1080, 5000},
	{"1440p", 1440, 10000},
	{"2160p", 2160, 20000},
}

// SegmentSeconds is the media segment duration.
const SegmentSeconds = 2.0

// Config parameterizes one playback session.
type Config struct {
	// DurationSec is the playback length to simulate.
	DurationSec float64
	// MaxHeight caps the selectable rung (device/player limit).
	MaxHeight int
	// SafetyFactor is the fraction of estimated throughput the ABR is
	// willing to spend (default 0.75).
	SafetyFactor float64
	// TargetBufferSec is the buffer level the player tries to hold
	// (default 12 s).
	TargetBufferSec float64
}

func (c Config) withDefaults() Config {
	if c.DurationSec == 0 {
		c.DurationSec = 120
	}
	if c.MaxHeight == 0 {
		c.MaxHeight = 2160
	}
	if c.SafetyFactor == 0 {
		c.SafetyFactor = 0.75
	}
	if c.TargetBufferSec == 0 {
		c.TargetBufferSec = 12
	}
	return c
}

// Stats is the stats-for-nerds summary of a session.
type Stats struct {
	// SecondsAt maps rung name to playback seconds spent at it.
	SecondsAt map[string]float64
	// DominantResolution is the rung with the most playback time.
	DominantResolution string
	// Rebuffers counts stall events after startup.
	Rebuffers int
	// StalledSec is total stall time.
	StalledSec float64
	// MeanBufferSec is the time-averaged buffer occupancy.
	MeanBufferSec float64
	// StartupDelaySec is time to first frame.
	StartupDelaySec float64
}

// Share returns the fraction of playback time at the given rung. The
// total is summed in ladder order, not map order: float addition is not
// associative, so a map-order sum could differ from call to call. Keys
// that name no YouTubeLadder rung (Play writes none) are not in the total.
func (s Stats) Share(rungName string) float64 {
	var total float64
	for _, r := range YouTubeLadder {
		total += s.SecondsAt[r.Name]
	}
	if total == 0 {
		return 0
	}
	return s.SecondsAt[rungName] / total
}

// ThroughputFunc samples the currently available download rate in Mbps.
type ThroughputFunc func() float64

// Play runs the ABR loop: segments are fetched one at a time, the rate
// estimate is an EWMA of observed per-segment throughput, and the rung
// choice is the highest whose bitrate fits SafetyFactor × estimate (with
// a little buffer-based boldness when the buffer is full).
func Play(cfg Config, throughput ThroughputFunc, src *rng.Source) (Stats, error) {
	cfg = cfg.withDefaults()
	if throughput == nil {
		return Stats{}, fmt.Errorf("video: nil throughput function")
	}
	// The ladder is sorted by height, so the usable rungs are a prefix.
	n := 0
	for n < len(YouTubeLadder) && YouTubeLadder[n].Height <= cfg.MaxHeight {
		n++
	}
	ladder := YouTubeLadder[:n]
	if len(ladder) == 0 {
		return Stats{}, fmt.Errorf("video: MaxHeight %d below lowest rung", cfg.MaxHeight)
	}

	// Playback seconds per ladder rung, and which rungs played at all:
	// SecondsAt keys every rung a segment was fetched at, zero seconds
	// included, and is filled once at the end.
	var secs [len(YouTubeLadder)]float64
	var fetched [len(YouTubeLadder)]bool
	var st Stats
	var (
		played    float64        // seconds of media played out
		buffer    float64        // seconds of media buffered
		estimate  = throughput() // initial probe
		bufferSum float64
		bufferN   int
	)

	// Startup: fetch two segments at a conservative rung before playing.
	startRung := pickRung(ladder, estimate*cfg.SafetyFactor*0.5)
	for i := 0; i < 2; i++ {
		dl, tput := fetchSegment(ladder[startRung], throughput, src)
		st.StartupDelaySec += dl
		estimate = 0.7*estimate + 0.3*tput
		buffer += SegmentSeconds
	}

	for played < cfg.DurationSec {
		// Choose the rung for the next segment.
		budget := estimate * cfg.SafetyFactor
		if buffer > cfg.TargetBufferSec {
			budget = estimate * 0.95 // buffer-rich: be bold
		}
		r := pickRung(ladder, budget)
		dl, tput := fetchSegment(ladder[r], throughput, src)
		estimate = 0.7*estimate + 0.3*tput
		fetched[r] = true

		// While the segment downloads, playback drains the buffer.
		if dl >= buffer {
			// Stall: buffer empties mid-download.
			playedNow := buffer
			secs[r] += playedNow
			played += playedNow
			st.Rebuffers++
			st.StalledSec += dl - buffer
			buffer = SegmentSeconds // the fetched segment
		} else {
			secs[r] += dl
			played += dl
			buffer += SegmentSeconds - dl
		}
		// Hold the buffer at a cap: real players pause fetching; model by
		// playing out the excess at the current rung.
		if buffer > 4*cfg.TargetBufferSec {
			excess := buffer - 4*cfg.TargetBufferSec
			secs[r] += excess
			played += excess
			buffer -= excess
		}
		bufferSum += buffer
		bufferN++
	}
	if bufferN > 0 {
		st.MeanBufferSec = bufferSum / float64(bufferN)
	}
	st.SecondsAt = make(map[string]float64, len(ladder))
	// The dominant rung has the most seconds, the higher of a tie: the
	// ladder rises, so the last rung to reach the maximum wins.
	bestSec := 0.0
	for r, rung := range ladder {
		if !fetched[r] {
			continue
		}
		st.SecondsAt[rung.Name] = secs[r]
		if secs[r] >= bestSec {
			st.DominantResolution, bestSec = rung.Name, secs[r]
		}
	}
	return st, nil
}

// fetchSegment downloads one segment at the given rung, returning the
// download duration in seconds and the observed throughput in Mbps.
func fetchSegment(r Rung, throughput ThroughputFunc, src *rng.Source) (sec, tputMbps float64) {
	tput := throughput()
	if tput <= 0.01 {
		tput = 0.01
	}
	tput = src.Jitter(tput, 0.15)
	bits := r.BitrateKbps * 1000 * SegmentSeconds
	return bits / (tput * 1e6), tput
}

// pickRung returns the index of the highest rung whose bitrate fits the
// budget (in Mbps), falling back to the lowest rung.
func pickRung(ladder []Rung, budgetMbps float64) int {
	pick := 0
	for i, r := range ladder {
		if r.BitrateKbps/1000 <= budgetMbps {
			pick = i
		}
	}
	return pick
}
