// Package geo provides geographic primitives for the roaming simulator:
// latitude/longitude points, great-circle distances, and a small database
// of countries and cities relevant to the Airalo measurement campaigns.
//
// Latency in the simulator is ultimately derived from physical distance,
// so every network element (SGW, PGW, CDN POP, DNS resolver, ...) carries
// a Point. Distances use the haversine formula on a spherical Earth,
// which is accurate to ~0.5% — far below the jitter of any real RTT.
package geo

import (
	"fmt"
	"math"
	"sync"
)

// EarthRadiusKm is the mean Earth radius used by the haversine formula.
const EarthRadiusKm = 6371.0

// Point is a geographic coordinate in decimal degrees.
// The zero value is the Gulf of Guinea (0,0), which is intentionally
// detectable: real elements should always carry explicit coordinates.
type Point struct {
	Lat float64 // degrees, positive north
	Lon float64 // degrees, positive east
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.4f, %.4f)", p.Lat, p.Lon)
}

// IsZero reports whether the point is the (suspicious) zero coordinate.
func (p Point) IsZero() bool { return p.Lat == 0 && p.Lon == 0 }

// Valid reports whether the point lies in the legal coordinate range.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180
}

func radians(deg float64) float64 { return deg * math.Pi / 180 }

// DistanceKm returns the great-circle distance between a and b in km.
func DistanceKm(a, b Point) float64 {
	if a == b {
		return 0
	}
	lat1, lon1 := radians(a.Lat), radians(a.Lon)
	lat2, lon2 := radians(b.Lat), radians(b.Lon)
	dLat := lat2 - lat1
	dLon := lon2 - lon1
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	// Clamp for numeric safety before Asin.
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// NearestMemo remembers, per query point, which of a fixed list of sites
// is nearest: anycast asks that of the same few vantage points on every
// task, and each answer is a haversine per site. The zero value is ready
// and safe for concurrent use; the list must not change once queried.
type NearestMemo struct {
	mu  sync.RWMutex
	idx map[Point]int // guarded by mu
}

// Index returns the i in [0, n) whose loc(i) is nearest p, the lowest
// such i on a tie. n must be positive.
func (m *NearestMemo) Index(p Point, n int, loc func(i int) Point) int {
	m.mu.RLock()
	best, ok := m.idx[p]
	m.mu.RUnlock()
	if ok {
		return best
	}
	bestD := DistanceKm(p, loc(0))
	for i := 1; i < n; i++ {
		if d := DistanceKm(p, loc(i)); d < bestD {
			best, bestD = i, d
		}
	}
	m.mu.Lock()
	if m.idx == nil {
		m.idx = make(map[Point]int)
	}
	m.idx[p] = best
	m.mu.Unlock()
	return best
}

// FiberKmPerMs is the approximate one-way propagation speed of light in
// optical fiber (≈ 2/3 c ≈ 200 km per millisecond).
const FiberKmPerMs = 200.0

// FiberRouteFactor inflates great-circle distance to account for real
// fiber paths not following geodesics (typical observed factor 1.5–2.5;
// we use a conservative middle value).
const FiberRouteFactor = 1.9

// PropagationDelayMs returns the modeled one-way propagation delay in
// milliseconds between two points over terrestrial/submarine fiber.
func PropagationDelayMs(a, b Point) float64 {
	return DistanceKm(a, b) * FiberRouteFactor / FiberKmPerMs
}

// Midpoint returns the midpoint of the great-circle segment between a and b.
// It is used to place intermediate routers on long-haul paths.
func Midpoint(a, b Point) Point {
	lat1, lon1 := radians(a.Lat), radians(a.Lon)
	lat2, lon2 := radians(b.Lat), radians(b.Lon)
	bx := math.Cos(lat2) * math.Cos(lon2-lon1)
	by := math.Cos(lat2) * math.Sin(lon2-lon1)
	lat3 := math.Atan2(math.Sin(lat1)+math.Sin(lat2),
		math.Sqrt((math.Cos(lat1)+bx)*(math.Cos(lat1)+bx)+by*by))
	lon3 := lon1 + math.Atan2(by, math.Cos(lat1)+bx)
	// Normalize longitude to [-180, 180).
	lonDeg := math.Mod(lon3*180/math.Pi+540, 360) - 180
	return Point{Lat: lat3 * 180 / math.Pi, Lon: lonDeg}
}

// Continent identifies a continent for economic aggregation (Figure 16).
type Continent string

// Continents used by the marketplace analysis.
const (
	Africa       Continent = "Africa"
	Asia         Continent = "Asia"
	Europe       Continent = "Europe"
	NorthAmerica Continent = "North America"
	SouthAmerica Continent = "South America"
	Oceania      Continent = "Oceania"
)

// Country describes one country in the simulator's world database.
type Country struct {
	ISO3      string    // ISO 3166-1 alpha-3, e.g. "PAK"
	Name      string    // human-readable name
	Continent Continent // for continent-level aggregation
	Capital   string    // principal measurement city
	Center    Point     // coordinates of the principal city
}

// City is a named location used for PGWs, POPs and volunteers.
type City struct {
	Name    string
	Country string // ISO3
	Loc     Point
}
