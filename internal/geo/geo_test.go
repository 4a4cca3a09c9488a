package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistanceKnownPairs(t *testing.T) {
	// Reference great-circle distances (km), tolerance 1.5%.
	cases := []struct {
		a, b Point
		want float64
		name string
	}{
		{Point{51.51, -0.13}, Point{40.71, -74.01}, 5570, "London-NewYork"},
		{Point{1.35, 103.82}, Point{25.20, 55.27}, 5840, "Singapore-Dubai"},
		{Point{48.86, 2.35}, Point{52.37, 4.90}, 430, "Paris-Amsterdam"},
		{Point{33.68, 73.05}, Point{1.35, 103.82}, 4815, "Islamabad-Singapore"},
		{Point{37.57, 126.98}, Point{37.57, 126.98}, 0, "Seoul-Seoul"},
	}
	for _, c := range cases {
		got := DistanceKm(c.a, c.b)
		if c.want == 0 {
			if got != 0 {
				t.Errorf("%s: got %f, want 0", c.name, got)
			}
			continue
		}
		if math.Abs(got-c.want)/c.want > 0.015 {
			t.Errorf("%s: got %.0f km, want ~%.0f km", c.name, got, c.want)
		}
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{clampLat(lat1), clampLon(lon1)}
		b := Point{clampLat(lat2), clampLon(lon2)}
		d1, d2 := DistanceKm(a, b), DistanceKm(b, a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2, lat3, lon3 float64) bool {
		a := Point{clampLat(lat1), clampLon(lon1)}
		b := Point{clampLat(lat2), clampLon(lon2)}
		c := Point{clampLat(lat3), clampLon(lon3)}
		return DistanceKm(a, c) <= DistanceKm(a, b)+DistanceKm(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceBounds(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{clampLat(lat1), clampLon(lon1)}
		b := Point{clampLat(lat2), clampLon(lon2)}
		d := DistanceKm(a, b)
		// Max great-circle distance is half the circumference.
		return d >= 0 && d <= math.Pi*EarthRadiusKm+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func clampLat(v float64) float64 { return math.Mod(math.Abs(v), 180) - 90 }
func clampLon(v float64) float64 { return math.Mod(math.Abs(v), 360) - 180 }

func TestPropagationDelay(t *testing.T) {
	// London-New York one way: ~5570 km * 1.9 / 200 ≈ 53 ms.
	d := PropagationDelayMs(Point{51.51, -0.13}, Point{40.71, -74.01})
	if d < 40 || d > 70 {
		t.Errorf("London-NY propagation %f ms, want 40-70 ms", d)
	}
	if PropagationDelayMs(Point{1, 1}, Point{1, 1}) != 0 {
		t.Error("zero-distance delay must be 0")
	}
}

func TestMidpoint(t *testing.T) {
	a := Point{0, 0}
	b := Point{0, 90}
	m := Midpoint(a, b)
	if math.Abs(m.Lat) > 1e-9 || math.Abs(m.Lon-45) > 1e-9 {
		t.Errorf("midpoint of equatorial quarter = %v, want (0,45)", m)
	}
	// Midpoint must be roughly equidistant from both endpoints.
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		p := Point{clampLat(lat1), clampLon(lon1)}
		q := Point{clampLat(lat2), clampLon(lon2)}
		m := Midpoint(p, q)
		if !m.Valid() {
			return false
		}
		dp, dq := DistanceKm(p, m), DistanceKm(q, m)
		return math.Abs(dp-dq) < 1.0 // within 1 km
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLookupCountry(t *testing.T) {
	c, err := LookupCountry("PAK")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "Pakistan" || c.Continent != Asia {
		t.Errorf("unexpected Pakistan record: %+v", c)
	}
	if _, err := LookupCountry("XXX"); err == nil {
		t.Error("expected error for unknown country")
	}
}

func TestMustCountryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCountry should panic on unknown code")
		}
	}()
	MustCountry("ZZZ")
}

func TestPaperCountriesPresent(t *testing.T) {
	// All 24 visited countries from the two campaigns must exist.
	visited := []string{
		"ITA", "CHN", "MDA", "FRA", "AZE", "MDV", "MYS", "KEN", "USA",
		"FIN", "PAK", "EGY", "TUR", "UZB", // web campaign
		"GEO", "DEU", "KOR", "QAT", "SAU", "ESP", "THA", "ARE", "GBR",
		"JPN", // device campaign + Table 2
	}
	if len(visited) != 24 {
		t.Fatalf("test list has %d countries, want 24", len(visited))
	}
	for _, iso := range visited {
		if _, err := LookupCountry(iso); err != nil {
			t.Errorf("missing visited country %s", iso)
		}
	}
	// b-MNO home countries.
	for _, iso := range []string{"SGP", "POL", "USA", "ITA", "FRA"} {
		if _, err := LookupCountry(iso); err != nil {
			t.Errorf("missing b-MNO country %s", iso)
		}
	}
}

func TestPaperCitiesPresent(t *testing.T) {
	for _, name := range []string{
		"Amsterdam", "Ashburn", "Lille", "Wattrelos", "London",
		"Dallas", "Fort Worth", "Tulsa", "Singapore", "Seoul",
		"Goyang", "Cheonan", "Dublin",
	} {
		if _, err := LookupCity(name); err != nil {
			t.Errorf("missing city %s", name)
		}
	}
}

func TestCitiesMatchCountries(t *testing.T) {
	for _, c := range cities {
		if _, err := LookupCountry(c.Country); err != nil {
			t.Errorf("city %s references unknown country %s", c.Name, c.Country)
		}
		if !c.Loc.Valid() || c.Loc.IsZero() {
			t.Errorf("city %s has invalid location %v", c.Name, c.Loc)
		}
	}
}

func TestCountriesSortedAndDistinct(t *testing.T) {
	all := Countries()
	if len(all) < 50 {
		t.Fatalf("world database too small: %d countries", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ISO3 >= all[i].ISO3 {
			t.Fatalf("Countries() not sorted at %d: %s >= %s", i, all[i-1].ISO3, all[i].ISO3)
		}
	}
}

func TestCountriesIn(t *testing.T) {
	eu := CountriesIn(Europe)
	if len(eu) < 10 {
		t.Errorf("expected at least 10 European countries, got %d", len(eu))
	}
	for _, c := range eu {
		if c.Continent != Europe {
			t.Errorf("%s leaked into Europe list", c.ISO3)
		}
	}
	// Central American countries must exist for Figure 18's hot spot.
	na := CountriesIn(NorthAmerica)
	var central int
	for _, c := range na {
		switch c.ISO3 {
		case "CRI", "PAN", "GTM", "HND", "NIC", "SLV", "BLZ":
			central++
		}
	}
	if central < 5 {
		t.Errorf("need ≥5 Central American countries for Fig 18, got %d", central)
	}
}

func TestPointStringAndValid(t *testing.T) {
	p := Point{51.5074, -0.1278}
	if p.String() != "(51.5074, -0.1278)" {
		t.Errorf("String() = %s", p.String())
	}
	if !p.Valid() {
		t.Error("valid point reported invalid")
	}
	if (Point{91, 0}).Valid() || (Point{0, 181}).Valid() {
		t.Error("out-of-range point reported valid")
	}
}

func TestNearestMemoTiesAndRepeats(t *testing.T) {
	sites := []Point{{Lat: 10, Lon: 0}, {Lat: -10, Lon: 0}, {Lat: 10, Lon: 0}, {Lat: 1, Lon: 1}}
	loc := func(i int) Point { return sites[i] }
	var m NearestMemo
	for round := 0; round < 2; round++ { // computed, then remembered
		if got := m.Index(Point{}, 3, loc); got != 0 {
			t.Errorf("round %d: equidistant sites: index %d, want the first", round, got)
		}
		if got := m.Index(Point{Lat: 9, Lon: 0}, 3, loc); got != 0 {
			t.Errorf("round %d: duplicate site: index %d, want the first copy", round, got)
		}
		if got := m.Index(Point{Lat: -9, Lon: 0}, 3, loc); got != 1 {
			t.Errorf("round %d: index %d, want 1", round, got)
		}
	}
	var one NearestMemo
	if got := one.Index(Point{Lat: 5, Lon: 5}, 1, loc); got != 0 {
		t.Errorf("single site: index %d", got)
	}
}
