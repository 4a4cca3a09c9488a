package geo

import (
	"fmt"
	"sort"
)

// countries is the built-in world database. It covers every country that
// appears in the paper's campaigns (visited countries, b-MNO home
// countries, PGW countries) plus enough additional countries per continent
// for the marketplace analysis to produce meaningful continent-level
// statistics (Figures 16–18).
var countries = []Country{
	// Visited countries, web-based campaign (Table 3).
	{"ITA", "Italy", Europe, "Rome", Point{41.90, 12.50}},
	{"CHN", "China", Asia, "Beijing", Point{39.90, 116.40}},
	{"MDA", "Moldova", Europe, "Chisinau", Point{47.01, 28.86}},
	{"FRA", "France", Europe, "Paris", Point{48.86, 2.35}},
	{"AZE", "Azerbaijan", Asia, "Baku", Point{40.41, 49.87}},
	{"MDV", "Maldives", Asia, "Male", Point{4.18, 73.51}},
	{"MYS", "Malaysia", Asia, "Kuala Lumpur", Point{3.14, 101.69}},
	{"KEN", "Kenya", Africa, "Nairobi", Point{-1.29, 36.82}},
	{"USA", "United States", NorthAmerica, "New York", Point{40.71, -74.01}},
	{"FIN", "Finland", Europe, "Helsinki", Point{60.17, 24.94}},
	{"EGY", "Egypt", Africa, "Cairo", Point{30.04, 31.24}},
	{"TUR", "Turkey", Asia, "Istanbul", Point{41.01, 28.98}},
	{"UZB", "Uzbekistan", Asia, "Tashkent", Point{41.30, 69.24}},
	// Visited countries, device-based campaign (Table 4).
	{"GEO", "Georgia", Asia, "Tbilisi", Point{41.72, 44.79}},
	{"DEU", "Germany", Europe, "Berlin", Point{52.52, 13.40}},
	{"KOR", "South Korea", Asia, "Seoul", Point{37.57, 126.98}},
	{"PAK", "Pakistan", Asia, "Islamabad", Point{33.68, 73.05}},
	{"QAT", "Qatar", Asia, "Doha", Point{25.29, 51.53}},
	{"SAU", "Saudi Arabia", Asia, "Riyadh", Point{24.71, 46.68}},
	{"ESP", "Spain", Europe, "Madrid", Point{40.42, -3.70}},
	{"THA", "Thailand", Asia, "Bangkok", Point{13.76, 100.50}},
	{"ARE", "United Arab Emirates", Asia, "Dubai", Point{25.20, 55.27}},
	{"GBR", "United Kingdom", Europe, "London", Point{51.51, -0.13}},
	{"JPN", "Japan", Asia, "Tokyo", Point{35.68, 139.69}},
	// b-MNO home / PGW countries not already above.
	{"SGP", "Singapore", Asia, "Singapore", Point{1.35, 103.82}},
	{"POL", "Poland", Europe, "Warsaw", Point{52.23, 21.01}},
	{"NLD", "Netherlands", Europe, "Amsterdam", Point{52.37, 4.90}},
	{"IRL", "Ireland", Europe, "Dublin", Point{53.35, -6.26}},
	// Additional countries for the marketplace (continent coverage).
	{"PRT", "Portugal", Europe, "Lisbon", Point{38.72, -9.14}},
	{"GRC", "Greece", Europe, "Athens", Point{37.98, 23.73}},
	{"CHE", "Switzerland", Europe, "Zurich", Point{47.38, 8.54}},
	{"AUT", "Austria", Europe, "Vienna", Point{48.21, 16.37}},
	{"SWE", "Sweden", Europe, "Stockholm", Point{59.33, 18.07}},
	{"NOR", "Norway", Europe, "Oslo", Point{59.91, 10.75}},
	{"CZE", "Czechia", Europe, "Prague", Point{50.08, 14.44}},
	{"ROU", "Romania", Europe, "Bucharest", Point{44.43, 26.10}},
	{"IND", "India", Asia, "Delhi", Point{28.61, 77.21}},
	{"IDN", "Indonesia", Asia, "Jakarta", Point{-6.21, 106.85}},
	{"VNM", "Vietnam", Asia, "Hanoi", Point{21.03, 105.85}},
	{"PHL", "Philippines", Asia, "Manila", Point{14.60, 120.98}},
	{"KAZ", "Kazakhstan", Asia, "Almaty", Point{43.24, 76.89}},
	{"ISR", "Israel", Asia, "Tel Aviv", Point{32.09, 34.78}},
	{"JOR", "Jordan", Asia, "Amman", Point{31.95, 35.93}},
	{"LKA", "Sri Lanka", Asia, "Colombo", Point{6.93, 79.85}},
	{"MAR", "Morocco", Africa, "Rabat", Point{34.02, -6.84}},
	{"ZAF", "South Africa", Africa, "Johannesburg", Point{-26.20, 28.05}},
	{"NGA", "Nigeria", Africa, "Lagos", Point{6.52, 3.38}},
	{"TZA", "Tanzania", Africa, "Dar es Salaam", Point{-6.79, 39.21}},
	{"GHA", "Ghana", Africa, "Accra", Point{5.60, -0.19}},
	{"TUN", "Tunisia", Africa, "Tunis", Point{36.81, 10.18}},
	{"CAN", "Canada", NorthAmerica, "Toronto", Point{43.65, -79.38}},
	{"MEX", "Mexico", NorthAmerica, "Mexico City", Point{19.43, -99.13}},
	{"CRI", "Costa Rica", NorthAmerica, "San Jose", Point{9.93, -84.08}},
	{"PAN", "Panama", NorthAmerica, "Panama City", Point{8.98, -79.52}},
	{"GTM", "Guatemala", NorthAmerica, "Guatemala City", Point{14.63, -90.51}},
	{"HND", "Honduras", NorthAmerica, "Tegucigalpa", Point{14.07, -87.19}},
	{"NIC", "Nicaragua", NorthAmerica, "Managua", Point{12.11, -86.24}},
	{"SLV", "El Salvador", NorthAmerica, "San Salvador", Point{13.69, -89.22}},
	{"BLZ", "Belize", NorthAmerica, "Belmopan", Point{17.25, -88.77}},
	{"BRA", "Brazil", SouthAmerica, "Sao Paulo", Point{-23.55, -46.63}},
	{"ARG", "Argentina", SouthAmerica, "Buenos Aires", Point{-34.60, -58.38}},
	{"CHL", "Chile", SouthAmerica, "Santiago", Point{-33.45, -70.67}},
	{"COL", "Colombia", SouthAmerica, "Bogota", Point{4.71, -74.07}},
	{"PER", "Peru", SouthAmerica, "Lima", Point{-12.05, -77.04}},
	{"AUS", "Australia", Oceania, "Sydney", Point{-33.87, 151.21}},
	{"NZL", "New Zealand", Oceania, "Auckland", Point{-36.85, 174.76}},
	{"FJI", "Fiji", Oceania, "Suva", Point{-18.14, 178.44}},
	// Extended marketplace coverage (toward the paper's 244 regions).
	{"BEL", "Belgium", Europe, "Brussels", Point{50.85, 4.35}},
	{"DNK", "Denmark", Europe, "Copenhagen", Point{55.68, 12.57}},
	{"HUN", "Hungary", Europe, "Budapest", Point{47.50, 19.04}},
	{"BGR", "Bulgaria", Europe, "Sofia", Point{42.70, 23.32}},
	{"HRV", "Croatia", Europe, "Zagreb", Point{45.81, 15.98}},
	{"SRB", "Serbia", Europe, "Belgrade", Point{44.79, 20.45}},
	{"UKR", "Ukraine", Europe, "Kyiv", Point{50.45, 30.52}},
	{"ISL", "Iceland", Europe, "Reykjavik", Point{64.15, -21.94}},
	{"EST", "Estonia", Europe, "Tallinn", Point{59.44, 24.75}},
	{"LVA", "Latvia", Europe, "Riga", Point{56.95, 24.11}},
	{"LTU", "Lithuania", Europe, "Vilnius", Point{54.69, 25.28}},
	{"SVK", "Slovakia", Europe, "Bratislava", Point{48.15, 17.11}},
	{"SVN", "Slovenia", Europe, "Ljubljana", Point{46.06, 14.51}},
	{"IRN", "Iran", Asia, "Tehran", Point{35.69, 51.39}},
	{"IRQ", "Iraq", Asia, "Baghdad", Point{33.31, 44.37}},
	{"KWT", "Kuwait", Asia, "Kuwait City", Point{29.38, 47.99}},
	{"OMN", "Oman", Asia, "Muscat", Point{23.59, 58.41}},
	{"BHR", "Bahrain", Asia, "Manama", Point{26.23, 50.59}},
	{"NPL", "Nepal", Asia, "Kathmandu", Point{27.72, 85.32}},
	{"BGD", "Bangladesh", Asia, "Dhaka", Point{23.81, 90.41}},
	{"KHM", "Cambodia", Asia, "Phnom Penh", Point{11.56, 104.92}},
	{"LAO", "Laos", Asia, "Vientiane", Point{17.98, 102.63}},
	{"MMR", "Myanmar", Asia, "Yangon", Point{16.87, 96.20}},
	{"MNG", "Mongolia", Asia, "Ulaanbaatar", Point{47.89, 106.91}},
	{"TWN", "Taiwan", Asia, "Taipei", Point{25.03, 121.57}},
	{"HKG", "Hong Kong SAR", Asia, "Hong Kong City", Point{22.32, 114.17}},
	{"DZA", "Algeria", Africa, "Algiers", Point{36.74, 3.09}},
	{"ETH", "Ethiopia", Africa, "Addis Ababa", Point{9.03, 38.74}},
	{"UGA", "Uganda", Africa, "Kampala", Point{0.35, 32.58}},
	{"SEN", "Senegal", Africa, "Dakar", Point{14.69, -17.45}},
	{"CIV", "Ivory Coast", Africa, "Abidjan", Point{5.34, -4.03}},
	{"CMR", "Cameroon", Africa, "Yaounde", Point{3.85, 11.50}},
	{"MOZ", "Mozambique", Africa, "Maputo", Point{-25.97, 32.58}},
	{"ZWE", "Zimbabwe", Africa, "Harare", Point{-17.83, 31.05}},
	{"DOM", "Dominican Republic", NorthAmerica, "Santo Domingo", Point{18.49, -69.93}},
	{"JAM", "Jamaica", NorthAmerica, "Kingston", Point{17.97, -76.79}},
	{"CUB", "Cuba", NorthAmerica, "Havana", Point{23.11, -82.37}},
	{"ECU", "Ecuador", SouthAmerica, "Quito", Point{-0.18, -78.47}},
	{"BOL", "Bolivia", SouthAmerica, "La Paz", Point{-16.49, -68.12}},
	{"URY", "Uruguay", SouthAmerica, "Montevideo", Point{-34.90, -56.16}},
	{"PRY", "Paraguay", SouthAmerica, "Asuncion", Point{-25.26, -57.58}},
	{"VEN", "Venezuela", SouthAmerica, "Caracas", Point{10.48, -66.90}},
	{"PNG", "Papua New Guinea", Oceania, "Port Moresby", Point{-9.44, 147.18}},
	{"WSM", "Samoa", Oceania, "Apia", Point{-13.83, -171.77}},
}

// cities is the built-in city database for locations that are not a
// country's principal city: PGW sites, CDN POPs, DNS resolver sites, and
// the secondary Korean PGW cities from Section 4.3.2.
var cities = []City{
	{"Amsterdam", "NLD", Point{52.37, 4.90}},
	{"Ashburn", "USA", Point{39.04, -77.49}},
	{"Lille", "FRA", Point{50.63, 3.06}},
	{"Wattrelos", "FRA", Point{50.70, 3.22}},
	{"London", "GBR", Point{51.51, -0.13}},
	{"Dallas", "USA", Point{32.78, -96.80}},
	{"Fort Worth", "USA", Point{32.76, -97.33}},
	{"Tulsa", "USA", Point{36.15, -95.99}},
	{"Singapore", "SGP", Point{1.35, 103.82}},
	{"Seoul", "KOR", Point{37.57, 126.98}},
	{"Goyang", "KOR", Point{37.66, 126.83}},
	{"Cheonan", "KOR", Point{36.82, 127.16}},
	{"Dublin", "IRL", Point{53.35, -6.26}},
	{"Warsaw", "POL", Point{52.23, 21.01}},
	{"Paris", "FRA", Point{48.86, 2.35}},
	{"Frankfurt", "DEU", Point{50.11, 8.68}},
	{"Marseille", "FRA", Point{43.30, 5.37}},
	{"Milan", "ITA", Point{45.46, 9.19}},
	{"Madrid", "ESP", Point{40.42, -3.70}},
	{"Stockholm", "SWE", Point{59.33, 18.07}},
	{"Vienna", "AUT", Point{48.21, 16.37}},
	{"New Jersey", "USA", Point{40.06, -74.41}},
	{"Abu Dhabi", "ARE", Point{24.45, 54.38}},
	{"Bangkok", "THA", Point{13.76, 100.50}},
	{"Tokyo", "JPN", Point{35.68, 139.69}},
	{"Hong Kong", "CHN", Point{22.32, 114.17}},
	{"Mumbai", "IND", Point{19.08, 72.88}},
	{"Fujairah", "ARE", Point{25.13, 56.33}},
	{"Karachi", "PAK", Point{24.86, 67.01}},
	{"Doha", "QAT", Point{25.29, 51.53}},
	{"Jeddah", "SAU", Point{21.49, 39.19}},
	{"Riyadh", "SAU", Point{24.71, 46.68}},
	{"Tbilisi", "GEO", Point{41.72, 44.79}},
	{"Istanbul", "TUR", Point{41.01, 28.98}},
	{"Cairo", "EGY", Point{30.04, 31.24}},
	{"Nairobi", "KEN", Point{-1.29, 36.82}},
	{"Sydney", "AUS", Point{-33.87, 151.21}},
	{"Sao Paulo", "BRA", Point{-23.55, -46.63}},
	{"Miami", "USA", Point{25.76, -80.19}},
	{"Los Angeles", "USA", Point{34.05, -118.24}},
	{"Kuala Lumpur", "MYS", Point{3.14, 101.69}},
	{"Tashkent", "UZB", Point{41.30, 69.24}},
	{"Chisinau", "MDA", Point{47.01, 28.86}},
	{"Baku", "AZE", Point{40.41, 49.87}},
	{"Helsinki", "FIN", Point{60.17, 24.94}},
	{"Male", "MDV", Point{4.18, 73.51}},
	{"Rome", "ITA", Point{41.90, 12.50}},
	{"Berlin", "DEU", Point{52.52, 13.40}},
	{"Islamabad", "PAK", Point{33.68, 73.05}},
	{"Dubai", "ARE", Point{25.20, 55.27}},
	{"Beijing", "CHN", Point{39.90, 116.40}},
	{"New York", "USA", Point{40.71, -74.01}},
}

var (
	countryByISO3 = map[string]Country{}
	cityByName    = map[string]City{}
)

func init() {
	for _, c := range countries {
		if _, dup := countryByISO3[c.ISO3]; dup {
			panic("geo: duplicate country " + c.ISO3)
		}
		countryByISO3[c.ISO3] = c
	}
	for _, c := range cities {
		if _, dup := cityByName[c.Name]; dup {
			panic("geo: duplicate city " + c.Name)
		}
		cityByName[c.Name] = c
	}
}

// LookupCountry returns the country with the given ISO3 code.
func LookupCountry(iso3 string) (Country, error) {
	c, ok := countryByISO3[iso3]
	if !ok {
		return Country{}, fmt.Errorf("geo: unknown country %q", iso3)
	}
	return c, nil
}

// MustCountry is LookupCountry but panics on unknown codes. It is intended
// for static world construction where a missing code is a programming bug.
func MustCountry(iso3 string) Country {
	c, err := LookupCountry(iso3)
	if err != nil {
		panic(err)
	}
	return c
}

// LookupCity returns the city with the given name.
func LookupCity(name string) (City, error) {
	c, ok := cityByName[name]
	if !ok {
		return City{}, fmt.Errorf("geo: unknown city %q", name)
	}
	return c, nil
}

// MustCity is LookupCity but panics on unknown names.
func MustCity(name string) City {
	c, err := LookupCity(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Countries returns all known countries sorted by ISO3 code.
func Countries() []Country {
	out := make([]Country, len(countries))
	copy(out, countries)
	sort.Slice(out, func(i, j int) bool { return out[i].ISO3 < out[j].ISO3 })
	return out
}
