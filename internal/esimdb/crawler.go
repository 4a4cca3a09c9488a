package esimdb

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"roamsim/internal/geo"
	"roamsim/internal/stats"
)

// pageSize is the API pagination size.
const pageSize = 200

// offersResponse is the wire format of the aggregator API.
type offersResponse struct {
	Date    string `json:"date"`
	Page    int    `json:"page"`
	Pages   int    `json:"pages"`
	Total   int    `json:"total"`
	Vantage string `json:"vantage,omitempty"`
	Offers  []Plan `json:"offers"`
}

// Handler exposes the marketplace as an HTTP API:
//
//	GET /v1/offers?date=2024-05-01&page=0
//
// The X-Vantage-Location header is echoed back but deliberately does not
// influence pricing — the no-price-discrimination finding.
func (m *Marketplace) Handler() http.Handler {
	// A crawl asks for one date's pages in turn, so the handler keeps the
	// last date's catalog rather than building the whole day per page.
	var mu sync.Mutex
	var lastDate string
	var last []Plan
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/offers", func(w http.ResponseWriter, r *http.Request) {
		dateStr := r.URL.Query().Get("date")
		date, err := time.Parse("2006-01-02", dateStr)
		if err != nil {
			http.Error(w, "bad or missing date", http.StatusBadRequest)
			return
		}
		page := 0
		if ps := r.URL.Query().Get("page"); ps != "" {
			page, err = strconv.Atoi(ps)
			if err != nil || page < 0 {
				http.Error(w, "bad page", http.StatusBadRequest)
				return
			}
		}
		mu.Lock()
		if dateStr != lastDate {
			last, lastDate = m.Offers(date), dateStr
		}
		all := last // shared read-only: only sub-sliced and encoded
		mu.Unlock()
		pages := (len(all) + pageSize - 1) / pageSize
		resp := offersResponse{
			Date:    dateStr,
			Page:    page,
			Pages:   pages,
			Total:   len(all),
			Vantage: r.Header.Get("X-Vantage-Location"),
		}
		lo := page * pageSize
		if lo < len(all) {
			hi := lo + pageSize
			if hi > len(all) {
				hi = len(all)
			}
			resp.Offers = all[lo:hi]
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			// Connection-level failure; nothing more to do.
			return
		}
	})
	return mux
}

// Crawler retrieves full daily catalogs from an aggregator API, as the
// paper's crawler did daily from three vantage points.
type Crawler struct {
	BaseURL string
	Vantage string // e.g. "Madrid", "Abu Dhabi", "New Jersey"
	Client  *http.Client
}

// Crawl fetches every page of the catalog for one date.
func (c *Crawler) Crawl(date time.Time) ([]Plan, error) {
	client := c.Client
	if client == nil {
		client = http.DefaultClient
	}
	var out []Plan
	for page := 0; ; page++ {
		url := fmt.Sprintf("%s/v1/offers?date=%s&page=%d", c.BaseURL, date.UTC().Format("2006-01-02"), page)
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		if c.Vantage != "" {
			req.Header.Set("X-Vantage-Location", c.Vantage)
		}
		httpResp, err := client.Do(req)
		if err != nil {
			return nil, fmt.Errorf("esimdb: crawl page %d: %w", page, err)
		}
		var resp offersResponse
		err = json.NewDecoder(httpResp.Body).Decode(&resp)
		// Drain whatever the decoder left (bounded) before closing so
		// the connection returns to the keep-alive pool: a daily crawl
		// is thousands of pages over the same three vantage origins.
		io.Copy(io.Discard, io.LimitReader(httpResp.Body, 256<<10))
		httpResp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("esimdb: decode page %d: %w", page, err)
		}
		if httpResp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("esimdb: page %d: HTTP %d", page, httpResp.StatusCode)
		}
		out = append(out, resp.Offers...)
		if page >= resp.Pages-1 {
			break
		}
	}
	return out, nil
}

// --- Snapshot analysis helpers (Figures 16-19) ---

// MedianPerGBByCountry returns country ISO3 -> median $/GB for one
// provider ("" = all providers).
func MedianPerGBByCountry(plans []Plan, provider string) map[string]float64 {
	byCountry := map[string][]float64{}
	for _, p := range plans {
		if provider != "" && p.Provider != provider {
			continue
		}
		if p.SizeGB > 0 {
			byCountry[p.Country] = append(byCountry[p.Country], p.PerGB())
		}
	}
	out := make(map[string]float64, len(byCountry))
	for c, v := range byCountry {
		out[c] = stats.Median(v)
	}
	return out
}

// ContinentDistribution returns, per continent, the distribution of
// country-level median $/GB values (the Figure 16 boxplot input).
func ContinentDistribution(plans []Plan, provider string) map[geo.Continent][]float64 {
	medians := MedianPerGBByCountry(plans, provider)
	out := map[geo.Continent][]float64{}
	for iso3, med := range medians {
		c, err := geo.LookupCountry(iso3)
		if err != nil {
			continue
		}
		out[c.Continent] = append(out[c.Continent], med)
	}
	for _, v := range out {
		sort.Float64s(v)
	}
	return out
}

// ProviderMedianPerGB returns each provider's median across its
// country-level medians plus its country count (the Figure 17 legend).
func ProviderMedianPerGB(plans []Plan) map[string]struct {
	Median    float64
	Countries int
	Offers    int
} {
	type agg struct {
		perCountry map[string][]float64
		offers     int
	}
	byProv := map[string]*agg{}
	for _, p := range plans {
		a, ok := byProv[p.Provider]
		if !ok {
			a = &agg{perCountry: map[string][]float64{}}
			byProv[p.Provider] = a
		}
		a.offers++
		a.perCountry[p.Country] = append(a.perCountry[p.Country], p.PerGB())
	}
	out := map[string]struct {
		Median    float64
		Countries int
		Offers    int
	}{}
	for name, a := range byProv {
		var medians []float64
		for _, v := range a.perCountry {
			medians = append(medians, stats.Median(v))
		}
		// Canonical order before the final median: the values were
		// collected in map-iteration order.
		sort.Float64s(medians)
		out[name] = struct {
			Median    float64
			Countries int
			Offers    int
		}{Median: stats.Median(medians), Countries: len(a.perCountry), Offers: a.offers}
	}
	return out
}

// PriceDeciles returns the decile boundaries of country-level medians
// (the Figure 18 color scale).
func PriceDeciles(plans []Plan, provider string) []float64 {
	medians := MedianPerGBByCountry(plans, provider)
	var v []float64
	for _, m := range medians {
		v = append(v, m)
	}
	sort.Float64s(v)
	out := make([]float64, 0, 9)
	for d := 1; d <= 9; d++ {
		out = append(out, stats.Quantile(v, float64(d)/10))
	}
	return out
}

// BestOffer returns the cheapest per-GB plan for a country with at
// least minGB of data from the given provider ("" = any provider).
func BestOffer(plans []Plan, country string, minGB float64, provider string) (Plan, bool) {
	var best Plan
	found := false
	for _, p := range plans {
		if p.Country != country || p.SizeGB < minGB {
			continue
		}
		if provider != "" && p.Provider != provider {
			continue
		}
		if !found || p.PerGB() < best.PerGB() {
			best, found = p, true
		}
	}
	return best, found
}

// TripStop is one country visit with its expected data need.
type TripStop struct {
	Country string
	GB      float64
}

// TripCost compares the total cost of covering an itinerary with one
// provider's eSIM plans versus buying a local physical SIM at each
// stop (where a local offer is known). It mirrors the paper's Figure 17
// point: local SIMs win per GB, eSIMs often win on total cost.
type TripCost struct {
	ESIMTotalUSD  float64
	LocalTotalUSD float64
	// Covered counts stops the eSIM provider could serve; stops without
	// a suitable plan are skipped in ESIMTotalUSD (and listed).
	Covered   int
	Uncovered []string
	// LocalKnown counts stops with a volunteer-collected local offer.
	LocalKnown int
}

// PlanTrip computes the comparison for an itinerary.
func PlanTrip(plans []Plan, provider string, stops []TripStop) TripCost {
	localByCountry := map[string]LocalSIMOffer{}
	for _, o := range LocalSIMOffers {
		localByCountry[o.Country] = o
	}
	var tc TripCost
	for _, stop := range stops {
		if offer, ok := BestOffer(plans, stop.Country, stop.GB, provider); ok {
			tc.ESIMTotalUSD += offer.PriceUSD
			tc.Covered++
		} else {
			tc.Uncovered = append(tc.Uncovered, stop.Country)
		}
		if local, ok := localByCountry[stop.Country]; ok {
			tc.LocalTotalUSD += local.TotalUSD()
			tc.LocalKnown++
		}
	}
	return tc
}
