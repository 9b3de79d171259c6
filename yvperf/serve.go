package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/names"
	"repro/internal/record"
	"repro/internal/telemetry"
)

// Latency classes of the query traffic.
const (
	classSearch = "search" // surname search at a certainty already asked
	classSweep  = "sweep"  // search or stats at a certainty not asked before
	classLookup = "lookup" // entity, narrative and pair requests
)

// namedCertainties are the slider positions, besides the server's
// default, that the traffic treats as popular: the certainties the
// repository's README uses in its examples (0.3 for yver and the
// streaming pipeline, 0.4 for AtCertainty). No usage data says where
// users leave the slider; this is an assumption.
var namedCertainties = []float64{0.3, 0.4}

// request is one query of the traffic with what its answer must show.
type request struct {
	class string
	path  string
	at    time.Duration // due offset from the start of the traffic

	theta float64
	last  string  // search: the queried surname
	book  int64   // entity, narrative: the report asked about
	score float64 // pair: the ranked match's score
}

// counts is the number of requests of each kind in a traffic plan.
type counts struct {
	search, entity, narrative, pair, sweep int
}

// trafficCounts splits n requests of the query traffic. The shares are
// an assumption, not a measurement: a user searches for relatives by
// surname (59%), opens an entity, its narrative or a pair from the hits
// (12% each), and now and then moves the certainty slider (5%). Every
// kind gets at least one request, so even a short run measures every
// latency class.
func trafficCounts(n int) counts {
	share := func(f float64) int { return max(1, int(f*float64(n)+0.5)) }
	c := counts{entity: share(0.12), narrative: share(0.12), pair: share(0.12), sweep: share(0.05)}
	c.search = n - c.entity - c.narrative - c.pair - c.sweep
	return c
}

// queryPool holds what the generator draws queries from.
type queryPool struct {
	surnames []string // one per report that has a surname: popular names recur
	books    []int64
	matches  []core.RankedMatch
	// def is the certainty a request without a certainty parameter gets.
	def float64
	// Slider moves land between the ranked scores at ranks 95% and 5%,
	// where a move changes which matches are accepted.
	sweepLo, sweepHi float64
}

func newQueryPool(res *core.Resolution, def float64) *queryPool {
	p := &queryPool{matches: res.Matches, def: def}
	for _, r := range res.Collection.Records {
		p.books = append(p.books, r.BookID)
		if v, ok := r.First(record.LastName); ok {
			p.surnames = append(p.surnames, v)
		}
	}
	if n := len(res.Matches); n > 0 {
		p.sweepLo, p.sweepHi = res.Matches[n*95/100].Score, res.Matches[n*5/100].Score
	}
	return p
}

// popular are the certainties most requests ask: the server's default
// and the named ones.
func (p *queryPool) popular() []float64 {
	return append([]float64{p.def}, namedCertainties...)
}

// withCertainty adds theta to a request path, or leaves the parameter
// out when theta is the server's default.
func (p *queryPool) withCertainty(path string, theta float64) string {
	if theta == p.def {
		return path
	}
	sep := "?"
	if strings.Contains(path, "?") {
		sep = "&"
	}
	return path + sep + "certainty=" + strconv.FormatFloat(theta, 'g', -1, 64)
}

// plan draws the requests of a traffic plan. The number of each kind
// is fixed. Each kind is spread evenly through the plan from a seeded
// phase, so every stretch of the run carries the same mix: slider
// moves, the costliest requests, do not bunch up wherever a shuffle
// happens to put them. The seed draws the phases and the queried
// surnames, reports and pairs.
func (p *queryPool) plan(rng *rand.Rand, c counts) []*request {
	type slot struct {
		at   float64 // position in the plan, in [0, 1)
		kind string
	}
	var slots []slot
	for _, k := range []struct {
		name string
		n    int
	}{{"search", c.search}, {"entity", c.entity}, {"narrative", c.narrative}, {"pair", c.pair}, {"sweep", c.sweep}} {
		phase := rng.Float64()
		for i := 0; i < k.n; i++ {
			slots = append(slots, slot{(float64(i) + phase) / float64(k.n), k.name})
		}
	}
	sort.SliceStable(slots, func(i, j int) bool { return slots[i].at < slots[j].at })

	// Each kind takes the popular certainties in turn, so their shares
	// are fixed too.
	popular := p.popular()
	turn := map[string]int{}
	out := make([]*request, 0, len(slots))
	for i, sl := range slots {
		k := sl.kind
		r := &request{theta: popular[turn[k]%len(popular)]}
		turn[k]++
		switch k {
		case "search":
			r.class = classSearch
			r.last = p.surnames[rng.Intn(len(p.surnames))]
			r.path = p.withCertainty("/api/search?last="+url.QueryEscape(r.last), r.theta)
		case "entity", "narrative":
			r.class = classLookup
			r.book = p.books[rng.Intn(len(p.books))]
			r.path = p.withCertainty(fmt.Sprintf("/api/%s?book=%d", k, r.book), r.theta)
		case "pair":
			r.class = classLookup
			mt := p.matches[rng.Intn(len(p.matches))]
			r.score = mt.Score
			r.path = fmt.Sprintf("/api/pair?a=%d&b=%d", mt.Pair.A, mt.Pair.B)
		case "sweep":
			r.class = classSweep
			// A certainty no request has asked: distinct from the
			// popular ones and, almost surely, from every other draw.
			r.theta = p.sweepLo + (p.sweepHi-p.sweepLo)*rng.Float64() + float64(i)*1e-9
			if i%2 == 0 {
				r.last = p.surnames[rng.Intn(len(p.surnames))]
				r.path = p.withCertainty("/api/search?last="+url.QueryEscape(r.last), r.theta)
			} else {
				r.path = p.withCertainty("/api/stats", r.theta)
			}
		}
		out = append(out, r)
	}
	return out
}

// schedule spreads the requests over the window as an open loop of
// independent users: n arrivals of a Poisson process conditioned on its
// count, i.e. sorted uniform due times.
func schedule(rng *rand.Rand, reqs []*request, window time.Duration) {
	at := make([]time.Duration, len(reqs))
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	for i, r := range reqs {
		r.at = at[i]
	}
}

// traffic sends rate requests per second of the mix, drawn from the
// seed, as an open loop over the window and returns their outcomes.
func traffic(h http.Handler, p *queryPool, seed int64, rate float64, window time.Duration) []outcome {
	rng := rand.New(rand.NewSource(subSeed(seed, 100)))
	reqs := p.plan(rng, trafficCounts(int(rate*window.Seconds()+0.5)))
	schedule(rng, reqs, window)
	return openLoop(h, reqs, drainTimeout)
}

// drainTimeout is how long the open loop waits for answers after its
// last dispatch before it counts the rest as timeouts.
const drainTimeout = 30 * time.Second

// outcome is one answered request.
type outcome struct {
	req     *request
	code    int
	body    []byte
	latency time.Duration // from due time to the end of ServeHTTP
	wait    time.Duration // from due time to the start of ServeHTTP
	lag     time.Duration // how late the generator dispatched it
	err     error
}

// doRequest serves one request in process and records its outcome.
func doRequest(h http.Handler, r *request, due time.Time, lag time.Duration) outcome {
	start := time.Now()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, r.path, nil))
	end := time.Now()
	return outcome{req: r, code: rec.Code, body: rec.Body.Bytes(), latency: end.Sub(due), wait: start.Sub(due), lag: lag}
}

// openLoop sends every request at its due time regardless of earlier
// answers, each on its own goroutine, and collects the outcomes. A
// request still unanswered drain after the last dispatch is reported as
// a timeout.
func openLoop(h http.Handler, reqs []*request, drain time.Duration) []outcome {
	results := make(chan outcome, len(reqs)) // one send per request: no sender blocks
	start := time.Now()
	for _, r := range reqs {
		due := start.Add(r.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag := time.Since(due)
		go func(r *request) { results <- doRequest(h, r, due, lag) }(r)
	}
	out := make([]outcome, 0, len(reqs))
	timeout := time.After(drain)
	for len(out) < len(reqs) {
		select {
		case o := <-results:
			out = append(out, o)
		case <-timeout:
			answered := map[*request]bool{}
			for _, o := range out {
				answered[o.req] = true
			}
			for _, r := range reqs {
				if !answered[r] {
					out = append(out, outcome{req: r, err: fmt.Errorf("%s: no answer %v after the last dispatch", r.path, drain)})
				}
			}
			return out
		}
	}
	return out
}

// checkAnswer verifies one answer against the resolution it was served
// from: a 2xx status, search hits that carry the queried surname, an
// entity or narrative that holds the asked report, a pair score equal
// to the ranked match's, and a stats entity count equal to the number
// of clusters at that certainty.
func checkAnswer(res *core.Resolution, o outcome) error {
	if o.err != nil {
		return o.err
	}
	r := o.req
	if o.code < 200 || o.code > 299 {
		return fmt.Errorf("%s: status %d: %s", r.path, o.code, strings.TrimSpace(string(o.body)))
	}
	switch {
	case strings.HasPrefix(r.path, "/api/search"):
		var body struct {
			Entities []struct {
				Values map[string][]string `json:"values"`
			} `json:"entities"`
		}
		if err := json.Unmarshal(o.body, &body); err != nil {
			return fmt.Errorf("%s: %w", r.path, err)
		}
		if len(body.Entities) == 0 {
			return fmt.Errorf("%s: no hits for a surname the corpus holds", r.path)
		}
		for i, e := range body.Entities {
			if !hasSurname(e.Values[record.LastName.String()], r.last) {
				return fmt.Errorf("%s: hit %d does not carry surname %q", r.path, i, r.last)
			}
		}
	case strings.HasPrefix(r.path, "/api/entity"), strings.HasPrefix(r.path, "/api/narrative"):
		var body struct {
			Reports []int64 `json:"reports"`
		}
		if err := json.Unmarshal(o.body, &body); err != nil {
			return fmt.Errorf("%s: %w", r.path, err)
		}
		found := false
		for _, id := range body.Reports {
			found = found || id == r.book
		}
		if !found {
			return fmt.Errorf("%s: answer does not hold report %d", r.path, r.book)
		}
	case strings.HasPrefix(r.path, "/api/pair"):
		var body struct {
			Score float64 `json:"score"`
		}
		if err := json.Unmarshal(o.body, &body); err != nil {
			return fmt.Errorf("%s: %w", r.path, err)
		}
		if body.Score != r.score {
			return fmt.Errorf("%s: score %v, ranked match scored %v", r.path, body.Score, r.score)
		}
	case strings.HasPrefix(r.path, "/api/stats"):
		var body struct {
			Entities int `json:"entities"`
		}
		if err := json.Unmarshal(o.body, &body); err != nil {
			return fmt.Errorf("%s: %w", r.path, err)
		}
		if want := len(res.Clusters(r.theta)); body.Entities != want {
			return fmt.Errorf("%s: %d entities, %d clusters at that certainty", r.path, body.Entities, want)
		}
	}
	return nil
}

func hasSurname(values []string, last string) bool {
	for _, v := range values {
		if strings.EqualFold(v, last) || names.SameClass(v, last) {
			return true
		}
	}
	return false
}

// warm asks each popular certainty once, as earlier users would have,
// and one pair, which builds the lazy pair index of a spilled run.
func warm(h http.Handler, p *queryPool) error {
	paths := []string{}
	for _, t := range p.popular() {
		paths = append(paths, p.withCertainty("/api/stats", t))
	}
	if len(p.matches) > 0 {
		m := p.matches[0]
		paths = append(paths, fmt.Sprintf("/api/pair?a=%d&b=%d", m.Pair.A, m.Pair.B))
	}
	for _, path := range paths {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("warm %s: status %d", path, rec.Code)
		}
	}
	return nil
}

// serverCounter sums a registry counter family over the server's routes.
func serverCounter(family string) float64 {
	total := int64(0)
	for _, route := range []string{"/api/search", "/api/entity", "/api/narrative", "/api/pair", "/api/stats"} {
		total += telemetry.Default().Counter(family, telemetry.L("route", route)).Value()
	}
	return float64(total)
}

// trafficMetrics folds checked outcomes into the latency metrics and
// the server's per-layer waits, and tallies every request.
func trafficMetrics(res *core.Resolution, outs []outcome, t *tally, m map[string]float64) {
	lat := map[string][]float64{}
	var waits []float64
	lag := 0.0
	for _, o := range outs {
		if err := checkAnswer(res, o); err != nil {
			t.fail(err)
			continue
		}
		t.ok()
		lat[o.req.class] = append(lat[o.req.class], float64(o.latency)/1e6)
		waits = append(waits, float64(o.wait)/1e6)
		lag = math.Max(lag, float64(o.lag)/1e6)
	}
	m["search_p50_ms"] = quantile(lat[classSearch], 0.5)
	m["search_p99_ms"] = quantile(lat[classSearch], 0.99)
	m["sweep_p50_ms"] = quantile(lat[classSweep], 0.5)
	m["sweep_p90_ms"] = quantile(lat[classSweep], 0.9)
	m["lookup_p50_ms"] = quantile(lat[classLookup], 0.5)
	m["lookup_p99_ms"] = quantile(lat[classLookup], 0.99)
	for class, xs := range lat {
		m["samples."+class] = float64(len(xs))
	}
	m["server.queue_wait_ms"] = quantile(waits, 0.99)
	m["server.generator_lag_ms"] = lag
}
