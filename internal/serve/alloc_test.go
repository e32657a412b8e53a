package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
)

// TestReadAllocBudgets pins the allocations of one GET /v1/query,
// /v1/region and /v1/hotspots through the whole handler stack (ServeHTTP,
// mux, admission, cache, encode) into a fresh recorder, on a cached static
// dataset (a point query answered exactly too, from its cached index) and
// on a local stream window. The budgets are the counts the read path last
// measured; a change may lower them, never raise them.
func TestReadAllocBudgets(t *testing.T) {
	s := New(Config{})
	ds, _ := s.addDataset(testPoints(500, 7))
	static := specParams(ds.id, core.AlgPBSYM)

	ts := httptest.NewServer(s)
	defer ts.Close()
	streamID := createStream(t, ts)
	postEvents(t, ts, streamID, streamEvents(100, 8, 5))
	live := "dataset=" + streamID + "&sres=2&tres=1&hs=6&ht=3"

	get := func(url string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s = %d %s", url, w.Code, w.Body)
		}
		return w
	}
	// One warm region + hotspots read each estimates the cube and builds
	// its pyramid (on the stream, its ring sketch), so every measured read
	// is a steady-state hit.
	for _, p := range []string{static, live} {
		get("/v1/region?" + p)
		get("/v1/hotspots?" + p)
	}

	for _, tc := range []struct {
		name, url, source string
		budget            float64
	}{
		{"static/query", "/v1/query?" + static + "&x=50&y=40&t=15", "grid", 44},
		{"static/query-exact", "/v1/query?" + static + "&x=50&y=40&t=15&exact=1", "exact", 44},
		{"static/region", "/v1/region?" + static + "&bx0=3&bx1=31&by0=2&by1=17&bt0=1&bt1=28", "sketch", 44},
		{"static/hotspots", "/v1/hotspots?" + static + "&k=10", "sketch", 39},
		{"stream/query", "/v1/query?" + live + "&x=20&y=15&t=8", "stream", 33},
		{"stream/region", "/v1/region?" + live + "&bx0=3&bx1=11&by0=2&by1=9&bt0=1&bt1=12", "sketch", 35},
		{"stream/hotspots", "/v1/hotspots?" + live + "&k=10", "sketch", 29},
	} {
		body := get(tc.url).Body.Bytes()
		var answer struct{ Source string }
		if err := json.Unmarshal(body, &answer); err != nil || answer.Source != tc.source {
			t.Fatalf("%s answered %s (%v), want source %q", tc.name, body, err, tc.source)
		}
		req := httptest.NewRequest(http.MethodGet, tc.url, nil)
		got := testing.AllocsPerRun(50, func() {
			s.ServeHTTP(httptest.NewRecorder(), req)
		})
		t.Logf("%s: %.0f allocs/op, budget %.0f (enforced: %v)", tc.name, got, tc.budget, !raceEnabled)
		if got > tc.budget && !raceEnabled {
			t.Errorf("%s: %.0f allocs/op over its budget of %.0f", tc.name, got, tc.budget)
		}
	}
}
