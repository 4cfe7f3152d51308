package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"adhocradio/internal/graph"
)

// fuzzMaxNodes bounds the graphs FuzzSimulateRequest lets through to a
// simulation, so every execution stays fast.
const fuzzMaxNodes = 300

// specNodes returns the node count a normalized spec builds, or an upper
// bound on it (starchain builds at most N nodes).
func specNodes(s graph.Spec) int {
	switch s.Kind {
	case "grid":
		return s.Rows * s.Cols
	case "hypercube":
		return 1 << s.D
	}
	return s.N
}

// FuzzSimulateRequest sends arbitrary bodies through the HTTP handler of a
// started service. No body may panic the handler or draw a 500: a body is
// either served (200, and the body decodes as a SimulateResponse) or
// refused with 400, 413, 503 or 504.
func FuzzSimulateRequest(f *testing.F) {
	for _, body := range []string{
		`{"topology":{"kind":"gnp","n":96,"p":0.08,"seed":11},"protocol":"kp","seed":5}`,
		`{"topology":{"kind":"path","n":16},"protocol":"rr","max_steps":-1}`,
		`{"topology":{"kind":"gnp","n":1},"protocol":"kp","seed":5}`,
		`{"topology":{"kind":"grid","rows":4,"cols":5},"protocol":"ss","max_steps":3,"include_informed_at":true}`,
		`{"topology":{"kind":"layered","n":40,"d":4,"p":0.5,"seed":2},"protocol":"cl","timeout_ms":1}`,
		`{"topology":{"kind":"warp","n":4},"protocol":"kp"}`,
		`{"topology":{"kind":"star","n":9},"protocol":"zigzag"}`,
		`not an object`,
		``,
	} {
		f.Add([]byte(body))
	}
	s := New(Config{Workers: 1, MaxTimeout: time.Second})
	s.Start()
	f.Cleanup(func() { s.Drain() })
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		// Decode as the handler does (first JSON value, trailing bytes
		// ignored) to skip the large graphs it would build.
		var req SimulateRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil {
			if spec, err := req.Topology.Normalize(); err == nil && specNodes(spec) > fuzzMaxNodes {
				t.Skip("graph too large for a fuzz execution")
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var resp SimulateResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body %q does not decode: %v", rec.Body.Bytes(), err)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body.Bytes())
		}
	})
}
