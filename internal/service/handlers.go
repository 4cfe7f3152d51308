package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"adhocradio/internal/graph"
	"adhocradio/internal/obs"
	"adhocradio/internal/radio"
)

// SimulateRequest is the body of POST /v1/simulate.
type SimulateRequest struct {
	// Topology describes the generated network; see graph.Spec. The
	// canonical form of this spec is the compiled-graph cache key, so two
	// requests with equivalent specs share one compiled topology.
	Topology graph.Spec `json:"topology"`
	// Protocol names the algorithm, using cmd/radiosim's names:
	// kp, kp-paper, bgi, rr, ss, cl, inter.
	Protocol string `json:"protocol"`
	// Seed drives all protocol randomness; same request, same response.
	Seed uint64 `json:"seed"`
	// MaxSteps bounds the simulation (0 = the engine's default budget; a
	// negative value is a 400). A run that exhausts it is reported with
	// completed=false, not an error.
	MaxSteps int `json:"max_steps"`
	// TimeoutMS is the per-request deadline in milliseconds, clamped to
	// the service's MaxTimeout (0 = MaxTimeout).
	TimeoutMS int `json:"timeout_ms"`
	// IncludeInformedAt adds the per-node informed-step vector to the
	// response (omitted by default: it is O(n)).
	IncludeInformedAt bool `json:"include_informed_at"`
}

// SimulateResult is the engine outcome inside a SimulateResponse.
type SimulateResult struct {
	Completed      bool  `json:"completed"`
	BroadcastTime  int   `json:"broadcast_time"`
	StepsSimulated int   `json:"steps_simulated"`
	Transmissions  int64 `json:"transmissions"`
	Receptions     int64 `json:"receptions"`
	Collisions     int64 `json:"collisions"`
	InformedAt     []int `json:"informed_at,omitempty"`
}

// SimulateResponse is the body of a successful POST /v1/simulate. It is a
// pure function of the request: cache state is reported only in the
// X-Radiosd-Cache header, never in the body, so hit and miss responses for
// the same request are byte-identical (the e2e test gates this).
type SimulateResponse struct {
	// Topology is the canonical spec key the simulation ran on.
	Topology string `json:"topology"`
	Protocol string `json:"protocol"`
	Seed     uint64 `json:"seed"`
	// Result is the simulation outcome.
	Result SimulateResult `json:"result"`
	// Counters is this run's engine-counter window.
	Counters obs.Counters `json:"counters"`
}

// maxBodyBytes bounds a POST /v1/simulate body; a request spec is a few
// hundred bytes, so anything larger is answered 413 before it is decoded.
const maxBodyBytes = 1 << 20

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// timeoutFor clamps a requested millisecond deadline to the configured
// maximum; zero or negative requests get the maximum.
func (s *Service) timeoutFor(ms int) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if d <= 0 || d > s.cfg.MaxTimeout {
		return s.cfg.MaxTimeout
	}
	return d
}

// handleSimulate admits a job, waits for the worker and answers with the
// result. A body over maxBodyBytes is 413; backpressure (queue full or
// draining) is 503 + Retry-After; a deadline that expires first is 504 (the
// worker abandons the run at the next step boundary via the job context).
func (s *Service) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, err)
		return
	}
	spec, err := req.Topology.Normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key, err := spec.Canonical()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if _, err := protocolFor(req.Protocol); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.MaxSteps < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: negative max_steps %d", req.MaxSteps))
		return
	}
	// The worker never cancels ctx: if it did so before closing done, the
	// select below could see the cancellation first and answer 504 for a
	// job that completed.
	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(req.TimeoutMS))
	defer cancel()
	j := &job{
		ctx:             ctx,
		spec:            spec,
		specKey:         key,
		protocol:        req.Protocol,
		seed:            req.Seed,
		maxSteps:        req.MaxSteps,
		includeInformed: req.IncludeInformedAt,
		done:            make(chan struct{}),
	}
	if err := s.enqueue(j); err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		// Prefer the result if it raced the deadline to the finish line.
		select {
		case <-j.done:
		default:
			writeError(w, http.StatusGatewayTimeout, ctx.Err())
			return
		}
	}
	if j.err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(j.err, context.DeadlineExceeded) || errors.Is(j.err, context.Canceled):
			status = http.StatusGatewayTimeout
		case errors.Is(j.err, radio.ErrUnfitProtocol):
			status = http.StatusBadRequest
		}
		writeError(w, status, j.err)
		return
	}
	if j.cacheHit {
		w.Header().Set("X-Radiosd-Cache", "hit")
	} else {
		w.Header().Set("X-Radiosd-Cache", "miss")
	}
	writeJSON(w, http.StatusOK, j.resp)
}

// handleHealthz reports liveness; "draining" once graceful shutdown began.
func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}
