package metrics

import (
	"net/http"
	"strconv"
	"time"
)

// HTTPMetrics is the instrument set for an HTTP serving surface:
// request counts by route and status class, request latency by route,
// and an in-flight gauge. One set covers a whole server; routes are
// distinguished by label, not by instrument.
type HTTPMetrics struct {
	requests *CounterVec   // dssmem_http_requests_total{route,status}
	seconds  *HistogramVec // dssmem_http_request_seconds{route}
	inFlight *Gauge        // dssmem_http_in_flight
}

// NewHTTPMetrics registers the HTTP families on r. With a nil registry
// the returned set is a no-op and Wrap returns handlers unchanged in
// behavior (the wrapper still runs, recording into nil instruments).
func NewHTTPMetrics(r *Registry) *HTTPMetrics {
	return &HTTPMetrics{
		requests: r.CounterVec("dssmem_http_requests_total",
			"HTTP requests served, by route and status class.", "route", "status"),
		seconds: r.HistogramVec("dssmem_http_request_seconds",
			"HTTP request latency in seconds, by route.", DefBuckets, "route"),
		inFlight: r.Gauge("dssmem_http_in_flight",
			"HTTP requests currently being served."),
	}
}

// Wrap instruments next under the given route label. The route is the
// registered pattern ("/v1/jobs/{id}"), not the concrete URL, to
// keep label cardinality bounded.
func (m *HTTPMetrics) Wrap(route string, next http.Handler) http.Handler {
	if m == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.inFlight.Inc()
		defer m.inFlight.Dec()
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		m.seconds.With(route).Observe(time.Since(start).Seconds())
		m.requests.With(route, statusClass(sw.code)).Inc()
	})
}

// statusWriter captures the response status code for the status-class
// label; an unset code means the handler wrote a body directly, which
// net/http reports as 200.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer when it supports streaming
// (the pprof trace endpoint flushes incrementally).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// statusClass folds a status code into its class label ("2xx" ...).
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return strconv.Itoa(code/100) + "xx"
}
