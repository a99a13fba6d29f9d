package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// StatusFunc produces the /status document: a JSON-encodable snapshot of
// whatever the instrumented process considers its vital signs.
type StatusFunc func() interface{}

// ssePollInterval is how often the /events handler polls the ring for
// fresh events. The ring is lock-free on the publish side, so polling
// cost lands entirely on the reader.
const ssePollInterval = 200 * time.Millisecond

// readHeaderTimeout bounds how long a client may take to send request
// headers, so connections that trickle headers cannot pile up.
const readHeaderTimeout = 10 * time.Second

// sseKeepalive is the idle-comment interval that keeps proxies from
// timing out a quiet stream.
const sseKeepalive = 15 * time.Second

// Handler assembles the observability endpoints:
//
//	/metrics        Prometheus text exposition of reg
//	/status         JSON document from status (404 when status is nil)
//	/events         Server-Sent Events stream of ring (404 when ring is nil)
//	/debug/pprof/*  the standard runtime profiles
//	/               a plain-text index of the above
//
// The handler only reads atomics and the ring; it never blocks or slows
// the instrumented process.
func Handler(reg *Registry, ring *Ring, status StatusFunc) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, req *http.Request) {
		if status == nil {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(status())
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, req *http.Request) {
		if ring == nil {
			http.NotFound(w, req)
			return
		}
		serveSSE(w, req, ring)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "spe telemetry\n\n/metrics\n/status\n/events\n/debug/pprof/\n")
	})
	return mux
}

// serveSSE streams ring events as Server-Sent Events. The client's resume
// point is taken from ?since=N or the Last-Event-ID header; by default the
// stream starts from the oldest event still buffered, so a fresh client
// sees the recent history before going live.
func serveSSE(w http.ResponseWriter, req *http.Request, ring *Ring) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	var since uint64
	if s := req.URL.Query().Get("since"); s != "" {
		since, _ = strconv.ParseUint(s, 10, 64)
	} else if s := req.Header.Get("Last-Event-ID"); s != "" {
		since, _ = strconv.ParseUint(s, 10, 64)
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ticker := time.NewTicker(ssePollInterval)
	defer ticker.Stop()
	keepalive := time.NewTicker(sseKeepalive)
	defer keepalive.Stop()
	for {
		for _, ev := range ring.Since(since) {
			since = ev.Seq
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data)
		}
		flusher.Flush()
		select {
		case <-req.Context().Done():
			return
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			flusher.Flush()
		case <-ticker.C:
		}
	}
}

// Server is a running telemetry HTTP server.
type Server struct {
	// Addr is the bound listen address (useful with ":0").
	Addr string
	ln   net.Listener
	srv  *http.Server
}

// Serve binds addr and serves h on it in a background goroutine. The
// returned Server reports the concrete bound address, so callers may pass
// ":0" (tests, the overhead bench) and discover the port.
func Serve(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{Addr: ln.Addr().String(), ln: ln,
		srv: &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}}
	go s.srv.Serve(ln)
	return s, nil
}

// Close stops the server and its listener.
func (s *Server) Close() error { return s.srv.Close() }
