package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Handler serves the fabric protocol: POST /fabric/v1/{join,lease,result}
// with JSON bodies. Mount it alongside the obs endpoints (cmd/spe serves
// both from one listener) or on its own server.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(apiPrefix+"join", handleJSON(c.Join))
	mux.HandleFunc(apiPrefix+"lease", handleJSON(c.Lease))
	mux.HandleFunc(apiPrefix+"result", handleJSON(c.Result))
	return mux
}

// maxRequestBytes caps a fabric request body. The largest legitimate
// request is a shard result, which carries source text only for the
// shard's symptomatic variants: kilobytes in practice, far below the cap.
const maxRequestBytes = 32 << 20

// handleJSON adapts one coordinator method to an HTTP endpoint.
func handleJSON[Req, Resp any](fn func(context.Context, *Req) (*Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req Req
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, fmt.Sprintf("bad request: %v", err), status)
			return
		}
		resp, err := fn(r.Context(), &req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	}
}

// httpTransport is the worker-side client for a coordinator's Handler.
type httpTransport struct {
	base   string
	client *http.Client
}

// Dial returns a Transport speaking to the coordinator at addr
// ("host:port" or a full http:// URL). The client enforces no global
// timeout — lease execution windows are the protocol's deadline — but
// individual calls still honor their context.
func Dial(addr string) Transport {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	return &httpTransport{
		base:   base,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 30 * time.Second}},
	}
}

func (t *httpTransport) Join(ctx context.Context, req *JoinRequest) (*JoinResponse, error) {
	return httpCall[JoinRequest, JoinResponse](ctx, t, "join", req)
}

func (t *httpTransport) Lease(ctx context.Context, req *LeaseRequest) (*LeaseResponse, error) {
	return httpCall[LeaseRequest, LeaseResponse](ctx, t, "lease", req)
}

func (t *httpTransport) Result(ctx context.Context, req *ResultRequest) (*ResultResponse, error) {
	return httpCall[ResultRequest, ResultResponse](ctx, t, "result", req)
}

// httpCall posts one JSON request and decodes the JSON reply.
func httpCall[Req, Resp any](ctx context.Context, t *httpTransport, endpoint string, req *Req) (*Resp, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("fabric: encode %s: %w", endpoint, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+apiPrefix+endpoint, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("fabric: %s request: %w", endpoint, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := t.client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("fabric: %s: %w", endpoint, err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 4<<10))
		return nil, fmt.Errorf("fabric: %s: %s: %s", endpoint, hresp.Status, strings.TrimSpace(string(msg)))
	}
	var resp Resp
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		return nil, fmt.Errorf("fabric: decode %s reply: %w", endpoint, err)
	}
	return &resp, nil
}
