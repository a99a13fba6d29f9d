package fabric

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spe/internal/campaign"
)

// repeatReader yields an endless stream of one byte.
type repeatReader byte

func (b repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestFabricOversizedRequestRejected posts a well-formed result body one
// byte over the cap: the coordinator must refuse it as too large rather
// than decode it, and then still drive the campaign to the in-process
// report.
func TestFabricOversizedRequestRejected(t *testing.T) {
	cfg := baseConfig()
	want := inProcessBaseline(t, cfg)

	core, err := campaign.NewRemoteEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(core, Options{LeaseTimeout: 30 * time.Second})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	// the body is streamed, never held in memory, and sized so the server
	// reads all of it before answering
	prefix, suffix := `{"campaign":"`, `"}`
	size := int64(maxRequestBytes + 1)
	body := io.MultiReader(strings.NewReader(prefix),
		io.LimitReader(repeatReader('a'), size-int64(len(prefix)+len(suffix))),
		strings.NewReader(suffix))
	req, err := http.NewRequest(http.MethodPost, srv.URL+apiPrefix+"result", body)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = size
	req.Header.Set("Content-Type", "application/json")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized result: status %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}

	if got := runHTTPWorkers(t, coord, srv.URL); got != want {
		t.Errorf("report after a rejected request diverges:\n--- fabric ---\n%s--- in-process ---\n%s", got, want)
	}
}
