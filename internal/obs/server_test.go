package obs

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testHandler() http.Handler {
	reg := NewRegistry()
	reg.Counter("spe_variants_total", "Variants.").Add(5)
	ring := NewRing(8)
	ring.Publish("finding", map[string]string{"class": "crash"})
	ring.Publish("coverage", map[string]int{"sites": 3})
	return Handler(reg, ring, func() interface{} {
		return map[string]interface{}{"running": true, "planned_variants": 10}
	})
}

func TestHandlerMetrics(t *testing.T) {
	srv := httptest.NewServer(testHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	if !strings.Contains(string(body), "spe_variants_total 5") {
		t.Fatalf("metrics body missing counter:\n%s", body)
	}
}

func TestHandlerStatus(t *testing.T) {
	srv := httptest.NewServer(testHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	if !strings.Contains(string(body), `"planned_variants": 10`) {
		t.Fatalf("status body = %s", body)
	}
}

func TestHandlerStatusNil(t *testing.T) {
	srv := httptest.NewServer(Handler(NewRegistry(), nil, nil))
	defer srv.Close()
	for _, path := range []string{"/status", "/events"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s without backing state: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestHandlerIndexAndNotFound(t *testing.T) {
	srv := httptest.NewServer(testHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "/metrics") {
		t.Fatalf("index = %s", body)
	}
	resp, err = http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: status %d, want 404", resp.StatusCode)
	}
}

func TestHandlerEventsSSE(t *testing.T) {
	srv := httptest.NewServer(testHandler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"/events?since=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}
	// read until both buffered events have streamed, then hang up
	buf := make([]byte, 4096)
	var got strings.Builder
	for {
		n, err := resp.Body.Read(buf)
		got.Write(buf[:n])
		if strings.Contains(got.String(), "id: 2") || err != nil {
			break
		}
	}
	out := got.String()
	for _, want := range []string{"id: 1", "event: finding", `"class":"crash"`, "id: 2", "event: coverage"} {
		if !strings.Contains(out, want) {
			t.Fatalf("SSE stream missing %q:\n%s", want, out)
		}
	}
}

func TestHandlerPprof(t *testing.T) {
	srv := httptest.NewServer(testHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index: status %d body %.80s", resp.StatusCode, body)
	}
}

func TestServeEphemeralPort(t *testing.T) {
	s, err := Serve("127.0.0.1:0", testHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !strings.Contains(s.Addr, ":") || strings.HasSuffix(s.Addr, ":0") {
		t.Fatalf("Addr = %q, want a concrete bound port", s.Addr)
	}
	if s.srv.ReadHeaderTimeout <= 0 {
		t.Fatal("server has no ReadHeaderTimeout")
	}
	resp, err := http.Get("http://" + s.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics over Serve: status %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
	// both paths empty: a no-op
	stop, err = StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	stop()
}
