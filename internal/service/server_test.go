package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, opts Options) (*httptest.Server, *Service) {
	t.Helper()
	svc, _ := newTestService(t, filepath.Join(t.TempDir(), "jobs"), opts)
	srv := httptest.NewServer(NewHandler(svc))
	t.Cleanup(srv.Close)
	return srv, svc
}

func postJob(t *testing.T, srv *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

const tinySweepJSON = `{"sweep": {"base": {"PowerDB": 10, "GabDB": -7, "GarDB": 0, "GbrDB": 5}, "powers_db": [0, 10], "protocols": ["MABC", "TDBC"]}}`

func TestHTTPSubmitAndLifecycle(t *testing.T) {
	srv, svc := newTestServer(t, Options{})
	resp := postJob(t, srv, tinySweepJSON)
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State != StateQueued {
		t.Fatalf("submit response: %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := svc.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	get, err := http.Get(srv.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	var got JobStatus
	if err := json.NewDecoder(get.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Fatalf("status after wait: %+v", got)
	}

	res, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK || res.Header.Get("X-Job-State") != "done" {
		t.Fatalf("results: status %d, X-Job-State %q", res.StatusCode, res.Header.Get("X-Job-State"))
	}
	data, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("index,power_db")) || bytes.Count(data, []byte("\n")) != 1+2*2 {
		t.Errorf("results CSV shape unexpected:\n%s", data)
	}

	list, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer list.Body.Close()
	var all []JobStatus
	if err := json.NewDecoder(list.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].ID != st.ID {
		t.Errorf("list = %+v", all)
	}
}

func TestHTTPValidationErrors(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	// 513 powers x 512 placements: one power past bicoop.MaxSweepScenarios.
	oversizedGrid := `{"sweep": {"powers_db": [` + strings.TrimSuffix(strings.Repeat("0,", 513), ",") +
		`], "placements": [` + strings.TrimSuffix(strings.Repeat(`{"Pos": 0.5},`, 512), ",") + `]}}`
	cases := []struct {
		name, body string
		wantSubstr string
	}{
		{"not json", "{", "invalid job"},
		{"no variant", "{}", "want exactly 1"},
		{"unknown field", `{"sweeep": {}}`, "unknown field"},
		{"trailing garbage", `{"sweep": {"base": {"PowerDB": 10, "GabDB": -7, "GarDB": 0, "GbrDB": 5}}} trailing garbage`, "trailing data"},
		{"second object", `{"sweep": {"base": {"PowerDB": 10, "GabDB": -7, "GarDB": 0, "GbrDB": 5}}}{"campaign":{}}`, "trailing data"},
		{"unknown protocol", `{"sweep": {"base": {"PowerDB": 10, "GabDB": -7, "GarDB": 0, "GbrDB": 5}, "protocols": ["FDMA"]}}`, "unknown protocol"},
		{"bad scenario", `{"sweep": {"base": {"PowerDB": 1e999, "GabDB": -7, "GarDB": 0, "GbrDB": 5}}}`, "invalid job"},
		{"one region angle", `{"region_batch": {"scenarios": [{"PowerDB": 10, "GabDB": -7, "GarDB": 0, "GbrDB": 5}], "curves": [{"Protocol": "MABC", "Bound": "inner"}], "angles": 1}}`, "invalid region spec"},
		{"region angles overflow", `{"region_batch": {"scenarios": [{"PowerDB": 10, "GabDB": -7, "GarDB": 0, "GbrDB": 5}], "curves": [{"Protocol": "MABC", "Bound": "inner"}], "angles": 4611686018427387904}}`, "invalid region spec"},
		{"region angles out of memory", `{"region_batch": {"scenarios": [{"PowerDB": 10, "GabDB": -7, "GarDB": 0, "GbrDB": 5}], "curves": [{"Protocol": "MABC", "Bound": "inner"}], "angles": 1099511627776}}`, "invalid region spec"},
		{"oversized sweep grid", oversizedGrid, "at most 262144 scenarios"},
		{"bit-true block length out of memory", `{"campaign": {"specs": [{"bit_true_tdbc": {"Links": {"EpsAR": 0.2, "EpsBR": 0.1, "EpsAB": 0.6}, "Rates": {"Ra": 0.2, "Rb": 0.2}, "BlockLength": 1000000}, "trials": 2}]}}`, "invalid block length"},
		{"bit-true rate above one", `{"campaign": {"specs": [{"bit_true_mabc": {"Links": {"EpsMAC": 0.2, "EpsRA": 0.15, "EpsRB": 0.1}, "Rate": 1.5, "BlockLength": 400}, "trials": 2}]}}`, "invalid rates"},
		{"bit-true durations out of range", `{"campaign": {"specs": [{"bit_true_mabc": {"Links": {"EpsMAC": 0.2, "EpsRA": 0.15, "EpsRB": 0.1}, "Rate": 0.3, "Durations": [1.5, -0.5], "BlockLength": 400}, "trials": 2}]}}`, "invalid simulation spec"},
		{"bit-true MABC zero rate", `{"campaign": {"specs": [{"bit_true_mabc": {"Links": {"EpsMAC": 0.2, "EpsRA": 0.15, "EpsRB": 0.1}, "Rate": 0, "BlockLength": 400}, "trials": 2}]}}`, "invalid simulation spec"},
		{"bit-true TDBC zero rates", `{"campaign": {"specs": [{"bit_true_tdbc": {"Links": {"EpsAR": 0.2, "EpsBR": 0.1, "EpsAB": 0.6}, "Rates": {"Ra": 0, "Rb": 0}, "Durations": [0.3, 0.3, 0.4], "BlockLength": 400}, "trials": 2}]}}`, "invalid simulation spec"},
		{"bit-true TDBC block of one", `{"campaign": {"specs": [{"bit_true_tdbc": {"Links": {"EpsAR": 0.2, "EpsBR": 0.1, "EpsAB": 0.6}, "Rates": {"Ra": 0.3, "Rb": 0.3}, "BlockLength": 1}, "trials": 2}]}}`, "invalid simulation spec"},
		{"bit-true TDBC erasure above one", `{"campaign": {"specs": [{"bit_true_tdbc": {"Links": {"EpsAR": 2, "EpsBR": 0.1, "EpsAB": 0.6}, "Rates": {"Ra": 0.3, "Rb": 0.3}, "BlockLength": 400}, "trials": 2}]}}`, "invalid simulation spec"},
		{"bit-true MABC negative erasure", `{"campaign": {"specs": [{"bit_true_mabc": {"Links": {"EpsMAC": -0.5, "EpsRA": 0.15, "EpsRB": 0.1}, "Rate": 0.3, "BlockLength": 400}, "trials": 2}]}}`, "invalid simulation spec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJob(t, srv, tc.body)
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, body %s, want 400", resp.StatusCode, body)
			}
			var he httpError
			if err := json.Unmarshal(body, &he); err != nil || he.Error == "" {
				t.Fatalf("error body not structured JSON: %s", body)
			}
			if !strings.Contains(he.Error, tc.wantSubstr) {
				t.Errorf("error %q does not mention %q", he.Error, tc.wantSubstr)
			}
		})
	}
}

func TestHTTPUnknownJobIs404(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	for _, path := range []string{"/v1/jobs/j999999", "/v1/jobs/j999999/results"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestHTTPQueueFullSheds429(t *testing.T) {
	srv, svc := newTestServer(t, Options{QueueCap: 1, Executors: 1})
	// Occupy the executor, then fill the one queue slot.
	id, err := svc.Submit(longSweep(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, id, StateRunning, 10*time.Second)
	first := postJob(t, srv, tinySweepJSON)
	if first.StatusCode != http.StatusCreated {
		t.Fatalf("fill submit: status %d", first.StatusCode)
	}
	shed := postJob(t, srv, tinySweepJSON)
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status %d, want 429", shed.StatusCode)
	}
	if shed.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
}

func TestHTTPCancel(t *testing.T) {
	srv, svc := newTestServer(t, Options{})
	id, err := svc.Submit(longSweep(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, id, StateRunning, 10*time.Second)
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d, want 202", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := svc.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Errorf("state after cancel = %s, want canceled", st.State)
	}
}

func TestHTTPDrainingRefusesWith503(t *testing.T) {
	srv, svc := newTestServer(t, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp := postJob(t, srv, tinySweepJSON)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After")
	}
	health, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer health.Body.Close()
	var h struct {
		OK       bool `json:"ok"`
		Draining bool `json:"draining"`
	}
	if err := json.NewDecoder(health.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || !h.Draining {
		t.Errorf("healthz while draining = %+v", h)
	}
}

func TestRecoverMiddlewareContainsPanics(t *testing.T) {
	h := recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(fmt.Errorf("workload exploded"))
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var he httpError
	if err := json.Unmarshal(rec.Body.Bytes(), &he); err != nil || !strings.Contains(he.Error, "workload exploded") {
		t.Errorf("panic body = %s", rec.Body.Bytes())
	}
}
