package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"attache/client"
	"attache/internal/loadgen"
	"attache/internal/shard"
	"attache/internal/wire"
)

// TestTaxonomyRoundTrip carries every row of shard.OpErrors through the
// three layers that read the table. The engine cannot be made to fail
// with each sentinel on demand, so the test daemon answers with the
// server's own writeErr (whole-response failures) and per-op result shape
// (batch failures) for an op that failed with the row's sentinel. Then,
// over real HTTP: the response carries the row's status, the client maps
// it back to the sentinel on both paths, and loadgen files it under the
// row's label.
func TestTaxonomyRoundTrip(t *testing.T) {
	// The statuses that name exactly one sentinel; a StatusError with any
	// other code must not unwrap to one. Spelled out here, not derived
	// from the table, so a table edit that changes the set is noticed.
	resolves := map[int]bool{404: true, 429: true, 499: true, 503: true, 504: true}

	srv := newTestServer(t)
	for _, row := range shard.OpErrors {
		t.Run(row.Label, func(t *testing.T) {
			opErr := fmt.Errorf("shard 1: op at 0x2a: %w", row.Sentinel)
			mux := http.NewServeMux()
			mux.HandleFunc("/v1/read", func(w http.ResponseWriter, r *http.Request) { srv.writeErr(w, opErr) })
			mux.HandleFunc("/v1/batch", func(w http.ResponseWriter, r *http.Request) {
				writeJSON(w, http.StatusOK, wire.Batch{Results: []wire.OpResult{{Addr: 42, Error: opErr.Error()}}, Failed: 1})
			})
			ts := httptest.NewServer(mux)
			defer ts.Close()
			c := client.New(ts.URL, client.WithRetry(0))

			_, err := c.Read(context.Background(), 42)
			var se *client.StatusError
			if !errors.As(err, &se) || se.Code != row.Status {
				t.Fatalf("/v1/read answered %v, want status %d", err, row.Status)
			}
			if got := errors.Is(err, row.Sentinel); got != resolves[row.Status] {
				t.Errorf("errors.Is(%v, %v) = %v, want %v", err, row.Sentinel, got, resolves[row.Status])
			}
			if got := loadgen.Classify(err); got != row.Label {
				t.Errorf("Classify(single-op error) = %q, want %q", got, row.Label)
			}

			res, err := c.Do(context.Background(), []shard.Op{{Addr: 42}})
			if err != nil {
				t.Fatalf("batch: %v", err)
			}
			if !errors.Is(res[0].Err, row.Sentinel) {
				t.Errorf("batch per-op error %v does not wrap %v", res[0].Err, row.Sentinel)
			}
			if got := loadgen.Classify(res[0].Err); got != row.Label {
				t.Errorf("Classify(batch per-op error) = %q, want %q", got, row.Label)
			}
		})
	}

	if got := statusFor(errors.New("mystery")); got != http.StatusInternalServerError {
		t.Errorf("statusFor(error outside the table) = %d, want 500", got)
	}
}
