package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Status fetches a node's GET /replstatus — the coordinator's view into a
// replica-set member's role and catch-up position.
func Status(ctx context.Context, hc *http.Client, baseURL string) (*StatusJSON, error) {
	var out StatusJSON
	if err := call(ctx, hc, http.MethodGet, baseURL, "/replstatus", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Migrate drives a node's POST /admin/migrate — start a slot-migration
// ingest (Sources), freeze the per-source final WAL heads (Finalize), or
// tear the ingest down (Stop) — and returns the resulting status. The
// coordinator's reshard driver is the caller.
func Migrate(ctx context.Context, hc *http.Client, baseURL string, mr MigrateRequest) (*MigrateStatus, error) {
	var out MigrateStatus
	if err := call(ctx, hc, http.MethodPost, baseURL, "/admin/migrate", mr, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// MigrationStatus fetches a node's GET /admin/migrate.
func MigrationStatus(ctx context.Context, hc *http.Client, baseURL string) (*MigrateStatus, error) {
	var out MigrateStatus
	if err := call(ctx, hc, http.MethodGet, baseURL, "/admin/migrate", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SetRole posts a node's POST /role: promote to primary (primaryURL
// ignored) or point at a new primary as follower. The coordinator's
// failover path drives promotions through it.
func SetRole(ctx context.Context, hc *http.Client, baseURL string, role Role, primaryURL string) error {
	return call(ctx, hc, http.MethodPost, baseURL, "/role", RoleRequest{Role: role.String(), Primary: primaryURL}, nil)
}

// call is one JSON request to a node's control endpoint: in (nil for
// none) is the request body, out (nil to ignore) receives a 200 answer,
// and any other status is an error quoting the node's answer.
func call(ctx context.Context, hc *http.Client, method, baseURL, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(baseURL, "/")+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return fmt.Errorf("replica: %s%s: HTTP %d: %s",
			baseURL, path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
