package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gnsslna/internal/serve"
)

func TestLoadTenants(t *testing.T) {
	valid := `{"acme": {"rate_per_sec": 2, "burst": 5, "max_in_flight": 8,
	           "max_evals_per_job": 200000, "slo_p99_ms": 30000, "slo_error_rate": 0.01},
	 "beta": {"max_in_flight": 1}}`
	cases := []struct {
		name    string
		body    string
		noFile  bool // pass an empty path instead of a file
		want    map[string]serve.TenantPolicy
		wantErr string
	}{
		{name: "empty path", noFile: true},
		{name: "valid", body: valid, want: map[string]serve.TenantPolicy{
			"acme": {RatePerSec: 2, Burst: 5, MaxInFlight: 8, MaxEvalsPerJob: 200000,
				SLOTargetP99MS: 30000, SLOErrorRate: 0.01},
			"beta": {MaxInFlight: 1},
		}},
		{name: "misspelt field", body: `{"acme": {"rate_per_sec": 2, "slo_p99": 30000}}`,
			wantErr: `unknown field "slo_p99"`},
		{name: "trailing data", body: valid + ` {"late": {}}`, wantErr: "trailing data"},
		{name: "trailing garbage", body: valid + ` ]`, wantErr: "invalid character ']'"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := ""
			if !tc.noFile {
				path = filepath.Join(t.TempDir(), "tenants.json")
				if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got, err := loadTenants(path)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q (policies %v)", err, tc.wantErr, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("loadTenants: %v", err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("policies = %+v, want %+v", got, tc.want)
			}
			if tc.noFile {
				return
			}
			// A well-formed file decodes to the same policies as a lax
			// json.Unmarshal of it.
			var lax map[string]serve.TenantPolicy
			if err := json.Unmarshal([]byte(tc.body), &lax); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, lax) {
				t.Fatalf("strict policies %+v differ from lax %+v", got, lax)
			}
		})
	}
}
