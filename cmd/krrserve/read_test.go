package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"

	"krr/internal/fleet"
	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/trace"
	"krr/internal/workload"
)

// readTenants are the tenants the response pins run on: histogram-read
// models (serial, sharded, with a byte curve) and a model that keeps
// the snapshot path (aet).
var readTenants = []tenantSpec{
	{ID: "web", Model: "krr-bucket", K: 5, Seed: 1, BucketRatio: 2},
	{ID: "olk", Model: "olken", Seed: 2, Workers: 2},
	{ID: "kb", Model: "krr", Seed: 3, Bytes: "on"},
	{ID: "aet", Model: "aet"},
}

func (s tenantSpec) options(t *testing.T) model.Options {
	t.Helper()
	mode, ok := model.ByteModeByName(s.Bytes)
	if !ok {
		t.Fatalf("bad byte mode %q", s.Bytes)
	}
	return model.Options{K: s.K, Seed: s.Seed, SamplingRate: s.Rate, Bytes: mode,
		Workers: s.Workers, BucketRatio: s.BucketRatio, AnalyticAlpha: s.Alpha}
}

func body(t *testing.T, url string) []byte {
	t.Helper()
	resp := get(t, url)
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	return b
}

// encodeJSON is the bytes json.NewEncoder writes for v.
func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestReadResponsesMatchSnapshotPath pins /mrc, /curve,
// /curve?points=N and /allocate byte for byte against the responses
// the snapshot-under-the-lock handlers produced: each is rebuilt here
// the way they built it — a snapshot of a model fed the same requests,
// formatted with fmt and encoding/json.
func TestReadResponsesMatchSnapshotPath(t *testing.T) {
	_, ts := testServer(t, model.Options{K: 4, Seed: 1})
	p, _ := workload.ByName("msr-web")
	tr, err := trace.Collect(p.New(1.0, 4, false), 60000)
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := trace.WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	snaps := map[string]model.Snapshot{}
	for _, spec := range readTenants {
		spec := spec
		js, _ := json.Marshal(spec)
		if resp := post(t, ts.URL+"/tenants", "application/json", string(js)); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: status %d", spec.ID, resp.StatusCode)
		}
		if resp := post(t, ts.URL+"/tenants/"+spec.ID+"/ingest", "application/octet-stream", bin.String()); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %s: status %d", spec.ID, resp.StatusCode)
		}
		ref, err := model.New(spec.Model, spec.options(t))
		if err != nil {
			t.Fatal(err)
		}
		if err := model.ProcessAll(ref, tr.Reader()); err != nil {
			t.Fatal(err)
		}
		snaps[spec.ID] = ref.Snapshot()
		ref.Close()
	}

	for _, spec := range readTenants {
		snap := snaps[spec.ID]
		base := ts.URL + "/tenants/" + spec.ID
		units := map[string]*mrc.Curve{"": snap.Object, "&unit=objects": snap.Object}
		if snap.Byte != nil {
			units["&unit=bytes"] = snap.Byte
		}
		for unit, c := range units {
			for _, size := range []uint64{0, 1, 1000, 10_000, 50_000, 150_000, c.WSS(), 1 << 40} {
				want := fmt.Sprintf("{\"size\": %d, \"miss_ratio\": %g, \"requests\": %d}\n", size, c.Eval(size), snap.Stats.Seen)
				if got := body(t, fmt.Sprintf("%s/mrc?size=%d%s", base, size, unit)); string(got) != want {
					t.Fatalf("%s /mrc size %d%s:\n got %s\nwant %s", spec.ID, size, unit, got, want)
				}
			}
			if got, want := body(t, base+"/curve?"+unit), encodeJSON(t, c); !bytes.Equal(got, want) {
				t.Fatalf("%s /curve%s differs (%d vs %d bytes)", spec.ID, unit, len(got), len(want))
			}
			for _, n := range []int{2, 3, 200, 100_000_000} {
				got := body(t, fmt.Sprintf("%s/curve?points=%d%s", base, n, unit))
				if want := encodeJSON(t, c.Downsample(n)); !bytes.Equal(got, want) {
					t.Fatalf("%s /curve?points=%d%s differs", spec.ID, n, unit)
				}
			}
		}
	}

	ids := make([]string, 0, len(snaps))
	for id := range snaps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var demands []fleet.Demand
	for _, id := range ids {
		demands = append(demands, fleet.Demand{Tenant: id, Curve: snaps[id].Object, Weight: float64(snaps[id].Stats.Seen)})
	}
	// Reads never create tenants, so the fleet holds exactly the
	// tenants above.
	for _, budget := range []uint64{1, 5000, 40_000, 200_000} {
		want := encodeJSON(t, map[string]any{
			"waterfill": fleet.Waterfill(demands, budget),
			"baselines": map[string]any{
				"proportional": fleet.ProportionalSplit(demands, budget),
				"uniform":      fleet.UniformSplit(demands, budget),
			},
		})
		if got := body(t, fmt.Sprintf("%s/allocate?budget=%d", ts.URL, budget)); !bytes.Equal(got, want) {
			t.Fatalf("/allocate budget %d:\n got %s\nwant %s", budget, got, want)
		}
	}
}

// curveReads scrapes every tenant's tenant_curve_reads_total.
func curveReads(t *testing.T, url string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, line := range strings.Split(string(body(t, url+"/metrics")), "\n") {
		rest, ok := strings.CutPrefix(line, `tenant_curve_reads_total{tenant="`)
		if !ok {
			continue
		}
		id, value, _ := strings.Cut(rest, `"} `)
		out[id] = value
	}
	return out
}

// TestAllocateReadsEachTenantOnce pins that one /allocate over T
// tenants takes exactly T curve reads: the waterfill plan and both
// baselines come from the same read of every tenant.
func TestAllocateReadsEachTenantOnce(t *testing.T) {
	_, ts := testServer(t, model.Options{K: 4, Seed: 1})
	tenants := []string{"a", "b", "c"}
	for i, id := range tenants {
		var b strings.Builder
		for k := 0; k < 3000; k++ {
			fmt.Fprintf(&b, "{\"key\": %d}\n", (k*(i+1))%(200*(i+1)))
		}
		post(t, ts.URL+"/tenants/"+id+"/ingest", "application/x-ndjson", b.String())
	}
	before := curveReads(t, ts.URL)
	body(t, ts.URL+"/allocate?budget=300")
	after := curveReads(t, ts.URL)
	for _, id := range tenants {
		if before[id] != "0" || after[id] != "1" {
			t.Fatalf("tenant %s: curve reads %s before /allocate, %s after; want 0 and 1", id, before[id], after[id])
		}
	}
}
