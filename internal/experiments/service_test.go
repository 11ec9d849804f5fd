package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"diffra/internal/service"
	"diffra/internal/telemetry"
	"diffra/internal/workloads"
)

// TestLowEndBatchParity runs the kernel×scheme grid twice — once
// through the in-process harness, once as one NDJSON request to the
// compile daemon's /batch handler — and demands identical static
// measurements cell for cell. This pins the facade's scheme pipelines
// to the experiment pipelines (and, since every service compile is
// independent, it is also a determinism check on the parallel
// harness).
func TestLowEndBatchParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment")
	}
	cfg := fastLowEnd()
	rep, err := RunLowEnd(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// One line per kernel×scheme cell, kernel-major.
	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	for _, k := range workloads.Kernels() {
		src := k.F.String()
		for _, scheme := range Schemes() {
			opts, err := cellOptions(scheme, cfg)
			if err != nil {
				t.Fatal(err)
			}
			enc.Encode(service.Request{IR: src, Scheme: string(opts.Scheme), RegN: opts.RegN, DiffN: opts.DiffN, Restarts: opts.Restarts})
		}
	}

	reg := telemetry.NewRegistry()
	srv, err := service.New(service.Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hr, err := http.Post(ts.URL+"/batch", "application/x-ndjson", &in)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	dec := json.NewDecoder(hr.Body)
	for _, k := range rep.Kernels {
		for _, scheme := range Schemes() {
			var got service.Response
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("%s/%s: reading batch line: %v", k, scheme, err)
			}
			if got.Error != "" {
				t.Fatalf("%s/%s: %s", k, scheme, got.Error)
			}
			want := rep.Results[scheme][k]
			if got.Instrs != want.Instrs || got.SpillInstrs != want.SpillInstrs || got.SetLastRegs != want.SetLastRegs {
				t.Errorf("%s/%s: service (instrs=%d spills=%d sets=%d) vs harness (instrs=%d spills=%d sets=%d)",
					k, scheme, got.Instrs, got.SpillInstrs, got.SetLastRegs,
					want.Instrs, want.SpillInstrs, want.SetLastRegs)
			}
		}
	}
	if err := dec.Decode(new(service.Response)); err != io.EOF {
		t.Fatalf("batch has lines past the grid (err %v)", err)
	}

	if b := reg.Counter("service_batches").Value(); b != 1 {
		t.Fatalf("service_batches = %d, want 1", b)
	}
	if n := int(reg.Counter("service_requests").Value()); n != len(rep.Kernels)*len(Schemes()) {
		t.Fatalf("service_requests = %d, want %d", n, len(rep.Kernels)*len(Schemes()))
	}
}
