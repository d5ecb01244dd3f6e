package db_test

import (
	"bytes"
	"testing"

	"lockdoc/internal/db"
	"lockdoc/internal/fs"
	"lockdoc/internal/trace"
	"lockdoc/internal/workload"
)

// TestImportAllocsPerEvent bounds the allocations of a whole import of
// the kernel-mix trace (the BenchmarkImport fixture) per trace event.
// Steady-state ingestion allocates nothing per access: what remains is
// proportional to the definitions and to the distinct observations the
// store ends up holding.
func TestImportAllocsPerEvent(t *testing.T) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Run(w, workload.Options{Seed: 42, Scale: 2, PreemptEvery: 97}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	st, err := trace.Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2, func() {
		r, err := trace.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Import(r, fs.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	})
	perEvent := allocs / float64(st.Events)
	t.Logf("%.0f allocs for %d events: %.3f allocs/event", allocs, st.Events, perEvent)
	if perEvent > 0.5 {
		t.Fatalf("import allocates %.3f times per event, want <= 0.5", perEvent)
	}
}
