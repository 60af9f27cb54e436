package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"testing"

	"gnsslna/internal/jsonl"
)

// FuzzJobSpec drives the POST /jobs decode and validation path with
// arbitrary bodies. Properties: decoding never panics; no body longer than
// maxJobSpecBytes is accepted; and every accepted spec survives a trip
// through a WAL submit record unchanged, so what replay restores is what
// the client was acknowledged for.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(`{"type":"design","quick":true}`))
	f.Add([]byte(`{"type":"extract","tenant":"lab","seed":7,"model":"Angelov","dedupe_key":"k1"}`))
	f.Add([]byte(`{"type":"sweep","priority":-3,"trials":50,"max_evals":1000,"timeout_ms":60000}` + "\n"))
	f.Add([]byte(`{"type":"design"} {"type":"sweep"}`))
	f.Add([]byte(`{"type":"mine-bitcoin"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeJobSpec(nil, io.NopCloser(bytes.NewReader(body)))
		if err != nil {
			return
		}
		if len(body) > maxJobSpecBytes {
			t.Fatalf("accepted a %d-byte body over the %d-byte limit", len(body), maxJobSpecBytes)
		}
		line, err := json.Marshal(walRecord{Op: "submit", Job: &Job{ID: "j", Spec: spec}})
		if err != nil {
			t.Fatalf("marshal accepted spec %+v: %v", spec, err)
		}
		recs, err := jsonl.Read[walRecord](bytes.NewReader(append(line, '\n')))
		if err != nil || len(recs) != 1 || recs[0].Job == nil {
			t.Fatalf("WAL record of %+v does not read back: %v", spec, err)
		}
		if got := recs[0].Job.Spec; !reflect.DeepEqual(got, spec) {
			t.Fatalf("spec changed through the WAL:\n got %+v\nwant %+v", got, spec)
		}
	})
}
