package campaign

import (
	"encoding/json"
	"testing"
)

// FuzzParse drives the campaign spec decoder with arbitrary bytes; the
// committed corpus holds the example campaigns and their hostile edits.
// Properties: parsing never panics; an accepted spec is normalized
// (normalizing it again changes nothing); and its JSON form parses back to
// the same digest, so the spec a checkpoint is keyed on is the spec that
// runs.
func FuzzParse(f *testing.F) {
	f.Add([]byte(jsonSpec))
	f.Add([]byte(jsonSpec + " {}"))
	f.Add([]byte(`{"version": 1, "name": "x", "axes": {"bands": [], "specs": []}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(data)
		if err != nil {
			return
		}
		digest := spec.Digest()
		if err := spec.Normalize(); err != nil {
			t.Fatalf("accepted spec fails Normalize: %v", err)
		}
		if got := spec.Digest(); got != digest {
			t.Fatalf("accepted spec is not normalized: digest %s becomes %s", digest, got)
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal accepted spec: %v", err)
		}
		again, err := Parse(raw)
		if err != nil {
			t.Fatalf("re-marshalled spec %s does not parse: %v", raw, err)
		}
		if got := again.Digest(); got != digest {
			t.Fatalf("re-marshalled spec digests %s, want %s", got, digest)
		}
	})
}
