package jsonl_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"gnsslna/internal/jsonl"
	"gnsslna/internal/obs"
)

// FuzzRead drives the reader with arbitrary bytes decoded as run-journal
// records. Properties: Read never panics; over an in-memory stream every
// error is a *TailError; its Offset lies within the data; and re-reading
// the complete prefix data[:Offset] returns the same records with no error,
// which is what makes truncating a file to Offset a lossless amputation.
func FuzzRead(f *testing.F) {
	f.Add([]byte(`{"seq":1,"t_ms":0.5,"event":"generation","scope":"de","gen":1,"evals":40,"best":1.5}` + "\n"))
	f.Add([]byte(`{"seq":1,"event":"metrics","fields":{"a":1,"b":-2.5}}` + "\n\n" +
		`{"seq":2,"event":"done","evals":100}` + "\n"))
	f.Add([]byte(`{"seq":1,"event":"span-begin","scope":"extract"}` + "\n" + `{"truncated`))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("not json at all\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := jsonl.Read[obs.Record](bytes.NewReader(data))
		if err == nil {
			return
		}
		var te *jsonl.TailError
		if !errors.As(err, &te) {
			t.Fatalf("error is not a *TailError: %v", err)
		}
		if te.Offset < 0 || te.Offset > int64(len(data)) {
			t.Fatalf("offset %d outside the %d-byte stream", te.Offset, len(data))
		}
		prefix, perr := jsonl.Read[obs.Record](bytes.NewReader(data[:te.Offset]))
		if perr != nil {
			t.Fatalf("complete prefix does not re-read cleanly: %v", perr)
		}
		if len(prefix) != len(recs) || (len(recs) > 0 && !reflect.DeepEqual(prefix, recs)) {
			t.Fatalf("prefix re-read %d records, the full read %d", len(prefix), len(recs))
		}
	})
}
