package fsio

import (
	"bytes"
	"testing"
)

// FuzzDecodeRecord drives the record decoder — the framing of every job
// journal record — with arbitrary bytes. Rejection is always allowed; an
// accepted record must be exactly what EncodeRecord writes for its
// payload, so the decoder admits one spelling per record and never a
// torn, padded or re-spelled header.
func FuzzDecodeRecord(f *testing.F) {
	const magic = "impactjobs1"
	f.Add(EncodeRecord(magic, []byte("7")))
	f.Add(EncodeRecord(magic, []byte(`{"id":"job-000001","spec":{"scenario":"covert-pnm"}}`)))
	f.Add(EncodeRecord(magic, nil))
	f.Add([]byte(magic + " 1 deadbeef\nx"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, ok := DecodeRecord(magic, data)
		if !ok {
			return
		}
		if !bytes.Equal(EncodeRecord(magic, payload), data) {
			t.Fatalf("accepted %q, which does not re-encode to itself", data)
		}
	})
}
