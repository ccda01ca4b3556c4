package resultstore

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzRowCodec holds the row codec to its contract on arbitrary bytes:
// DecodeRow either refuses a payload with an error or accepts it, never
// panics; an accepted payload re-encodes to the very same bytes (the
// layout is canonical) and decodes again to a reflect.DeepEqual row. The
// seeds are a valid payload of every op plus hostile ones, and the
// committed corpus adds a version-1 JSON payload.
func FuzzRowCodec(f *testing.F) {
	for _, r := range codecRows() {
		payload, err := EncodeRow(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte(v1EvalPayload))
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := DecodeRow(payload)
		if err != nil {
			return
		}
		again, err := EncodeRow(r)
		if err != nil {
			t.Fatalf("decoded row does not re-encode: %v\n%+v", err, r)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("payload is not canonical:\n  in %x\n out %x", payload, again)
		}
		back, err := DecodeRow(again)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, r) {
			t.Fatalf("row did not round-trip:\n got %+v\nwant %+v", back, r)
		}
	})
}
