package sweep

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

// FuzzDecodeResult is the codec's robustness contract: arbitrary input
// must either decode cleanly or fail with an error — never panic — and
// anything that decodes must re-encode and re-decode to the identical
// aggregate (including histogram and best-trial fields).
func FuzzDecodeResult(f *testing.F) {
	res, err := Run(context.Background(), cycleSpec(5, []int{8, 11}, 4, 1))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeResult(&buf, res); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte(`{"format":"sweep.result","version":3,"payload":{"sizes":[]}}`))
	f.Add([]byte(`{"format":"sweep.result","version":3,"payload":{}}`))
	f.Add([]byte(`{"format":"sweep.leaseplan","version":3,"payload":{}}`))
	f.Add([]byte(`{`))
	f.Add(bytes.Replace(valid, []byte(`"trials"`), []byte(`"trails"`), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeResult(bytes.NewReader(data))
		if err != nil {
			return // rejected is fine; panicking is not
		}
		var out bytes.Buffer
		if err := EncodeResult(&out, res); err != nil {
			t.Fatalf("decoded aggregate failed to re-encode: %v", err)
		}
		again, err := DecodeResult(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded aggregate failed to decode: %v", err)
		}
		if !reflect.DeepEqual(res, again) {
			t.Fatalf("codec round trip not lossless\nfirst:  %+v\nsecond: %+v", res, again)
		}
	})
}
