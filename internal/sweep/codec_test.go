package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// realResult produces an aggregate with every field exercised (histogram,
// extremal trials, float summaries) for round-trip checks.
func realResult(t *testing.T) *Result {
	t.Helper()
	res, err := Run(context.Background(), cycleSpec(13, []int{9, 16}, 6, 2))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResultCodecRoundTrip: encode → decode is lossless for every
// aggregate field, including float summaries (Go's JSON floats are
// shortest-round-trip) and the pooled histogram.
func TestResultCodecRoundTrip(t *testing.T) {
	res := realResult(t)
	var buf bytes.Buffer
	if err := EncodeResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, got) {
		t.Errorf("round trip lost data\nin:  %+v\nout: %+v", res, got)
	}
}

// TestDecodeResultRejects pins the typed-error contract on every corruption
// class: garbage bytes, wrong format tag, foreign version, payload with
// impossible aggregates.
func TestDecodeResultRejects(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  string
	}{
		{"garbage", "not json at all", "malformed envelope"},
		{"wrongFormat", `{"format":"sweep.leaseplan","version":3,"payload":{}}`, "not"},
		{"futureVersion", `{"format":"sweep.result","version":99,"payload":{}}`, "unsupported version"},
		{"badPayload", `{"format":"sweep.result","version":3,"payload":[1,2,3]}`, "malformed payload"},
		{"negativeTrials", `{"format":"sweep.result","version":3,"payload":{"sizes":[{"n":4,"trials":-1}]}}`, "impossible trial counts"},
		{"failuresOverTrials", `{"format":"sweep.result","version":3,"payload":{"sizes":[{"n":4,"trials":1,"failures":2}]}}`, "impossible trial counts"},
		{"negativeHist", `{"format":"sweep.result","version":3,"payload":{"sizes":[{"n":4,"trials":1,"hist":[-5]}]}}`, "negative histogram"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := DecodeResult(strings.NewReader(c.input))
			if err == nil {
				t.Fatal("corrupted input accepted")
			}
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("error %v is not a *DecodeError", err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestDecodeErrorMessage: the error names the expected format and unwraps
// to its cause.
func TestDecodeErrorMessage(t *testing.T) {
	cause := fmt.Errorf("boom")
	err := &DecodeError{Format: FormatResult, Reason: "r", Err: cause}
	if !strings.Contains(err.Error(), FormatResult) {
		t.Errorf("message %q missing format", err)
	}
	if !errors.Is(err, cause) {
		t.Error("DecodeError does not unwrap")
	}
}
