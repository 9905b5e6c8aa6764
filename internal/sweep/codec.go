package sweep

// Versioned serialization for lease runs. Every record the engine (or a
// caller, like the experiment lease manifests) writes is a JSON envelope —
// a format tag, a version, a payload — so a reader can reject a foreign or
// future record with a typed error instead of silently mis-merging it. The
// payload shapes are the exported aggregate structs with explicit JSON
// tags; Go's JSON float encoding is shortest-round-trip, so decoded
// aggregates are bit-identical to the encoded ones and cross-process
// merges stay byte-exact.

import (
	"encoding/json"
	"fmt"
	"io"
)

// codecVersion is the current envelope version. Bump it on any change to
// the serialized shape of SizeStats, Plan, TrialRange or the envelope
// itself; readers reject other versions with a *DecodeError. Version 2
// added the quotient-plan fields (Plan.Quotient/Orders) and the
// per-completion fold weight (Completion.Weight); version 3 dropped the
// static shard from Plan.
const codecVersion = 3

// Format tags distinguish the file kinds sharing the envelope.
const (
	// FormatResult tags a serialized Result: a sweep's per-size aggregates.
	FormatResult = "sweep.result"
	// FormatLeasePlan tags a lease run's identity record: the plan plus the
	// grain schedule every cooperating executor must agree on (lease.go).
	FormatLeasePlan = "sweep.leaseplan"
	// FormatCompletion tags an immutable per-grain completion record: the
	// block coordinate plus its aggregate.
	FormatCompletion = "sweep.completion"
)

// DecodeError is the typed failure of every codec read: corrupted JSON, a
// wrong format tag, an unsupported version, or a payload violating the
// aggregate invariants. It is an error the caller can distinguish
// (errors.As) from I/O failures — and the codec never panics on arbitrary
// input, however corrupted (fuzzed in codec_fuzz_test.go).
type DecodeError struct {
	// Format is the format tag the reader expected.
	Format string
	// Reason describes what was wrong with the input.
	Reason string
	// Err is the underlying cause (a json error), when there is one.
	Err error
	// Key names the offending file or store record, when the caller knows
	// it — the codec itself only sees a reader.
	Key string
}

func (e *DecodeError) Error() string {
	msg := fmt.Sprintf("sweep: decode %s: %s", e.Format, e.Reason)
	if e.Err != nil {
		msg += fmt.Sprintf(": %v", e.Err)
	}
	if e.Key != "" {
		msg += fmt.Sprintf(" (in %q)", e.Key)
	}
	return msg
}

func (e *DecodeError) Unwrap() error { return e.Err }

// envelope is the on-disk frame shared by every codec file.
type envelope struct {
	Format  string          `json:"format"`
	Version int             `json:"version"`
	Payload json.RawMessage `json:"payload"`
}

// EncodeFile writes payload inside a versioned envelope with the given
// format tag. It is shared by the engine's own records and by callers
// framing their payloads the same way (the experiment lease manifests).
func EncodeFile(w io.Writer, format string, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("sweep: encode %s payload: %w", format, err)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(envelope{Format: format, Version: codecVersion, Payload: raw}); err != nil {
		return fmt.Errorf("sweep: encode %s: %w", format, err)
	}
	return nil
}

// DecodeFile reads one envelope from r, checks its format tag and version,
// and unmarshals the payload into out. All failures are *DecodeError.
func DecodeFile(r io.Reader, format string, out any) error {
	var env envelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return &DecodeError{Format: format, Reason: "malformed envelope", Err: err}
	}
	if env.Format != format {
		return &DecodeError{Format: format, Reason: fmt.Sprintf("file is %q, not %q", env.Format, format)}
	}
	if env.Version != codecVersion {
		return &DecodeError{Format: format,
			Reason: fmt.Sprintf("unsupported version %d (this build reads %d)", env.Version, codecVersion)}
	}
	if err := json.Unmarshal(env.Payload, out); err != nil {
		return &DecodeError{Format: format, Reason: "malformed payload", Err: err}
	}
	return nil
}

// EncodeResult serializes a Result for another process to decode.
func EncodeResult(w io.Writer, res *Result) error {
	return EncodeFile(w, FormatResult, res)
}

// DecodeResult reads a Result written by EncodeResult and validates the
// aggregate invariants; failures are *DecodeError, never a panic.
func DecodeResult(r io.Reader) (*Result, error) {
	res := &Result{}
	if err := DecodeFile(r, FormatResult, res); err != nil {
		return nil, err
	}
	if err := validateSizes(res.Sizes, FormatResult); err != nil {
		return nil, err
	}
	return res, nil
}

// validateSizes rejects decoded aggregates that violate invariants no run
// can produce — a fold of such a payload would corrupt a merge silently.
func validateSizes(sizes []SizeStats, format string) error {
	for i, s := range sizes {
		reject := func(reason string) error {
			return &DecodeError{Format: format, Reason: fmt.Sprintf("size %d: %s", i, reason)}
		}
		if s.Trials < 0 || s.Failures < 0 || s.Failures > s.Trials {
			return reject(fmt.Sprintf("impossible trial counts (trials=%d failures=%d)", s.Trials, s.Failures))
		}
		if s.TotalSum < 0 || s.TotalMax < 0 {
			return reject("negative radius totals")
		}
		if s.Trials > 0 && (s.WorstAvgTrial < 0 || s.WorstMaxTrial < 0 || s.BestAvgTrial < 0) {
			return reject("negative extremal trial index")
		}
		for r, c := range s.Hist {
			if c < 0 {
				return reject(fmt.Sprintf("negative histogram count at radius %d", r))
			}
		}
	}
	return nil
}
