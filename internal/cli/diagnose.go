// Package cli is the error-reporting discipline avgbench and sweepmerge
// share: typed sweep failures are printed as a readable cause chain with
// the offending store key or file, and the process exit code tells scripts
// WHAT failed — an incomplete run a retry can finish (exit 2) versus
// corrupt data no retry will fix (exit 3) versus everything else (exit 1).
package cli

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/sweep"
)

// Exit codes scripts can branch on. A wrapper that sees ExitIncomplete can
// start another executor or simply re-run the merge later; ExitCorrupt
// means a human must look at the named record before anything is merged.
const (
	// ExitFailure is any failure without a more specific diagnosis.
	ExitFailure = 1
	// ExitIncomplete marks a recoverable state: the run's trial space is
	// not yet fully covered (*sweep.IncompleteError).
	ExitIncomplete = 2
	// ExitCorrupt marks data no retry will fix: overlapping trial-range
	// claims (*sweep.OverlapError) or records that fail decoding
	// (*sweep.DecodeError).
	ExitCorrupt = 3
)

// Report prints err to w as "tool: err" plus its unwrap chain and a typed
// diagnosis line, and returns the exit code for the failure class.
func Report(w io.Writer, tool string, err error) int {
	fmt.Fprintf(w, "%s: %v\n", tool, err)
	for cause := errors.Unwrap(err); cause != nil; cause = errors.Unwrap(cause) {
		fmt.Fprintf(w, "%s:   caused by: %v\n", tool, cause)
	}

	var inc *sweep.IncompleteError
	var ov *sweep.OverlapError
	var dec *sweep.DecodeError
	var quo *sweep.QuotientUnsupportedError
	var conf *sweep.SpecConflictError
	switch {
	case errors.As(err, &quo):
		fmt.Fprintf(w, "%s: diagnosis: configuration — symmetry-quotient enumeration needs a graph family declaring its automorphism group, and %s (n=%d) declines", tool, quo.Graph, quo.N)
		if len(quo.Qualifying) > 0 {
			fmt.Fprintf(w, "; qualifying families: %s", strings.Join(quo.Qualifying, ", "))
		}
		fmt.Fprintf(w, "; pick one of them or drop -quotient (exit %d)\n", ExitFailure)
		return ExitFailure
	case errors.As(err, &conf):
		fmt.Fprintf(w, "%s: diagnosis: configuration — conflicting sweep options %s: %s (exit %d)\n",
			tool, strings.Join(conf.Fields, " and "), conf.Reason, ExitFailure)
		return ExitFailure
	case errors.As(err, &inc):
		fmt.Fprintf(w, "%s: diagnosis: incomplete run — coverage has gaps at n=%d", tool, inc.N)
		if inc.Prefix != "" {
			fmt.Fprintf(w, " under %q", inc.Prefix)
		}
		fmt.Fprintf(w, "; recoverable: finish or restart the executors, then merge again (exit %d)\n", ExitIncomplete)
		return ExitIncomplete
	case errors.As(err, &ov):
		fmt.Fprintf(w, "%s: diagnosis: corrupt data — overlapping trial-range claims at n=%d would double-count", tool, ov.N)
		if ov.Key != "" {
			fmt.Fprintf(w, "; inspect store record %q", ov.Key)
		}
		fmt.Fprintf(w, " (exit %d)\n", ExitCorrupt)
		return ExitCorrupt
	case errors.As(err, &dec):
		fmt.Fprintf(w, "%s: diagnosis: corrupt data — %s record failed decoding", tool, dec.Format)
		if dec.Key != "" {
			fmt.Fprintf(w, "; inspect %q", dec.Key)
		}
		fmt.Fprintf(w, " (exit %d)\n", ExitCorrupt)
		return ExitCorrupt
	}
	return ExitFailure
}
