package sweep

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
)

// FuzzDecodeLease is the lease record's robustness contract: forged,
// truncated or bit-flipped claim records must either decode cleanly or
// fail with the codec's typed *DecodeError — never panic — and anything
// that decodes must round-trip losslessly. (A replayed stale-but-valid
// record decodes fine by design; the protocol neutralises it with the
// PlanSum check and the Seq fencing token, not the codec.)
func FuzzDecodeLease(f *testing.F) {
	l := &Lease{PlanSum: 0xfeed, Worker: "w0", SizeIdx: 1, T0: 8, T1: 24, Next: 16, Beat: 5, Seq: 3}
	var buf bytes.Buffer
	if err := EncodeLease(&buf, l); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-envelope
	f.Add([]byte(`{"format":"sweep.lease","version":3,"payload":{}}`))
	f.Add([]byte(`{"format":"sweep.lease","version":3,"payload":{"worker":"w","t0":4,"t1":2,"next":3}}`))
	f.Add([]byte(`{"format":"sweep.lease","version":3,"payload":{"worker":"w","t0":0,"t1":4,"next":9}}`))
	f.Add([]byte(`{"format":"sweep.lease","version":3,"payload":{}}`))
	f.Add([]byte(`{"format":"sweep.completion","version":3,"payload":{}}`))
	f.Add(bytes.Replace(valid, []byte(`"next"`), []byte(`"nxet"`), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := DecodeLease(bytes.NewReader(data))
		if err != nil {
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("rejection is not a typed *DecodeError: %v", err)
			}
			return
		}
		var out bytes.Buffer
		if err := EncodeLease(&out, l); err != nil {
			t.Fatalf("decoded lease failed to re-encode: %v", err)
		}
		again, err := DecodeLease(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded lease failed to decode: %v", err)
		}
		if !reflect.DeepEqual(l, again) {
			t.Fatalf("lease round trip not lossless\nfirst:  %+v\nsecond: %+v", l, again)
		}
	})
}

// FuzzDecodeCompletion: same contract for the per-grain completion record,
// whose payload additionally carries an aggregate that must satisfy the
// size invariants and cover exactly the block's trials.
func FuzzDecodeCompletion(f *testing.F) {
	c := &Completion{PlanSum: 0xbeef, Worker: "w1",
		Block: Block{SizeIdx: 0, T0: 4, T1: 8},
		Stats: SizeStats{N: 9, Trials: 4}}
	var buf bytes.Buffer
	if err := EncodeCompletion(&buf, c); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)*2/3]) // torn write
	f.Add([]byte(`{"format":"sweep.completion","version":3,"payload":{}}`))
	f.Add([]byte(`{"format":"sweep.completion","version":3,"payload":{"block":{"size":0,"t0":0,"t1":4},"stats":{"n":5,"trials":3}}}`))
	f.Add([]byte(`{"format":"sweep.completion","version":3,"payload":{"block":{"size":0,"t0":0,"t1":4},"stats":{"n":5,"trials":4,"failures":7}}}`))
	f.Add([]byte(`{"format":"sweep.lease","version":3,"payload":{}}`))
	f.Add(bytes.Replace(valid, []byte(`"trials"`), []byte(`"trails"`), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCompletion(bytes.NewReader(data))
		if err != nil {
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("rejection is not a typed *DecodeError: %v", err)
			}
			return
		}
		var out bytes.Buffer
		if err := EncodeCompletion(&out, c); err != nil {
			t.Fatalf("decoded completion failed to re-encode: %v", err)
		}
		again, err := DecodeCompletion(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded completion failed to decode: %v", err)
		}
		if !reflect.DeepEqual(c, again) {
			t.Fatalf("completion round trip not lossless\nfirst:  %+v\nsecond: %+v", c, again)
		}
	})
}

// FuzzDecodeCheckpoint: a run's completion records are its checkpoint, and
// a collect decodes them back from a store any executor may have written
// to. Whatever bytes sit in place of one record, CollectLeased must never
// panic; it fails only with the typed *IncompleteError or *OverlapError,
// and a collect that succeeds counts every trial exactly once.
func FuzzDecodeCheckpoint(f *testing.F) {
	spec := cycleSpec(5, []int{8}, 8, 1)
	plan := mustPlanOf(spec)
	base := NewMemStore()
	if _, err := RunLeased(context.Background(), spec, base, LeaseOptions{Worker: "w", GrainsPerSize: 2}); err != nil {
		f.Fatal(err)
	}
	names, err := base.List("leaserun/")
	if err != nil {
		f.Fatal(err)
	}
	objects := make(map[string][]byte, len(names))
	for _, name := range names {
		if objects[name], err = base.Get(name); err != nil {
			f.Fatal(err)
		}
	}
	const hole = "leaserun/done/0-4"
	valid := objects[hole]
	if valid == nil {
		f.Fatalf("finished run holds no record %s: %v", hole, names)
	}
	overlap := &Completion{PlanSum: planSum(plan), Worker: "forger",
		Block: Block{SizeIdx: 0, T0: 2, T1: 6},
		Stats: SizeStats{N: 8, Trials: 4}}
	var buf bytes.Buffer
	if err := EncodeCompletion(&buf, overlap); err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // torn write
	f.Add(buf.Bytes())          // valid record overlapping its neighbour
	f.Fuzz(func(t *testing.T, data []byte) {
		st := NewMemStore()
		for name, obj := range objects {
			if err := st.Put(name, obj); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Put(hole, data); err != nil {
			t.Fatal(err)
		}
		res, err := CollectLeased(st, "leaserun", plan)
		if err != nil {
			var inc *IncompleteError
			var ov *OverlapError
			if !errors.As(err, &inc) && !errors.As(err, &ov) {
				t.Fatalf("collect failure is neither *IncompleteError nor *OverlapError: %v", err)
			}
			return
		}
		if s := res.Sizes[0]; s.N != 8 || s.Trials != 8 {
			t.Fatalf("collect succeeded with n=%d over %d trials, want n=8 over 8", s.N, s.Trials)
		}
	})
}
