package hypercube

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// tinyCheckpoint builds the smallest interesting snapshot: a 2×2×6
// grid, non-trivial counters, a few residuals.
func tinyCheckpoint() *Checkpoint {
	words := 2 * 2 * 6 // N·N·Nz
	grid := func(seed float64) []float64 {
		g := make([]float64, words)
		for i := range g {
			g[i] = seed + float64(i)*0.5
		}
		return g
	}
	ck := &Checkpoint{
		Sweep: 3, Topology: "hypercube", N: 2, Nz: 6,
		Residuals:     []float64{1.5, 0.75, 0.25},
		MachineCycles: 1000, CommCycles: 200,
		FaultFired: []int64{1, 0},
		U:          grid(0), V: grid(100),
	}
	ck.Faults.Kills = 2
	ck.Traps.ECCCorrected = 5
	ck.PlanCache.Hits = 7
	return ck
}

// TestCheckpointDetectsEveryBitFlip is the integrity acceptance test:
// flipping ANY single bit of a serialized checkpoint must make the
// restore fail — no flip may silently restore garbage.
func TestCheckpointDetectsEveryBitFlip(t *testing.T) {
	var buf bytes.Buffer
	if _, err := tinyCheckpoint().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	if _, err := ReadCheckpoint(bytes.NewReader(orig)); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
	flipped := make([]byte, len(orig))
	for bit := 0; bit < len(orig)*8; bit++ {
		copy(flipped, orig)
		flipped[bit/8] ^= 1 << uint(bit%8)
		if _, err := ReadCheckpoint(bytes.NewReader(flipped)); err == nil {
			t.Fatalf("flip of bit %d (byte %d) restored silently", bit, bit/8)
		}
	}
}

// TestCheckpointDetectsTruncation: every proper prefix must fail.
func TestCheckpointDetectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := tinyCheckpoint().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for n := 0; n < len(orig); n++ {
		if _, err := ReadCheckpoint(bytes.NewReader(orig[:n])); err == nil {
			t.Fatalf("truncation to %d of %d bytes restored silently", n, len(orig))
		}
	}
}

// TestVerifyCheckpoint: ReadCheckpoint, the one reader, accepts a
// pristine file and rejects every other with an R042 diagnostic:
// trailing bytes, a corrupt section (naming it and its offset) and a
// file of an earlier version (naming its magic and the current one).
func TestVerifyCheckpoint(t *testing.T) {
	ck := tinyCheckpoint()
	var buf bytes.Buffer
	if _, err := ck.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	pristine := append([]byte(nil), buf.Bytes()...)

	got, err := ReadCheckpoint(bytes.NewReader(pristine))
	if err != nil {
		t.Fatalf("pristine checkpoint failed verification: %v", err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Error("verification altered the snapshot")
	}

	reject := func(what string, data []byte, frags ...string) {
		t.Helper()
		_, err := ReadCheckpoint(bytes.NewReader(data))
		if !isCheckpointDiag(err) {
			t.Fatalf("%s: got %v, want an R042 rejection", what, err)
		}
		for _, frag := range frags {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("%s: error %q does not name %q", what, err, frag)
			}
		}
	}
	// A checkpoint is a whole file: bytes after the last section are
	// an error.
	reject("trailing data", append(append([]byte(nil), pristine...), 0xAB), "trailing")

	// Corruption errors name the section and the offset.
	corrupt := append([]byte(nil), pristine...)
	corrupt[len(corrupt)-6] ^= 0x10 // inside the v image
	reject("corrupt section", corrupt, "v image", "corrupt at offset", "crc")

	old := append([]byte(nil), pristine...)
	old[len(checkpointMagic)-1] = '3'
	reject("earlier version", old, string(old[:len(checkpointMagic)]), checkpointMagic)
}

// TestVerifyCheckpointFile: LoadCheckpointFile, the reader behind
// nscsim -verify-checkpoint, accepts a saved file and rejects one with
// a byte appended and a missing one, each with an R042 diagnostic.
func TestVerifyCheckpointFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "solve.ckpt")
	if err := SaveCheckpointFile(path, tinyCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpointFile(path); err != nil {
		t.Errorf("saved file failed verification: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpointFile(path); !isCheckpointDiag(err) {
		t.Errorf("file with a byte appended: got %v, want an R042 rejection", err)
	}
	if _, err := LoadCheckpointFile(filepath.Join(t.TempDir(), "missing")); !isCheckpointDiag(err) {
		t.Errorf("missing file: got %v, want an R042 rejection", err)
	}
}

// TestReadCheckpointAllocatesWhatTheFileHolds: a forged header with
// valid checksums that declares a 256×256×130 grid and carries no
// image fails as truncated without allocating the 68 MB each of its
// images would take.
func TestReadCheckpointAllocatesWhatTheFileHolds(t *testing.T) {
	ck := tinyCheckpoint()
	ck.N, ck.Nz = 256, 130
	ck.U, ck.V = nil, nil
	var buf bytes.Buffer
	if _, err := ck.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	forged := buf.Bytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadCheckpoint(bytes.NewReader(forged))
	runtime.ReadMemStats(&after)
	if !isCheckpointDiag(err) || !strings.Contains(err.Error(), `"u image" truncated`) {
		t.Fatalf("forged %d-byte header: got %v, want the u image truncated", len(forged), err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc >= 1<<20 {
		t.Errorf("reading a %d-byte file allocated %d bytes, want under 1 MB", len(forged), alloc)
	}
	t.Logf("read a %d-byte forged file with %d bytes allocated", len(forged), alloc)
}

// FuzzCheckpointRestore hammers the restore path: arbitrary bytes must
// never panic, every rejection is an R042 diagnostic, and any stream
// that parses must re-serialize to a stream that parses to the same
// snapshot.
func FuzzCheckpointRestore(f *testing.F) {
	var seed bytes.Buffer
	if _, err := tinyCheckpoint().WriteTo(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(checkpointMagic))
	f.Add([]byte("NSCCKPT1 old format"))
	f.Add([]byte{})
	f.Add(append([]byte("NSCCKPT2"), seed.Bytes()[len(checkpointMagic):]...))
	f.Add(append([]byte("NSCCKPT3"), seed.Bytes()[len(checkpointMagic):]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			if !isCheckpointDiag(err) {
				t.Fatalf("rejection is not an R042 diagnostic: %v", err)
			}
			return
		}
		var out bytes.Buffer
		if _, err := ck.WriteTo(&out); err != nil {
			t.Fatalf("parsed checkpoint failed to re-serialize: %v", err)
		}
		back, err := ReadCheckpoint(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-serialized checkpoint failed to parse: %v", err)
		}
		if !reflect.DeepEqual(back, ck) {
			t.Fatal("checkpoint round trip not stable")
		}
	})
}
