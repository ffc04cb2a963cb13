package hypercube

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
)

// captureUnevenCheckpoint shrinks a 4-node machine down to 3 by killing
// a rank permanently, then keeps the first post-recovery snapshot — the
// uneven decomposition (8 interior planes over 3 ranks) that forces the
// version-3 format.
func captureUnevenCheckpoint(t *testing.T) *Checkpoint {
	t.Helper()
	m, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Faults = killPlan(t, [2]int{3, 1})
	m.CheckpointEvery = 2
	var keep *Checkpoint
	m.CheckpointSink = func(ck *Checkpoint) error {
		if keep == nil && ck.Planes != nil {
			keep = ck
		}
		return nil
	}
	if _, err := m.SolveJacobi(parallelProblem(m.P())); err != nil {
		t.Fatal(err)
	}
	if keep == nil {
		t.Fatal("shrink solve produced no uneven checkpoint")
	}
	return keep
}

// TestUnevenCheckpointRoundTrip: snapshots of a shrunk (uneven) machine
// serialize as version 3, carry the per-rank plane counts, and round
// trip bit-exactly — while uniform snapshots keep writing version 2,
// byte-compatible with every pre-existing file.
func TestUnevenCheckpointRoundTrip(t *testing.T) {
	ck := captureUnevenCheckpoint(t)
	if ck.Slab != 0 || len(ck.Planes) != 3 {
		t.Fatalf("uneven snapshot shape: slab=%d planes=%v", ck.Slab, ck.Planes)
	}
	var buf bytes.Buffer
	if _, err := ck.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(checkpointMagicV3)) {
		t.Fatalf("uneven snapshot magic %q, want %q", buf.Bytes()[:8], checkpointMagicV3)
	}
	got, err := VerifyCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Errorf("v3 round trip mismatch:\n got %+v\nwant %+v", got, ck)
	}

	uniform, _ := captureCheckpoint(t, 2, 4)
	buf.Reset()
	if _, err := uniform.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(checkpointMagic)) {
		t.Fatalf("uniform snapshot magic %q, want %q", buf.Bytes()[:8], checkpointMagic)
	}
}

// TestUnevenCheckpointRestoresOnFullRing: a file written on a torus that
// a permanent kill shrank to 7 ranks restores on a fresh 8-rank torus,
// and the resumed solve's grid and residual series equal the clean
// solve's bit for bit.
func TestUnevenCheckpointRestoresOnFullRing(t *testing.T) {
	clean := machineOn(t, "torus2d", 3, 16)
	want, err := clean.SolveJacobi(parallelProblem(clean.P()))
	if err != nil {
		t.Fatal(err)
	}

	m := machineOn(t, "torus2d", 3, 16)
	m.CheckpointEvery = 4
	if m.Faults, err = engine.ParseFaultPlan("dispatch:kill-forever@6:3,dispatch:kill@9:0:repeat=4"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	m.CheckpointSink = func(ck *Checkpoint) error {
		if buf.Len() == 0 && ck.Planes != nil {
			_, err := ck.WriteTo(&buf)
			return err
		}
		return nil
	}
	if _, err := m.SolveJacobi(parallelProblem(m.P())); err != nil {
		t.Fatal(err)
	}
	ck, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ck.P != 7 || ck.Sweep != 8 {
		t.Fatalf("first uneven checkpoint has P=%d at sweep %d, want P=7 at sweep 8", ck.P, ck.Sweep)
	}

	fresh := machineOn(t, "torus2d", 3, 16)
	fresh.Restore = ck
	got, err := fresh.SolveJacobi(parallelProblem(fresh.P()))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolve(t, got, want)
}

// TestV3RejectsBadPlanes: the reader refuses plane-count sections that
// contradict the header before it touches a single grid word.
func TestV3RejectsBadPlanes(t *testing.T) {
	ck := captureUnevenCheckpoint(t)
	render := func() []byte {
		var buf bytes.Buffer
		if _, err := ck.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	orig := append([]int(nil), ck.Planes...)
	ck.Planes[0]++ // sum no longer matches Nz-2
	if _, err := ReadCheckpoint(bytes.NewReader(render())); err == nil ||
		!strings.Contains(err.Error(), "sum") {
		t.Errorf("wrong plane sum: %v", err)
	}

	copy(ck.Planes, orig)
	ck.Planes[1] += ck.Planes[0]
	ck.Planes[0] = 0 // sum intact, but a rank owning nothing is invalid
	if _, err := ReadCheckpoint(bytes.NewReader(render())); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Errorf("zero plane count: %v", err)
	}
}

// TestSaveCheckpointCrashSafe simulates a process killed at arbitrary
// points while replacing an existing checkpoint: whatever prefix of the
// new snapshot made it to the temp file, the destination still loads
// the old snapshot intact, and the torn prefix itself never parses.
func TestSaveCheckpointCrashSafe(t *testing.T) {
	old, _ := captureCheckpoint(t, 3, 3)
	next, _ := captureCheckpoint(t, 3, 6)
	dir := t.TempDir()
	path := filepath.Join(dir, "solve.ckpt")
	if err := SaveCheckpointFile(path, old); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := next.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, n := range []int{0, 1, 8, len(full) / 3, len(full) - 1} {
		// Death before the rename: the partial bytes sit in a temp file,
		// exactly as SaveCheckpointFile would have left them.
		tmp, err := os.CreateTemp(dir, ".ckpt-*")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tmp.Write(full[:n]); err != nil {
			t.Fatal(err)
		}
		tmp.Close()

		got, err := LoadCheckpointFile(path)
		if err != nil {
			t.Fatalf("prefix %d: destination unreadable after simulated crash: %v", n, err)
		}
		if !reflect.DeepEqual(got, old) {
			t.Fatalf("prefix %d: destination no longer holds the old snapshot", n)
		}
		if _, err := ReadCheckpoint(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("torn %d-byte prefix parsed as a checkpoint", n)
		}
	}

	// The completed save replaces the file atomically.
	if err := SaveCheckpointFile(path, next); err != nil {
		t.Fatal(err)
	}
	if got, err := VerifyCheckpointFile(path); err != nil || !reflect.DeepEqual(got, next) {
		t.Fatalf("completed save: %v", err)
	}
}

// TestSaveCheckpointCleansUpOnFailure: a save that cannot complete (the
// destination is a directory, so the rename fails) reports the error
// and leaves no temp files behind.
func TestSaveCheckpointCleansUpOnFailure(t *testing.T) {
	ck, _ := captureCheckpoint(t, 3, 3)
	dir := t.TempDir()
	target := filepath.Join(dir, "occupied")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpointFile(target, ck); err == nil {
		t.Fatal("rename onto a directory succeeded")
	}
	orphans, err := filepath.Glob(filepath.Join(dir, ".ckpt-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 0 {
		t.Errorf("failed save left temp files: %v", orphans)
	}
}
