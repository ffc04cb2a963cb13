package hypercube

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/jacobi"
)

// captureUnevenCheckpoint shrinks a 4-node machine down to 3 by killing
// a rank permanently, then keeps the first snapshot taken on the
// shrunk ring: the uneven decomposition (8 interior planes over 3
// ranks).
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
		if keep == nil && m.P() == 3 {
			keep = ck
		}
		return nil
	}
	if _, err := m.SolveJacobi(parallelProblem(m.P())); err != nil {
		t.Fatal(err)
	}
	if keep == nil {
		t.Fatal("shrink solve produced no checkpoint on the shrunk ring")
	}
	return keep
}

// TestUnevenCheckpointRoundTrip: a snapshot of a shrunk (uneven)
// machine holds the same two global images as any other and round
// trips bit-exactly through the one file format.
func TestUnevenCheckpointRoundTrip(t *testing.T) {
	ck := captureUnevenCheckpoint(t)
	if words := ck.N * ck.N * ck.Nz; len(ck.U) != words || len(ck.V) != words {
		t.Fatalf("uneven snapshot images hold %d/%d words, want %d", len(ck.U), len(ck.V), words)
	}
	var buf bytes.Buffer
	if _, err := ck.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, ck)
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
		if buf.Len() == 0 && m.P() == 7 {
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
	if ck.Sweep != 8 {
		t.Fatalf("first checkpoint of the 7-rank ring is at sweep %d, want 8", ck.Sweep)
	}

	fresh := machineOn(t, "torus2d", 3, 16)
	fresh.Restore = ck
	got, err := fresh.SolveJacobi(parallelProblem(fresh.P()))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolve(t, got, want)
}

// TestCheckpointRestoresOnAnyRing: a checkpoint holds global images,
// not per-rank slabs, so a sweep-4 checkpoint of an 8-rank hypercube
// solve restores on a fresh 4-rank hypercube solving the same 8×8×18
// grid, and the resumed solve equals the clean 4-rank solve bit for
// bit.
func TestCheckpointRestoresOnAnyRing(t *testing.T) {
	grid := func() *jacobi.Problem { return parallelProblem(8) }
	want, err := machineOn(t, "hypercube", 2, 12).SolveJacobi(grid())
	if err != nil {
		t.Fatal(err)
	}

	wide := machineOn(t, "hypercube", 3, 12)
	wide.CheckpointEvery = 4
	var buf bytes.Buffer
	wide.CheckpointSink = func(ck *Checkpoint) error {
		if ck.Sweep != 4 {
			return nil
		}
		_, err := ck.WriteTo(&buf)
		return err
	}
	if _, err := wide.SolveJacobi(grid()); err != nil {
		t.Fatal(err)
	}
	ck, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}

	narrow := machineOn(t, "hypercube", 2, 12)
	narrow.Restore = ck
	got, err := narrow.SolveJacobi(grid())
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolve(t, got, want)
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
	if got, err := LoadCheckpointFile(path); err != nil || !reflect.DeepEqual(got, next) {
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
