package hypercube

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
)

// captureCheckpoint runs a solve with CheckpointEvery=every and keeps
// the snapshot taken at the given sweep.
func captureCheckpoint(t *testing.T, every, sweep int) (*Checkpoint, *JacobiResult) {
	t.Helper()
	m, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m.CheckpointEvery = every
	var keep *Checkpoint
	m.CheckpointSink = func(ck *Checkpoint) error {
		if ck.Sweep == sweep {
			keep = ck
		}
		return nil
	}
	res, err := m.SolveJacobi(parallelProblem(m.P()))
	if err != nil {
		t.Fatal(err)
	}
	if keep == nil {
		t.Fatalf("no checkpoint at sweep %d (solve ran %d iterations)", sweep, res.Iterations)
	}
	return keep, res
}

func TestCheckpointSerializationRoundTrip(t *testing.T) {
	ck, _ := captureCheckpoint(t, 2, 4)
	ck.FaultFired = []int64{3, 0, 1} // exercise the counter block too
	ck.Faults.Checkpoints = 3

	var buf bytes.Buffer
	n, err := ck.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, ck)
	}
}

func TestCheckpointFileSaveLoad(t *testing.T) {
	ck, _ := captureCheckpoint(t, 3, 3)
	path := filepath.Join(t.TempDir(), "solve.ckpt")
	if err := SaveCheckpointFile(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Error("file round trip mismatch")
	}
	if _, err := LoadCheckpointFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file loaded")
	}
}

func TestReadCheckpointRejectsGarbage(t *testing.T) {
	if _, err := ReadCheckpoint(strings.NewReader("not a checkpoint at all")); err == nil {
		t.Error("garbage magic accepted")
	}
	if _, err := ReadCheckpoint(strings.NewReader(checkpointMagic)); err == nil {
		t.Error("truncated header accepted")
	}
	// Valid magic, insane header.
	var buf bytes.Buffer
	buf.WriteString(checkpointMagic)
	for i := 0; i < 32; i++ {
		buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	}
	if _, err := ReadCheckpoint(&buf); err == nil {
		t.Error("out-of-range header accepted")
	}
}

// TestRestoreResumesBitIdentical is the tentpole guarantee: a fresh
// machine restored from a mid-solve snapshot (round-tripped through
// the on-disk format) finishes with grids, residual history and even
// machine clocks bit-identical to the uninterrupted run.
func TestRestoreResumesBitIdentical(t *testing.T) {
	ck, fullRes := captureCheckpoint(t, 3, 6)
	if fullRes.Iterations <= 6 {
		t.Fatalf("solve too short (%d iterations) for a sweep-6 restart", fullRes.Iterations)
	}

	// Round-trip through the wire format, then resume in a new machine
	// — the cross-process restart path.
	var buf bytes.Buffer
	if _, err := ck.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, -1} {
		m, err := New(smallCfg(), 2)
		if err != nil {
			t.Fatal(err)
		}
		m.Workers = workers
		m.Restore = loaded
		res, err := m.SolveJacobi(parallelProblem(m.P()))
		if err != nil {
			t.Fatal(err)
		}
		assertSameSolve(t, res, fullRes)
		if m.MachineCycles == 0 || res.Cycles != fullRes.Cycles {
			t.Errorf("workers=%d: resumed clock %d, uninterrupted %d", workers, res.Cycles, fullRes.Cycles)
		}
	}
}

// TestRestoreCarriesFaultState: a restored run resumes the fault
// plan's firing counters (no re-suffering) and reports the snapshot's
// counters plus its own.
func TestRestoreCarriesFaultState(t *testing.T) {
	plan := engine.MustFaultPlan(
		engine.FaultEvent{Sweep: 1, Phase: engine.PhaseDispatch, Rank: 0, Kind: engine.FaultKill, Repeat: 2},
		engine.FaultEvent{Sweep: 8, Phase: engine.PhaseExchange, Rank: 1, Kind: engine.FaultKill, Repeat: 1},
	)
	m, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Faults = plan
	m.CheckpointEvery = 4
	var keep *Checkpoint
	m.CheckpointSink = func(ck *Checkpoint) error {
		if ck.Sweep == 4 {
			keep = ck
		}
		return nil
	}
	fullRes, err := m.SolveJacobi(parallelProblem(m.P()))
	if err != nil {
		t.Fatal(err)
	}
	if keep == nil {
		t.Fatal("no sweep-4 checkpoint")
	}
	if keep.Faults.Kills != 2 {
		t.Fatalf("snapshot counters %+v, want the 2 sweep-1 kills", keep.Faults)
	}

	m2, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m2.Faults = engine.MustFaultPlan(plan.Events...) // fresh plan, counters zero
	m2.Restore = keep
	res, err := m2.SolveJacobi(parallelProblem(m2.P()))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolve(t, res, fullRes)
	if res.Faults.Kills != fullRes.Faults.Kills {
		t.Errorf("resumed kills %d, uninterrupted %d", res.Faults.Kills, fullRes.Faults.Kills)
	}
	// The sweep-1 fault predates the snapshot: the resumed run must not
	// re-suffer it, only the sweep-8 one.
	if m2.FaultCounters.Kills != 1 {
		t.Errorf("resumed machine suffered %d kills, want 1 (the post-snapshot fault)", m2.FaultCounters.Kills)
	}
}

func TestRestoreRejectsShapeMismatch(t *testing.T) {
	ck, _ := captureCheckpoint(t, 2, 2)
	ck.N = 16 // wrong shape
	m, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Restore = ck
	if _, err := m.SolveJacobi(parallelProblem(m.P())); err == nil {
		t.Error("shape-mismatched restore accepted")
	}
}

func TestCheckpointCompatible(t *testing.T) {
	mustPart := func(p, n, nz int) *engine.Partition {
		t.Helper()
		pt, err := engine.NewPartition(p, n, nz)
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	ck := &Checkpoint{P: 2, N: 4, Nz: 6, Slab: 2,
		U: [][]float64{make([]float64, 64), make([]float64, 64)},
		V: [][]float64{make([]float64, 64), make([]float64, 64)}}
	if err := ck.compatible(mustPart(2, 4, 6)); err != nil {
		t.Errorf("matching shape rejected: %v", err)
	}
	if err := ck.compatible(mustPart(4, 4, 6)); err == nil {
		t.Error("wrong P accepted")
	}
	ck.U[1] = ck.U[1][:10]
	if err := ck.compatible(mustPart(2, 4, 6)); err == nil {
		t.Error("short grid accepted")
	}
}
