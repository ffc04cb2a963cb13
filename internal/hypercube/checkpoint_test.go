package hypercube

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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
	if err := ck.compatible(mustPart(2, 8, 6)); err == nil {
		t.Error("wrong N accepted")
	}
	if err := ck.compatible(mustPart(2, 4, 10)); err == nil {
		t.Error("wrong Nz accepted")
	}
	// The file's images cut onto any partition of the same grid.
	if err := ck.compatible(mustPart(4, 4, 6)); err != nil {
		t.Errorf("another P over the same grid rejected: %v", err)
	}
	ck.U[1] = ck.U[1][:10]
	if err := ck.compatible(mustPart(2, 4, 6)); err == nil {
		t.Error("short grid accepted")
	}
}

// TestCheckpointBytes pins every snapshot a solve hands its sink — how
// many, and a SHA-256 over their serialized bytes in order — with the
// solve's final machine and comm clocks, on the three fabrics and on
// each path that restores a snapshot: a recovery whose buddy mirror
// died, a rollback on a ring a shrink left uneven, seeded rollbacks, a
// rollback between a mirror recovery and the next checkpoint (it
// resumes at the recovery's boundary), and a spare activation. Each
// row holds at every worker count.
func TestCheckpointBytes(t *testing.T) {
	for _, tc := range []struct {
		name, topology     string
		dim, sweeps, every int
		spares             int
		faults             string
		snaps              int
		sha                string
		machine, comm      int64
	}{
		{"hypercube", "hypercube", 2, 12, 3, 0, "", 4, "d6ede90311af4828303f50c984aab561317cf8163c27913959d39437e5d5c7ec", 7656, 4968},
		{"mesh2d", "mesh2d", 3, 12, 3, 0, "", 4, "242b12faa392389a9b21871961bc97a25479618da181e24e53ccaa2f377e4b4e", 8148, 11796},
		{"torus2d", "torus2d", 3, 12, 3, 0, "", 4, "5918c9e57123c9a81bfea39a0e0ee8e08297003004282cdb0e6a66f6cd7cfd05", 7956, 11604},
		{"checkpoint-source", "hypercube", 2, 12, 2, 0,
			"dispatch:kill-forever@5:1,dispatch:kill-forever@5:2", 6,
			"dd17cd9b5b1fc543b8c07f175172cfb4c162f7ff00b7c01810c44d05b8e5a28c", 10522, 4106},
		{"shrink-then-rollback", "torus2d", 3, 16, 4, 0,
			"dispatch:kill-forever@6:3,dispatch:kill@9:0:repeat=4", 4,
			"c30214eaced50edcf711d61acc80b3344d2a9f4b6fa3f2cc07458726e4d6c724", 14486, 19406},
		{"seeded-rollbacks", "hypercube", 2, 20, 3, 0,
			"seed@7:sweeps=12:ranks=4:events=6", 7,
			"25309878cf46f97ae6b17502c73cc0a40adeeeb0a48ed5db6e8fa7332615399c", 13176, 8824},
		{"mirror-then-rollback", "hypercube", 2, 12, 4, 0,
			"dispatch:kill-forever@6:1,dispatch:kill@7:0:repeat=4", 3,
			"8defb594314ca4312fcd827f08517b7eaabb27625dfa153cbd3f6d58808ba762", 10610, 5826},
		{"spare", "hypercube", 2, 12, 2, 1, "dispatch:kill-forever@3:1", 6,
			"01390384d93d3bdf20bbf57d1f647ff5cd4437e76cfd3eea115bdfc71bce9d04", 8664, 5488},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers%d", tc.name, workers), func(t *testing.T) {
				m := machineOn(t, tc.topology, tc.dim, tc.sweeps)
				m.Workers = workers
				m.CheckpointEvery = tc.every
				if tc.faults != "" {
					plan, err := engine.ParseFaultPlan(tc.faults)
					if err != nil {
						t.Fatal(err)
					}
					m.Faults = plan
				}
				if err := m.AddSpares(tc.spares); err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				snaps := 0
				m.CheckpointSink = func(ck *Checkpoint) error {
					snaps++
					_, err := ck.WriteTo(h)
					return err
				}
				if _, err := m.SolveJacobi(parallelProblem(m.P())); err != nil {
					t.Fatal(err)
				}
				sum := hex.EncodeToString(h.Sum(nil))
				if snaps != tc.snaps || sum != tc.sha {
					t.Errorf("%d snapshots hashing %s, want %d hashing %s", snaps, sum, tc.snaps, tc.sha)
				}
				if m.MachineCycles != tc.machine || m.CommCycles != tc.comm {
					t.Errorf("machine/comm cycles %d/%d, want %d/%d",
						m.MachineCycles, m.CommCycles, tc.machine, tc.comm)
				}
			})
		}
	}
}

// TestRestoreIsConsumed: a restored solve consumes Machine.Restore.
// The next solve on the machine starts from U0, so it matches a fresh
// machine's solve bit for bit and adds that solve's clocks, instead of
// resuming from the same checkpoint and rewinding the clocks to the
// file's.
func TestRestoreIsConsumed(t *testing.T) {
	ck, full := captureCheckpoint(t, 3, 6)
	m, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Restore = ck
	restored, err := m.SolveJacobi(parallelProblem(m.P()))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolve(t, restored, full)
	if m.Restore != nil {
		t.Error("a restored solve left Machine.Restore set")
	}
	machine, comm := m.MachineCycles, m.CommCycles

	fresh, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.SolveJacobi(parallelProblem(fresh.P()))
	if err != nil {
		t.Fatal(err)
	}
	again, err := m.SolveJacobi(parallelProblem(m.P()))
	if err != nil {
		t.Fatal(err)
	}
	if again.Iterations != want.Iterations {
		t.Fatalf("second solve ran %d sweeps, a fresh one %d", again.Iterations, want.Iterations)
	}
	sameBits(t, "residual series", again.ResidualSeries, want.ResidualSeries)
	sameBits(t, "grid", again.U, want.U)
	if m.MachineCycles != machine+fresh.MachineCycles || m.CommCycles != comm+fresh.CommCycles {
		t.Errorf("after the second solve: machine/comm cycles %d/%d, want %d/%d",
			m.MachineCycles, m.CommCycles, machine+fresh.MachineCycles, comm+fresh.CommCycles)
	}
}
