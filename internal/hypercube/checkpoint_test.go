package hypercube

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/diag"
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
	ck := &Checkpoint{Topology: "hypercube", N: 4, Nz: 6, U: make([]float64, 96), V: make([]float64, 96)}
	if err := ck.compatible("hypercube", mustPart(2, 4, 6)); err != nil {
		t.Errorf("matching shape rejected: %v", err)
	}
	// The file's images restore onto any partition of the same grid.
	if err := ck.compatible("hypercube", mustPart(4, 4, 6)); err != nil {
		t.Errorf("another P over the same grid rejected: %v", err)
	}
	refuse := func(what string, err error) {
		t.Helper()
		if !isCheckpointDiag(err) {
			t.Errorf("%s: got %v, want an R042 refusal", what, err)
		}
	}
	refuse("wrong topology", ck.compatible("mesh2d", mustPart(2, 4, 6)))
	refuse("wrong N", ck.compatible("hypercube", mustPart(2, 8, 6)))
	refuse("wrong Nz", ck.compatible("hypercube", mustPart(2, 4, 10)))
	// A snapshot at sweep s holds s residuals.
	ck.Sweep, ck.Residuals = 2, []float64{3, 2}
	if err := ck.compatible("hypercube", mustPart(2, 4, 6)); err != nil {
		t.Errorf("sweep 2 with 2 residuals rejected: %v", err)
	}
	ck.Residuals = ck.Residuals[:1]
	refuse("residuals cut short", ck.compatible("hypercube", mustPart(2, 4, 6)))
	ck.Sweep, ck.Residuals = 1, []float64{3, 2}
	refuse("sweep relabelled down", ck.compatible("hypercube", mustPart(2, 4, 6)))
	ck.Sweep = 2
	ck.V = ck.V[:10]
	refuse("short image", ck.compatible("hypercube", mustPart(2, 4, 6)))
}

// TestRestoreRejectsResidualMismatch: a CRC-valid file whose residual
// count disagrees with its sweep, cut short or relabelled to another
// sweep, fails the restore with R042 instead of resuming silently on a
// shortened history or a different trajectory.
func TestRestoreRejectsResidualMismatch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		forge func(*Checkpoint)
	}{
		{"cut to 2 residuals", func(ck *Checkpoint) { ck.Residuals = ck.Residuals[:2] }},
		{"relabelled sweep 7", func(ck *Checkpoint) { ck.Sweep = 7 }},
	} {
		ck, _ := captureCheckpoint(t, 3, 6)
		tc.forge(ck)
		var buf bytes.Buffer
		if _, err := ck.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadCheckpoint(&buf)
		if err != nil {
			t.Fatalf("%s: the forged file does not read back: %v", tc.name, err)
		}
		m, err := New(smallCfg(), 2)
		if err != nil {
			t.Fatal(err)
		}
		m.Restore = loaded
		res, err := m.SolveJacobi(parallelProblem(m.P()))
		if !isCheckpointDiag(err) {
			t.Errorf("%s: restore gave %v (result %v), want an R042 refusal", tc.name, err, res != nil)
		}
	}
}

// isCheckpointDiag reports whether err is an R042 diagnostic.
func isCheckpointDiag(err error) bool {
	var de *diag.DiagError
	return errors.As(err, &de) && de.D.Rule == diag.RuleCheckpoint
}

// restoreContent writes to w what a restore of ck reads: the resume
// point's sweep, series and images, the fabric and grid it must match,
// and the clocks and counters the resumed solve carries forward. Every
// slice is prefixed with its length.
func restoreContent(w io.Writer, ck *Checkpoint) error {
	snap := ck.resume()
	vs := []any{int64(snap.Sweep), int64(len(ck.Topology)), []byte(ck.Topology), int64(ck.N), int64(ck.Nz),
		ck.MachineCycles, ck.CommCycles, ck.Faults,
		ck.PlanCache.Hits, ck.PlanCache.Misses, int64(ck.PlanCache.Entries), ck.Traps,
		int64(len(ck.FaultFired)), ck.FaultFired, int64(len(snap.Series)), snap.Series,
		int64(len(snap.Images))}
	for _, img := range snap.Images {
		vs = append(vs, int64(len(img)), img)
	}
	for _, v := range vs {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

// TestCheckpointBytes pins every snapshot a solve hands its sink — how
// many, a SHA-256 over their serialized bytes in order, and a SHA-256
// over the restore content each file reads back as (restoreContent) —
// with the solve's final machine and comm clocks, on the three fabrics
// and on each path that restores a snapshot: a recovery whose buddy
// mirror died, a rollback on a ring a shrink left uneven, seeded
// rollbacks, a rollback between a mirror recovery and the next
// checkpoint (it resumes at the recovery's boundary), and a spare
// activation. Each row holds at every worker count. The content column
// is independent of the file layout: a format change re-pins only sha.
func TestCheckpointBytes(t *testing.T) {
	for _, tc := range []struct {
		name, topology     string
		dim, sweeps, every int
		spares             int
		faults             string
		snaps              int
		sha, content       string
		machine, comm      int64
	}{
		{"hypercube", "hypercube", 2, 12, 3, 0, "", 4,
			"634faf734eeab028f27e3cfc84beb42ac60766ed547b0b74bd3a4434d04b454b",
			"3103506e9eb76c46d3fb57a7b94c0d827e3ed2323f9b03246b8891e1ce9de352", 7656, 4968},
		{"mesh2d", "mesh2d", 3, 12, 3, 0, "", 4,
			"08b482e4994f8d811342a9ba73c4966d1de78a66830d21b2592ca1f18cb9bb27",
			"0805935e97999cc12d6e2aa7a1a1e0316ce57855bfb52cf20df702bd6080b79d", 8148, 11796},
		{"torus2d", "torus2d", 3, 12, 3, 0, "", 4,
			"e158dec60c0067ed36126fb29904f641716dcd115e2926bad577a79114c7a737",
			"2234bce8fc745c0a6781155056f4d60c1b40c7b1281b36829e56f7000ffb1a99", 7956, 11604},
		{"checkpoint-source", "hypercube", 2, 12, 2, 0,
			"dispatch:kill-forever@5:1,dispatch:kill-forever@5:2", 6,
			"37752857001230601346239545b62e58fb6ed03c4d6264b37f6c7b3d25bc6c45",
			"76fa015a6b0119dee4aa187525c3e991c14e8e4ba3edbff5e4878cc0cda292a4", 10522, 4106},
		{"shrink-then-rollback", "torus2d", 3, 16, 4, 0,
			"dispatch:kill-forever@6:3,dispatch:kill@9:0:repeat=4", 4,
			"181fb8f0c34c1498ade63b6011358ef680ce35b3475235f9ab063ca4b1257037",
			"5b4b25712f21962290448b9694d3375d28dfd1ddee568e596d30d42d719e539e", 14486, 19406},
		{"seeded-rollbacks", "hypercube", 2, 20, 3, 0,
			"seed@7:sweeps=12:ranks=4:events=6", 7,
			"bb2dba4e8041c86a804c818ff22b80b931f564e004ba6475a30673de9748f558",
			"165352fc62b9560774f14cb4347cb26ac7760f4aea4e9860932f8eed04e068e4", 13176, 8824},
		{"mirror-then-rollback", "hypercube", 2, 12, 4, 0,
			"dispatch:kill-forever@6:1,dispatch:kill@7:0:repeat=4", 3,
			"6d895bbf36908f80f8d68b231e1c9718c0c1f2e3fd5f4e27e6f43ea5ec431447",
			"18f65cc920af77614ddf852987e5359b12d41b5f170826cab417f73305d79be6", 10610, 5826},
		{"spare", "hypercube", 2, 12, 2, 1, "dispatch:kill-forever@3:1", 6,
			"bccf9c395a3105dc3e8548894b8f6a7a3e03e521ee2ad9a45fe75dbe06fbbe9c",
			"92ac754998e405c29dfe8bf880552c2343ed9281596cad418206e7bad35af7e6", 8664, 5488},
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
				h, content := sha256.New(), sha256.New()
				snaps := 0
				m.CheckpointSink = func(ck *Checkpoint) error {
					snaps++
					var buf bytes.Buffer
					if _, err := ck.WriteTo(io.MultiWriter(h, &buf)); err != nil {
						return err
					}
					back, err := ReadCheckpoint(&buf)
					if err != nil {
						return err
					}
					return restoreContent(content, back)
				}
				if _, err := m.SolveJacobi(parallelProblem(m.P())); err != nil {
					t.Fatal(err)
				}
				sum := hex.EncodeToString(h.Sum(nil))
				if snaps != tc.snaps || sum != tc.sha {
					t.Errorf("%d snapshots hashing %s, want %d hashing %s", snaps, sum, tc.snaps, tc.sha)
				}
				if got := hex.EncodeToString(content.Sum(nil)); got != tc.content {
					t.Errorf("restore content hashing %s, want %s", got, tc.content)
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
