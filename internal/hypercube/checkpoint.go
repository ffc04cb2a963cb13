package hypercube

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/sim"
)

// Sweep-boundary checkpointing: a checkpoint is the engine's restore
// point — the u and v planes as two global N×N×Nz images, boundary
// planes included, with the sweep index and the convergence history —
// plus what a restart in a fresh process carries forward: the fabric
// and grid it must match, the machine's cycle clocks and the fault
// machinery's counters. At a sweep boundary every interior ghost plane
// equals its neighbour's owned plane, so the images hold every rank's
// slab under any partition of the grid and the file names no rank
// count. F and mask planes are rebuilt from the Problem on restore, so
// snapshots stay proportional to the iterate, not the whole working
// set. Restoring a snapshot provably resumes to bit-identical results
// versus an uninterrupted run (see checkpoint_test.go): the iterate
// planes are copied word-for-word and every downstream arithmetic step
// is deterministic.
//
// On disk every section — header, residual history, fault counters,
// the u image and the v image — is followed by a CRC32 (IEEE) of its
// payload, verified on read before any of the payload is decoded, so a
// truncated or bit-flipped file can never silently restore garbage.
// Every error reading or restoring one is an R042 diagnostic
// (diag.RuleCheckpoint); a damaged section's names the section and its
// byte offset.

// checkpointMagic identifies the on-disk snapshot format: version 4 of
// the NSCCKPT family, the first to hold global images. A file of an
// earlier version fails naming its magic.
const checkpointMagic = "NSCCKPT4"

// topologyKinds maps the header's topology kind word to the canonical
// topology names. Append only: the kind is an on-disk value.
var topologyKinds = []string{"hypercube", "mesh2d", "torus2d"}

// Checkpoint is one sweep-boundary snapshot of a multi-node solve.
type Checkpoint struct {
	// Sweep is the iteration index the resumed solve executes next.
	Sweep int
	// Topology names the fabric the snapshot was taken on ("hypercube",
	// "mesh2d", "torus2d"); restores onto a different fabric are
	// rejected.
	Topology string
	// N and Nz are the global grid's shape.
	N, Nz int
	// Residuals is the combined residual history up to Sweep.
	Residuals []float64
	// MachineCycles/CommCycles are the machine clocks at the boundary;
	// simulated time keeps moving forward across a restart.
	MachineCycles, CommCycles int64
	// Faults, PlanCache and Traps carry the counters accumulated before
	// the snapshot, so a run restored in a fresh process reports totals.
	Faults    engine.FaultStats
	PlanCache sim.PlanCacheStats
	Traps     sim.TrapStats
	// FaultFired is the fault plan's per-event firing counters: a
	// restored run does not re-suffer faults it already survived.
	FaultFired []int64
	// U and V are the global images of the u and v planes (N·N·Nz
	// words each, boundary planes included): engine.Snapshot.Images.
	U, V []float64
}

// compatible checks a snapshot against a solve on the named fabric
// over part. Its images restore onto any partition of the same grid.
// Every snapshot the engine takes at sweep s holds s residuals, so a
// file whose count differs was cut or relabelled.
func (ck *Checkpoint) compatible(topology string, part *engine.Partition) error {
	if len(ck.Residuals) != ck.Sweep {
		return diag.Errorf(diag.RuleCheckpoint, "hypercube: checkpoint at sweep %d holds %d residuals, want %d",
			ck.Sweep, len(ck.Residuals), ck.Sweep)
	}
	if ck.Topology != topology {
		return diag.Errorf(diag.RuleCheckpoint, "hypercube: checkpoint recorded topology %q, machine runs %q",
			ck.Topology, topology)
	}
	if ck.N != part.N || ck.Nz != part.Nz {
		return diag.Errorf(diag.RuleCheckpoint, "hypercube: checkpoint grid N=%d Nz=%d does not match solve N=%d Nz=%d",
			ck.N, ck.Nz, part.N, part.Nz)
	}
	if words := part.Nz * part.NN(); len(ck.U) != words || len(ck.V) != words {
		return diag.Errorf(diag.RuleCheckpoint, "hypercube: checkpoint images hold %d/%d words, grid has %d",
			len(ck.U), len(ck.V), words)
	}
	return nil
}

// resume wraps a compatible snapshot as the engine's resume point,
// without copying: the engine only reads a resume point.
func (ck *Checkpoint) resume() *engine.Snapshot {
	return &engine.Snapshot{Sweep: ck.Sweep, Series: ck.Residuals, Images: [][]float64{ck.U, ck.V}}
}

// checkpointHeader is the fixed-size first section: every scalar the
// restore needs before it can size the variable sections.
type checkpointHeader struct {
	Sweep, N, Nz, Topology    int64
	MachineCycles, CommCycles int64
	Faults                    engine.FaultStats
	PlanHits, PlanMisses      int64
	PlanEntries               int64
	Traps                     sim.TrapStats
	NRes, NFired              int64
}

// WriteTo serializes the snapshot: the magic string, then each section
// (scalars and slices as little-endian 64-bit words, float64s by bit
// pattern so restored grids are bit-identical) followed by its CRC32.
func (ck *Checkpoint) WriteTo(w io.Writer) (int64, error) {
	kind := slices.Index(topologyKinds, ck.Topology)
	if kind < 0 {
		return 0, diag.Errorf(diag.RuleCheckpoint, "hypercube: checkpoint cannot record topology %q", ck.Topology)
	}
	hdr := checkpointHeader{
		Sweep: int64(ck.Sweep), N: int64(ck.N), Nz: int64(ck.Nz), Topology: int64(kind),
		MachineCycles: ck.MachineCycles, CommCycles: ck.CommCycles,
		Faults:   ck.Faults,
		PlanHits: ck.PlanCache.Hits, PlanMisses: ck.PlanCache.Misses, PlanEntries: int64(ck.PlanCache.Entries),
		Traps: ck.Traps,
		NRes:  int64(len(ck.Residuals)), NFired: int64(len(ck.FaultFired)),
	}
	var buf bytes.Buffer
	buf.WriteString(checkpointMagic)
	for _, v := range []any{&hdr, ck.Residuals, ck.FaultFired, ck.U, ck.V} {
		start := buf.Len()
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			return 0, err
		}
		binary.Write(&buf, binary.LittleEndian, crc32.ChecksumIEEE(buf.Bytes()[start:]))
	}
	return buf.WriteTo(w)
}

// sectionReader reads payload+CRC32 sections, verifying each checksum
// before any of the payload is decoded and reporting precise offsets.
type sectionReader struct {
	r   io.Reader
	off int64
}

// section reads the next payload of size bytes as the stream delivers
// it, so a header that declares more than the file holds costs only
// what the file holds, and returns it once its checksum verifies.
func (sr *sectionReader) section(name string, size int64) ([]byte, error) {
	payload, err := io.ReadAll(io.LimitReader(sr.r, size))
	if err == nil && int64(len(payload)) < size {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, diag.Errorf(diag.RuleCheckpoint, "hypercube: checkpoint section %q truncated at offset %d: %w",
			name, sr.off, err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(sr.r, crc[:]); err != nil {
		return nil, diag.Errorf(diag.RuleCheckpoint, "hypercube: checkpoint section %q missing checksum at offset %d: %w",
			name, sr.off+size, err)
	}
	want := binary.LittleEndian.Uint32(crc[:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, diag.Errorf(diag.RuleCheckpoint, "hypercube: checkpoint section %q corrupt at offset %d: crc 0x%08x, want 0x%08x",
			name, sr.off, got, want)
	}
	sr.off += size + 4
	return payload, nil
}

// words reads a section of n little-endian 64-bit words and converts
// each with conv. An empty section reads as nil, so a round trip
// reproduces the original struct exactly; it is still CRC-verified.
func words[T any](sr *sectionReader, name string, n int64, conv func(uint64) T) ([]T, error) {
	payload, err := sr.section(name, 8*n)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]T, n)
	for i := range out {
		out[i] = conv(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return out, nil
}

// maxWords bounds every count a header declares: the checksum proves
// integrity, not honesty, so a hand-forged file can carry valid CRCs
// over absurd shapes.
const maxWords = 1 << 30

// ReadCheckpoint deserializes a snapshot written by WriteTo, verifying
// every section checksum and rejecting trailing bytes after the last
// section. It allocates in proportion to the bytes the stream holds,
// whatever the header declares. Every error is an R042 diagnostic.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, diag.Errorf(diag.RuleCheckpoint, "hypercube: reading checkpoint magic: %w", err)
	}
	if string(magic) != checkpointMagic {
		return nil, diag.Errorf(diag.RuleCheckpoint, "hypercube: not a checkpoint this reader accepts (magic %q, want %q)",
			magic, checkpointMagic)
	}
	sr := &sectionReader{r: br, off: int64(len(magic))}
	var hdr checkpointHeader
	payload, err := sr.section("header", int64(binary.Size(hdr)))
	if err != nil {
		return nil, err
	}
	if err := binary.Read(bytes.NewReader(payload), binary.LittleEndian, &hdr); err != nil {
		return nil, diag.Errorf(diag.RuleCheckpoint, "hypercube: decoding checkpoint header: %w", err)
	}
	// N·N·Nz stays below maxWords without overflowing: each factor is
	// capped first, and N² ≤ 2^60.
	if hdr.Sweep < 0 || hdr.Sweep > maxWords || hdr.N < 1 || hdr.N > maxWords || hdr.Nz < 3 || hdr.Nz > maxWords ||
		hdr.N*hdr.N > maxWords/hdr.Nz {
		return nil, diag.Errorf(diag.RuleCheckpoint, "hypercube: checkpoint header out of range (sweep=%d N=%d Nz=%d)",
			hdr.Sweep, hdr.N, hdr.Nz)
	}
	if hdr.Topology < 0 || hdr.Topology >= int64(len(topologyKinds)) {
		return nil, diag.Errorf(diag.RuleCheckpoint, "hypercube: checkpoint topology kind %d unknown", hdr.Topology)
	}
	if hdr.NRes < 0 || hdr.NRes > maxWords || hdr.NFired < 0 || hdr.NFired > maxWords {
		return nil, diag.Errorf(diag.RuleCheckpoint, "hypercube: checkpoint counts out of range (residuals=%d fired=%d)",
			hdr.NRes, hdr.NFired)
	}
	ck := &Checkpoint{
		Sweep: int(hdr.Sweep), Topology: topologyKinds[hdr.Topology], N: int(hdr.N), Nz: int(hdr.Nz),
		MachineCycles: hdr.MachineCycles, CommCycles: hdr.CommCycles,
		Faults:    hdr.Faults,
		PlanCache: sim.PlanCacheStats{Hits: hdr.PlanHits, Misses: hdr.PlanMisses, Entries: int(hdr.PlanEntries)},
		Traps:     hdr.Traps,
	}
	toInt := func(u uint64) int64 { return int64(u) }
	img := hdr.N * hdr.N * hdr.Nz
	if ck.Residuals, err = words(sr, "residuals", hdr.NRes, math.Float64frombits); err != nil {
		return nil, err
	}
	if ck.FaultFired, err = words(sr, "fault-counters", hdr.NFired, toInt); err != nil {
		return nil, err
	}
	if ck.U, err = words(sr, "u image", img, math.Float64frombits); err != nil {
		return nil, err
	}
	if ck.V, err = words(sr, "v image", img, math.Float64frombits); err != nil {
		return nil, err
	}
	switch _, err := br.ReadByte(); err {
	case io.EOF:
		return ck, nil
	case nil:
		return nil, diag.Errorf(diag.RuleCheckpoint, "hypercube: checkpoint has trailing data after the final section (offset %d)", sr.off)
	default:
		return nil, diag.Errorf(diag.RuleCheckpoint, "hypercube: reading checkpoint past its final section (offset %d): %w", sr.off, err)
	}
}

// SaveCheckpointFile writes the snapshot to path crash-safely: the
// bytes go to a temp file in the same directory, are fsynced to stable
// storage, and only then rename over the destination. A process killed
// at any instant — mid-write, mid-sync, mid-rename — leaves either the
// old complete file or the new complete file, never a torn mix; at
// worst an orphaned temp file remains, which the next save of the same
// path cannot confuse for a checkpoint (the CRC-verified read rejects
// any partial prefix). The directory entry is fsynced best-effort so
// the rename itself survives power loss on filesystems that honor it.
func SaveCheckpointFile(path string, ck *Checkpoint) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := ck.WriteTo(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// LoadCheckpointFile reads a snapshot written by SaveCheckpointFile
// with ReadCheckpoint. Every error is an R042 diagnostic.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, diag.Errorf(diag.RuleCheckpoint, "hypercube: loading checkpoint: %w", err)
	}
	defer f.Close()
	return ReadCheckpoint(f)
}
