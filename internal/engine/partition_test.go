package engine

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/jacobi"
)

func TestNewPartitionEven(t *testing.T) {
	part, err := NewPartition(4, 17, 14)
	if err != nil {
		t.Fatal(err)
	}
	if part.Planes[0] != part.Planes[part.P-1] {
		t.Error("12 planes over 4 ranks should be uniform")
	}
	wantLo := []int{1, 4, 7, 10}
	for r := 0; r < 4; r++ {
		if part.Lo[r] != wantLo[r] || part.Planes[r] != 3 {
			t.Errorf("rank %d: lo=%d planes=%d, want lo=%d planes=3",
				r, part.Lo[r], part.Planes[r], wantLo[r])
		}
		if part.LocalNz(r) != 5 {
			t.Errorf("rank %d: LocalNz=%d, want 5 (slab+2 ghosts)", r, part.LocalNz(r))
		}
	}
	if part.NN() != 17*17 {
		t.Errorf("NN=%d", part.NN())
	}
}

func TestNewPartitionUneven(t *testing.T) {
	// 15 interior planes over 8 ranks: the first 7 ranks get 2, the
	// last gets 1; slabs tile the interior contiguously from plane 1.
	part, err := NewPartition(8, 17, 17)
	if err != nil {
		t.Fatal(err)
	}
	if part.Planes[0] == part.Planes[part.P-1] {
		t.Error("15 planes over 8 ranks must not be uniform")
	}
	next := 1
	total := 0
	for r := 0; r < 8; r++ {
		if part.Lo[r] != next {
			t.Errorf("rank %d: lo=%d, want %d", r, part.Lo[r], next)
		}
		want := 2
		if r == 7 {
			want = 1
		}
		if part.Planes[r] != want {
			t.Errorf("rank %d: planes=%d, want %d", r, part.Planes[r], want)
		}
		next += part.Planes[r]
		total += part.Planes[r]
	}
	if total != 15 || next != 16 {
		t.Errorf("slabs cover %d planes ending at %d", total, next)
	}
}

func TestNewPartitionTooManyRanks(t *testing.T) {
	_, err := NewPartition(8, 5, 5)
	if err == nil || !strings.Contains(err.Error(), "cannot partition") {
		t.Fatalf("err = %v", err)
	}
}

// TestLocalRejectsShortArrays: Local checks the global arrays before it
// cuts them, so an array one word short is an error even where its
// capacity would let the last rank's Slab window reach past its end.
func TestLocalRejectsShortArrays(t *testing.T) {
	part, err := NewPartition(2, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	g := jacobi.NewBoxProblem(4, 6, 1e-3, 1)
	g.F = g.F[:len(g.F)-1]
	if _, err := part.Local(arch.Default(), g, 1); err == nil || !strings.Contains(err.Error(), "array lengths") {
		t.Errorf("short F: err = %v", err)
	}
}
