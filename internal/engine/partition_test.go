package engine

import (
	"reflect"
	"strings"
	"testing"
)

// TestPairsOfParity pins the exchange schedule the loop derives from
// P: pairs (r, r+1) split by the parity of r, no rank twice in one
// class, and every ring edge covered exactly once per sweep.
func TestPairsOfParity(t *testing.T) {
	pairs := func(p, parity int) []int {
		var out []int
		for k := 0; k < parityPairs(p, parity); k++ {
			out = append(out, parity+2*k)
		}
		return out
	}
	// 5 ranks: pairs (0,1),(1,2),(2,3),(3,4) split into even {0,2} and
	// odd {1,3} phases; within a phase no rank appears in two pairs.
	for _, tc := range []struct {
		p, parity int
		want      []int
	}{
		{5, 0, []int{0, 2}},
		{5, 1, []int{1, 3}},
		{3, 0, []int{0}},
		{3, 1, []int{1}},
		{2, 0, []int{0}},
		{2, 1, nil},
		{1, 0, nil},
		{1, 1, nil},
	} {
		if got := pairs(tc.p, tc.parity); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("parity %d pairs over %d ranks = %v, want %v", tc.parity, tc.p, got, tc.want)
		}
	}
	for p := 1; p <= 17; p++ {
		edges := make([]int, p)
		for parity := 0; parity < 2; parity++ {
			inClass := map[int]bool{}
			for _, r := range pairs(p, parity) {
				if r%2 != parity || r < 0 || r+1 >= p {
					t.Fatalf("p=%d: class %d holds pair (%d,%d)", p, parity, r, r+1)
				}
				if inClass[r] || inClass[r+1] {
					t.Fatalf("p=%d: class %d reuses a rank of pair (%d,%d)", p, parity, r, r+1)
				}
				inClass[r], inClass[r+1] = true, true
				edges[r]++
			}
		}
		for r := 0; r+1 < p; r++ {
			if edges[r] != 1 {
				t.Errorf("p=%d: ring edge (%d,%d) scheduled %d times, want once", p, r, r+1, edges[r])
			}
		}
	}
}

func TestNewPartitionEven(t *testing.T) {
	part, err := NewPartition(4, 17, 14)
	if err != nil {
		t.Fatal(err)
	}
	if !part.Uniform() {
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
	if part.Uniform() {
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
