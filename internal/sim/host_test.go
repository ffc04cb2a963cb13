package sim

import (
	"encoding/binary"
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestHostTransferRejectsBadRanges: a host transfer is checked whole
// before any word moves or any slice is allocated. A negative count or
// a range past the plane's end is an error naming the count, the
// address and the plane size — never a makeslice panic, an
// out-of-memory abort, or a half-written prefix.
func TestHostTransferRejectsBadRanges(t *testing.T) {
	n := newNode(t)
	words := n.Cfg.PlaneWords()
	for _, tc := range []struct {
		addr  int64
		count int
	}{
		{0, -1},
		{0, 999999999999},
		{-1, 4},
		{words - 3, 4},
		{words + 1, 0},
	} {
		if _, err := n.ReadWords(1, tc.addr, tc.count); err == nil {
			t.Errorf("ReadWords(1, %d, %d) succeeded", tc.addr, tc.count)
		} else {
			for _, want := range []string{strconv.Itoa(tc.count), strconv.FormatInt(tc.addr, 10), strconv.FormatInt(words, 10)} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("ReadWords(1, %d, %d): error %q does not name %s", tc.addr, tc.count, err, want)
				}
			}
		}
	}

	// A write that would leave the plane writes nothing at all.
	if err := n.WriteWords(2, words-3, []float64{1, 2, 3, 4}); err == nil {
		t.Error("WriteWords past the plane end succeeded")
	}
	if got := n.Mem[2].PagesResident(); got != 0 {
		t.Errorf("rejected write left %d resident pages", got)
	}
	dst := []float64{7, 7, 7, 7}
	if err := n.ReadWordsInto(2, words-3, dst); err == nil {
		t.Error("ReadWordsInto past the plane end succeeded")
	}
	if dst[0] != 7 {
		t.Errorf("rejected read moved words: %v", dst)
	}

	// Empty transfers at the very end of the plane are in range.
	if _, err := n.ReadWords(1, words, 0); err != nil {
		t.Errorf("empty read at the plane end: %v", err)
	}

	// A transfer spanning several pages round-trips word for word.
	data := seq(3*pageWords, func(i int) float64 { return float64(i) + 0.5 })
	if err := n.WriteWords(3, pageWords-5, data); err != nil {
		t.Fatal(err)
	}
	if got := n.Mem[3].PagesResident(); got != 4 {
		t.Errorf("%d resident pages after a write over 4 pages", got)
	}
	got, err := n.ReadWords(3, pageWords-6, len(data)+2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[len(got)-1] != 0 {
		t.Errorf("words around the written range: %v, %v", got[0], got[len(got)-1])
	}
	for i, v := range data {
		if got[i+1] != v {
			t.Fatalf("word %d = %v, want %v", i, got[i+1], v)
		}
	}
}

// FuzzHostTransfer drives random WriteWords, ReadWordsInto and
// ReadWords calls against a flat reference map. A call must never
// panic, must fail exactly when its plane is out of range or its
// range leaves the plane, must leave the plane untouched when it
// fails, and must otherwise match the reference word for word and
// page for page: each resident page holds exactly one word past its
// highest written word.
func FuzzHostTransfer(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 16, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 16, 0})
	f.Add([]byte{0, 2, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0x20, 0x00, 2, 2, 0xff, 0xfe, 0xff, 0, 0, 0, 0, 0x40, 0})
	f.Add([]byte{2, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 3, 0, 0, 0, 0, 0, 0x80, 0, 0x30, 1})
	f.Add([]byte("00\xff\xff\xff\xff\xff\xff\xff\x7f0")) // a write at MaxInt64

	f.Fuzz(func(t *testing.T, data []byte) {
		n := newNode(t)
		words := n.Cfg.PlaneWords()
		type key struct {
			plane int
			addr  int64
		}
		ref := map[key]float64{}
		held := map[key]int64{} // page → one past its highest written word
		r := &fuzzBytes{d: data}
		for step := 0; step < 8 && r.i < len(r.d); step++ {
			kind := r.next() % 3
			plane := int(int8(r.next())) % (len(n.Mem) + 2)
			var a [8]byte
			for i := range a {
				a[i] = r.next()
			}
			addr := int64(binary.LittleEndian.Uint64(a[:]))
			// Mostly land near a page boundary or the plane's end.
			switch a[7] % 4 {
			case 0:
				addr %= 4 * pageWords
			case 1:
				addr = words - addr%(2*pageWords)
			case 2:
				addr = -(addr % 8)
			}
			count := int(int16(binary.LittleEndian.Uint16([]byte{r.next(), r.next()}))) % (3 * pageWords)
			if kind != 2 {
				count = max(count, 0) // only ReadWords takes a count; the others take a slice
			}
			fits := plane >= 0 && plane < len(n.Mem) && count >= 0 && addr >= 0 && addr <= words &&
				int64(count) <= words-addr
			check := func(got []float64) {
				for i, v := range got {
					if want := ref[key{plane, addr + int64(i)}]; math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("plane %d word %d = %v, reference %v", plane, addr+int64(i), v, want)
					}
				}
			}

			var err error
			switch kind {
			case 0:
				vals := make([]float64, count)
				fill := r.val()
				for i := range vals {
					vals[i] = fill + float64(i)
				}
				if err = n.WriteWords(plane, addr, vals); err == nil {
					for i, v := range vals {
						w := addr + int64(i)
						ref[key{plane, w}] = v
						pg := key{plane, w / pageWords}
						held[pg] = max(held[pg], w%pageWords+1)
					}
				}
			case 1:
				dst := make([]float64, count)
				if err = n.ReadWordsInto(plane, addr, dst); err == nil {
					check(dst)
				}
			default:
				var got []float64
				if got, err = n.ReadWords(plane, addr, count); err == nil {
					if len(got) != count {
						t.Fatalf("ReadWords(%d, %d, %d) returned %d words", plane, addr, count, len(got))
					}
					check(got)
				}
			}
			if (err == nil) != fits {
				t.Fatalf("call %d on plane %d at %d count %d: err %v, in range %v", kind, plane, addr, count, err, fits)
			}
		}
		for p := range n.Mem {
			want := 0
			for k := range held {
				if k.plane == p {
					want++
				}
			}
			if got := n.Mem[p].PagesResident(); got != want {
				t.Fatalf("plane %d: %d resident pages, reference %d", p, got, want)
			}
		}
		for k, want := range held {
			if got := len(n.Mem[k.plane].pages[k.addr]); int64(got) != want {
				t.Fatalf("plane %d page %d holds %d words, reference %d", k.plane, k.addr, got, want)
			}
		}
	})
}
