package multigrid

import (
	"math"
	"testing"
)

// transferSizes are the fine edges FuzzTransfers draws from; each
// coarse edge is (nf+1)/2.
var transferSizes = []int{3, 5, 9, 17, 33, 65}

// FuzzTransfers checks the stencil loops of Restrict and Prolong
// against restrictRef and prolongRef bit for bit. The first byte picks
// the fine edge; every grid value is a raw bit pattern whose class —
// NaN of any payload and sign, ±0, subnormal, ±Inf, a small integer or
// any bits — is chosen by the input byte at its position, so the
// fuzzer moves special values around the stencils. A sum that starts
// from its first term instead of 0.0 differs on −0, and a reordered
// sum differs on rounding and on which NaN payload survives.
func FuzzTransfers(f *testing.F) {
	for i := range transferSizes {
		f.Add([]byte{byte(i), 0, 7, 1, 2, 3, 4, 5, 6})
		f.Add([]byte{byte(i), 3, 3, 3, 0, 3})
		f.Add([]byte{byte(i), 1, 1, 4, 1, 6, 1, 5})
		f.Add([]byte{byte(i), 3}) // every value −0: every sum is +0
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nf := transferSizes[int(data[0])%len(transferSizes)]
		nc := (nf + 1) / 2
		classes := data[1:]
		fine := transferGrid(classes, nf*nf*nf, 1)
		sameTransferBits(t, "Restrict", nf, Restrict(fine, nf, nc), restrictRef(fine, nf, nc))
		coarse := transferGrid(classes, nc*nc*nc, 2)
		sameTransferBits(t, "Prolong", nf, Prolong(coarse, nc, nf), prolongRef(coarse, nc, nf))
	})
}

// transferGrid returns n values, value g of the class classes[g mod
// len(classes)] chooses, with its sign, payload and mantissa bits
// drawn from a splitmix64 stream keyed by the classes, salt and g.
func transferGrid(classes []byte, n int, salt uint64) []float64 {
	key := salt
	for _, c := range classes {
		key = key*0x100000001b3 ^ uint64(c)
	}
	out := make([]float64, n)
	for g := range out {
		bits := splitmix(key + uint64(g))
		sign := bits & (1 << 63)
		frac := bits & (1<<52 - 1)
		switch classes[g%len(classes)] % 8 {
		case 1: // NaN, quiet or signalling, any payload and sign
			out[g] = math.Float64frombits(sign | 0x7ff<<52 | max(frac, 1))
		case 2:
			out[g] = 0
		case 3:
			out[g] = math.Copysign(0, -1)
		case 4: // subnormal
			out[g] = math.Float64frombits(sign | max(frac, 1))
		case 5:
			out[g] = math.Inf(1 - 2*int(bits>>63))
		case 6:
			out[g] = float64(int8(bits))
		default:
			out[g] = math.Float64frombits(bits)
		}
	}
	return out
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func sameTransferBits(t *testing.T, name string, nf int, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s nf=%d: %d values, reference %d", name, nf, len(got), len(want))
	}
	for i := range want {
		if g, w := math.Float64bits(got[i]), math.Float64bits(want[i]); g != w {
			t.Fatalf("%s nf=%d: value %d is %#016x (%g), reference %#016x (%g)", name, nf, i, g, got[i], w, want[i])
		}
	}
}
