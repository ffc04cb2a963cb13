package editor

import (
	"strings"
	"testing"
)

// buildTwoPipeDoc sets up two independent single-op pipelines.
func buildTwoPipeDoc(t *testing.T) *Editor {
	t.Helper()
	e := newEd(t)
	script := `
var u plane=0 base=0 len=256
var v plane=1 base=0 len=256
place memplane Mu at 1 2 plane=0
place memplane Mv at 40 2 plane=1
place singlet S at 18 1
op S.u0 add constb=1
connect Mu.rd -> S.u0.a
connect S.u0.o -> Mv.wr
dma Mu rd var=u stride=1 count=256
dma Mv wr var=v stride=1 count=256
pipe new second
place memplane Nu at 1 2 plane=2
place memplane Nv at 40 2 plane=3
place singlet T at 18 1
op T.u0 mul constb=3
connect Nu.rd -> T.u0.a
connect T.u0.o -> Nv.wr
var p plane=2 base=0 len=256
var q plane=3 base=0 len=256
dma Nu rd var=p stride=1 count=256
dma Nv wr var=q stride=1 count=256
`
	if _, err := e.ExecScript(strings.NewReader(script)); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestIncrementalCheck is the regression test for the editor re-running
// the full checker on every command: per-pipeline checks must be served
// from the content-addressed check cache unless that pipeline (or the
// declarations) changed.
func TestIncrementalCheck(t *testing.T) {
	e := buildTwoPipeDoc(t)

	base := e.Check()
	st := e.CheckCacheStats()
	if st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("first check: stats %+v, want 0 hits / 2 misses", st)
	}

	// Unchanged document: both pipelines replay from the cache.
	again := e.Check()
	st = e.CheckCacheStats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("unchanged re-check: stats %+v, want 2 hits / 2 misses", st)
	}
	if len(again) != len(base) {
		t.Fatalf("cached check returned %d diagnostics, first returned %d", len(again), len(base))
	}
	for i := range base {
		if again[i] != base[i] {
			t.Errorf("diagnostic %d differs between cached and fresh check", i)
		}
	}

	// Touch only pipeline 1: pipeline 0's check must NOT re-run.
	if _, err := e.Exec("op T.u0 mul constb=5"); err != nil {
		t.Fatal(err)
	}
	e.Check()
	st = e.CheckCacheStats()
	if st.Hits != 3 || st.Misses != 3 {
		t.Fatalf("after editing pipe 1: stats %+v, want 3 hits (pipe 0 replayed) / 3 misses (pipe 1 re-checked)", st)
	}

	// Changing a declaration invalidates every pipeline (DMA bounds
	// checks read the declarations).
	if _, err := e.Exec("var u plane=0 base=0 len=300"); err != nil {
		t.Fatal(err)
	}
	e.Check()
	st = e.CheckCacheStats()
	if st.Misses != 5 {
		t.Fatalf("after re-declaring: stats %+v, want 5 misses (both pipelines re-checked)", st)
	}
}

// TestIncrementalCheckMatchesDirect asserts the cached document check
// and the raw checker agree exactly, including diagnostic order.
func TestIncrementalCheckMatchesDirect(t *testing.T) {
	e := buildTwoPipeDoc(t)
	// Introduce a warning/error mix: an unused icon.
	if _, err := e.Exec("pipe 0"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec("place singlet W at 60 8"); err != nil {
		t.Fatal(err)
	}
	cached := e.Check()
	direct := e.Chk.CheckDocument(e.Doc)
	if len(cached) != len(direct) {
		t.Fatalf("cached %d diagnostics, direct %d", len(cached), len(direct))
	}
	for i := range direct {
		if cached[i] != direct[i] {
			t.Errorf("diagnostic %d: cached %v != direct %v", i, cached[i], direct[i])
		}
	}
}
