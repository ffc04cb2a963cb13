package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/editor"
	"repro/internal/engine"
	"repro/internal/jacobi"
	"repro/internal/pipeline"
)

// sessionPool is how many seeded sessions a run cycles through.
const sessionPool = 16

// editInst is the set-up edit-session workload: each batch is one
// editor session over a fresh document and a fresh compile pipeline, as
// an interactive user would open them.
type editInst struct {
	inv      *arch.Inventory
	slabProb *jacobi.Problem
	sessions []session

	next    int
	cur     session
	ed      *editor.Editor
	pl      *pipeline.Pipeline
	errored int
}

func setupEdit(seed int64) (instance, error) {
	cfg := benchConfig()
	inv, err := arch.NewInventory(cfg)
	if err != nil {
		return nil, err
	}
	// The session enters the diagram of the jacobi-cold workload's rank
	// slab: 8×8 planes, two owned planes plus two ghosts.
	part, err := engine.NewPartition(ranks, 8, 18)
	if err != nil {
		return nil, err
	}
	in := jacobiInputs(seed, 8, 18, 12, 1)[0]
	slab, err := part.Local(cfg, in.problem(), 0)
	if err != nil {
		return nil, err
	}
	return &editInst{inv: inv, slabProb: slab,
		sessions: editSessions(seed, slab.Script(), sessionPool)}, nil
}

// kind names the span an editor command is recorded under.
func kind(cmd string) string {
	switch {
	case cmd == "undo":
		return "editor.undo"
	case cmd == "redo":
		return "editor.redo"
	case cmd == "check":
		return "editor.check"
	case cmd == compileMarker:
		return "pipeline.compile"
	}
	return "editor.cmd"
}

// session runs the next seeded session, one op per command.
func (e *editInst) session(tr *tracer, lat *[]float64) int {
	e.cur = e.sessions[e.next%len(e.sessions)]
	e.next++
	e.ed = editor.New(e.inv, "jacobi3d")
	e.pl = pipeline.New(e.inv)
	e.errored = 0
	for _, c := range e.cur.Cmds {
		tr.beginOp()
		name := kind(c)
		s := tr.begin(name, -1)
		t0 := time.Now()
		var err error
		if c == compileMarker {
			var res *pipeline.Result
			res, err = e.pl.CompileDocument(e.ed.Doc)
			if err == nil && tr != nil {
				// The cache decides after the call whether this was a cold
				// compile or a warm hit.
				if res.CacheHit {
					tr.spans[s].Name = "pipeline.compile.warm"
				} else {
					tr.spans[s].Name = "pipeline.compile.cold"
				}
			}
		} else {
			_, err = e.ed.Exec(c)
		}
		d := time.Since(t0)
		tr.end(s)
		if lat != nil {
			*lat = append(*lat, ms(d))
		}
		if err != nil {
			e.errored++
		}
	}
	if tr != nil {
		cs := e.ed.CheckCacheStats()
		ps := e.pl.Cache.Stats()
		tr.add("checker.cache_hit_ratio", ratio(cs.Hits, cs.Hits+cs.Misses))
		tr.add("pipeline.cache_hit_ratio", ratio(ps.Hits, ps.Hits+ps.Misses))
	}
	return len(e.cur.Cmds)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (e *editInst) batch(lat *[]float64) int { return e.session(nil, lat) }

func (e *editInst) prepareOracle() error { return nil }

// check is the end-of-session oracle: the finished document checks clean
// and compiles, and undo^k followed by redo^k reproduces its Save bytes.
// A session that fails it fails every one of its ops.
func (e *editInst) check() int {
	if e.errored > 0 || e.sessionError() != nil {
		return len(e.cur.Cmds)
	}
	return 0
}

func (e *editInst) sessionError() error {
	if diags := e.ed.Check(); len(diags) != 0 {
		return fmt.Errorf("finished document has %d findings: %v", len(diags), diags[0])
	}
	if _, err := e.pl.CompileDocument(e.ed.Doc); err != nil {
		return err
	}
	var before, after bytes.Buffer
	if err := e.ed.Doc.Save(&before); err != nil {
		return err
	}
	for i := 0; i < e.cur.K; i++ {
		if err := e.ed.Undo(); err != nil {
			return err
		}
	}
	for i := 0; i < e.cur.K; i++ {
		if err := e.ed.Redo(); err != nil {
			return err
		}
	}
	if err := e.ed.Doc.Save(&after); err != nil {
		return err
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		return fmt.Errorf("undo^%d redo^%d changed the saved document", e.cur.K, e.cur.K)
	}
	return nil
}

// decomposed runs one session with a span around every command.
func (e *editInst) decomposed(tr *tracer) {
	e.session(tr, nil)
}

// verify has nothing to compare: the session's public calls are the op
// itself, and check applies the oracle.
func (e *editInst) verify(*tracer) error { return nil }

func (e *editInst) slab() (*jacobi.Problem, error) { return e.slabProb, nil }
