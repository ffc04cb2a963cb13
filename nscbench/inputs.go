package main

import (
	"math/rand"
	"strconv"
	"strings"
)

// Inputs come from the seed argument only: the program under test sees
// just the arrays and command lines generated here.

// jacobiInputs returns count seeded right-hand sides and initial guesses
// on an n×n×nz grid with Dirichlet boundary (mask 0 on the outer shell).
// Tol 0 and MaxIter = sweeps make the reference solver run exactly
// sweeps iterations, matching a solve stopped after that many sweeps.
func jacobiInputs(seed int64, n, nz, sweeps, count int) []jacobiInput {
	rng := rand.New(rand.NewSource(seed))
	out := make([]jacobiInput, count)
	cells := n * n * nz
	for c := range out {
		in := jacobiInput{N: n, Nz: nz, Sweeps: sweeps,
			F: make([]float64, cells), U0: make([]float64, cells)}
		for i := range in.F {
			in.F[i] = rng.Float64()
			in.U0[i] = rng.Float64()
		}
		out[c] = in
	}
	return out
}

// jacobiInput is one seeded solve: grid shape, sweep count and arrays.
type jacobiInput struct {
	N, Nz, Sweeps int
	F, U0         []float64
}

// Edit-session shape: every session enters the whole Jacobi diagram with
// these many seeded edits interleaved, then edits the finished diagram.
const (
	scriptMoves   = 24 // moves of already placed icons while entering
	scriptUndos   = 6  // undo/redo pairs while entering
	scriptChecks  = 6  // check commands while entering
	tailMoves     = 16 // moves after the diagram is complete
	tailUndos     = 6  // undo/redo pairs after completion
	tailChecks    = 6  // check commands after completion
	tailCompiles  = 6  // pipeline.CompileDocument calls after completion
	sessionUndoK  = 24 // largest k of the end-of-session undo^k/redo^k oracle
	compileMarker = "compile"
)

// session is one seeded editor session: command lines (compileMarker
// stands for a pipeline.CompileDocument call) and the k of its
// end-of-session undo^k/redo^k oracle.
type session struct {
	Cmds []string
	K    int
}

// editSessions returns count seeded sessions over the editor script.
// Edits land only where the editor state makes them valid: moves name
// an icon already placed in the current pipeline, and no undo/redo pair
// follows "doc" or "pipe new" (undoing a new pipeline moves the view
// back to pipeline 0, which the rest of the script does not expect).
func editSessions(seed int64, script string, count int) []session {
	rng := rand.New(rand.NewSource(seed))
	var lines []string
	for _, l := range strings.Split(script, "\n") {
		l = strings.TrimSpace(l)
		if l != "" && !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	out := make([]session, count)
	for s := range out {
		// icons[i] lists the icons of the current pipeline after line i.
		icons := make([][]string, len(lines))
		var cur []string
		var slots []int // lines after which a move or an undo/redo pair may follow
		for i, l := range lines {
			f := strings.Fields(l)
			switch {
			case f[0] == "place" && len(f) > 2:
				cur = append(cur, f[2])
			case f[0] == "pipe" && len(f) > 1 && f[1] == "new":
				cur = nil
			}
			icons[i] = append([]string(nil), cur...)
			if len(cur) > 0 && f[0] != "pipe" && f[0] != "doc" {
				slots = append(slots, i)
			}
		}
		after := make(map[int][]string)
		pick := func(n int, edit func(i int) []string) {
			for k := 0; k < n; k++ {
				i := slots[rng.Intn(len(slots))]
				after[i] = append(after[i], edit(i)...)
			}
		}
		move := func(names []string) []string {
			return []string{"move " + names[rng.Intn(len(names))] + " to " +
				strconv.Itoa(1+rng.Intn(90)) + " " + strconv.Itoa(1+rng.Intn(30))}
		}
		pick(scriptMoves, func(i int) []string { return move(icons[i]) })
		pick(scriptUndos, func(int) []string { return []string{"undo", "redo"} })
		pick(scriptChecks, func(int) []string { return []string{"check"} })
		var cmds []string
		for i, l := range lines {
			cmds = append(cmds, l)
			cmds = append(cmds, after[i]...)
		}
		// The tail edits the finished diagram; units are shuffled whole
		// so every undo is directly followed by its redo.
		last := icons[len(lines)-1]
		var units [][]string
		for k := 0; k < tailMoves; k++ {
			units = append(units, move(last))
		}
		for k := 0; k < tailUndos; k++ {
			units = append(units, []string{"undo", "redo"})
		}
		for k := 0; k < tailChecks; k++ {
			units = append(units, []string{"check"})
		}
		for k := 0; k < tailCompiles; k++ {
			units = append(units, []string{compileMarker})
		}
		rng.Shuffle(len(units), func(a, b int) { units[a], units[b] = units[b], units[a] })
		for _, u := range units {
			cmds = append(cmds, u...)
		}
		out[s] = session{Cmds: cmds, K: 1 + rng.Intn(sessionUndoK)}
	}
	return out
}
