package compiler

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/diag"
	"repro/internal/diagram"
	"repro/internal/editor"
)

// Options parameterizes compilation.
type Options struct {
	// N and Nz are the grid dimensions; shifts flatten to
	// dx + dy·N + dz·N².
	N, Nz int
	// Planes maps every variable (including the destination) to its
	// memory plane. Arrays are assumed based at word 0 of their plane,
	// with tail padding for the stream drain.
	Planes map[string]int
}

// Result reports what the compiler produced.
type Result struct {
	Doc *diagram.Document
	// FUsUsed counts mapped function units; ALSs counts placed
	// structures; Taps counts SDU taps consumed.
	FUsUsed int
	ALSs    int
	Taps    int
	// Base is the stream alignment offset (max positive flattened
	// shift): the destination is written with skip=Base.
	Base int
}

// dagNode is one value in the CSE'd expression DAG.
type dagNode struct {
	n       *Node
	uses    int
	pad     diagram.PadRef // producing pad once mapped
	mapped  bool
	isConst bool
}

// slotRef is one free function-unit slot.
type slotRef struct {
	icon *diagram.Icon
	slot int
	cap  arch.Capability
}

// ProgramResult is the outcome of compiling a statement sequence.
type ProgramResult struct {
	Doc *diagram.Document
	// Stmts holds per-statement mapping statistics, in order.
	Stmts []*Result
}

// CompileProgram translates a sequence of stencil assignments into one
// document: one pipeline per statement, executed in order by the
// control-flow region, with shared variable declarations padded to the
// largest alignment base any statement needs. It is the parse pass
// (ParseProgram) followed by the build-diagram pass (BuildProgram).
func CompileProgram(stmts []string, inv *arch.Inventory, opt Options) (*ProgramResult, error) {
	parsed, err := ParseProgram(stmts)
	if err != nil {
		return nil, err
	}
	return BuildProgram(parsed, inv, opt)
}

// ParseProgram is the parse pass: every statement through the stencil
// grammar, errors tagged with the offending statement's index so
// diagnostics carry a full source span.
func ParseProgram(stmts []string) ([]*Stmt, error) {
	if len(stmts) == 0 {
		return nil, diag.Errorf(diag.RuleProgram, "compiler: empty program")
	}
	parsed := make([]*Stmt, len(stmts))
	for i, src := range stmts {
		st, err := Parse(src)
		if err != nil {
			return nil, stmtErr(err, i)
		}
		parsed[i] = st
	}
	return parsed, nil
}

// stmtErr wraps a statement-scoped error the way the compiler always
// has ("compiler: statement %d: ..."), attaching the statement index to
// typed diagnostics so their source spans survive the wrap.
func stmtErr(err error, i int) error {
	if de, ok := err.(*diag.DiagError); ok {
		return de.WithStmt(i, fmt.Sprintf("compiler: statement %d: ", i))
	}
	return diag.Errorf(diag.RuleProgram, "compiler: statement %d: %w", i, err)
}

// programDecls computes the shared declaration list: every referenced
// variable once, in first-reference order, padded for the deepest
// stencil in the program.
func programDecls(parsed []*Stmt, opt Options, maxBase int) ([]diagram.VarDecl, error) {
	cells := opt.N * opt.N * opt.Nz
	declared := map[string]bool{}
	var decls []diagram.VarDecl
	for i, st := range parsed {
		names := append(varNames(st.Expr), st.Dst)
		for _, name := range names {
			if declared[name] {
				continue
			}
			plane, ok := opt.Planes[name]
			if !ok {
				e := diag.Errorf(diag.RuleNoPlane, "compiler: statement %d: variable %q has no plane assignment", i, name)
				e.D.Span = &diag.Span{Stmt: i, Pos: -1}
				e.D.Hint = fmt.Sprintf("map %q to a memory plane in Options.Planes", name)
				return nil, e
			}
			decls = append(decls, diagram.VarDecl{Name: name, Plane: plane, Base: 0, Len: int64(cells + maxBase)})
			declared[name] = true
		}
	}
	return decls, nil
}

// BuildProgram is the build-diagram pass: parsed statements to one
// multi-pipeline document, one pipeline per statement in statement
// order, over the shared declarations.
func BuildProgram(parsed []*Stmt, inv *arch.Inventory, opt Options) (*ProgramResult, error) {
	if len(parsed) == 0 {
		return nil, diag.Errorf(diag.RuleProgram, "compiler: empty program")
	}
	if opt.N < 1 || opt.Nz < 1 {
		return nil, diag.Errorf(diag.RuleProgram, "compiler: grid %dx%dx%d invalid", opt.N, opt.N, opt.Nz)
	}
	bases := make([]int, len(parsed))
	maxBase := 0
	for i, st := range parsed {
		bases[i] = stmtBase(st, opt)
		if bases[i] > maxBase {
			maxBase = bases[i]
		}
	}
	decls, err := programDecls(parsed, opt, maxBase)
	if err != nil {
		return nil, err
	}

	ed := editor.New(inv, "compiled")
	for _, d := range decls {
		if err := ed.Declare(d); err != nil {
			// A plane outside the node, or a variable whose padded
			// length overflows its plane.
			return nil, diag.Errorf(diag.RuleCapacity, "compiler: %w", err)
		}
	}
	out := &ProgramResult{}
	for i, st := range parsed {
		if i > 0 {
			ed.NewPipeline(fmt.Sprintf("stmt%d", i))
		}
		res, err := compileStmt(ed, st, inv, opt, bases[i])
		if err != nil {
			return nil, stmtErr(err, i)
		}
		out.Stmts = append(out.Stmts, res)
		if err := ed.AddFlow(diagram.FlowOp{Pipe: i}); err != nil {
			return nil, err
		}
	}
	ed.Doc.Flow[len(ed.Doc.Flow)-1].Cond = diagram.CondHalt
	ed.Doc.Name = "compiled-program"
	out.Doc = ed.Doc
	for _, r := range out.Stmts {
		r.Doc = ed.Doc
	}
	return out, nil
}

// stmtBase computes a statement's alignment base (max positive
// flattened shift).
func stmtBase(st *Stmt, opt Options) int {
	base := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		if n.Kind == "var" {
			if off := n.DX + n.DY*opt.N + n.DZ*opt.N*opt.N; off > base {
				base = off
			}
		}
		walk(n.L)
		walk(n.R)
	}
	walk(st.Expr)
	return base
}

// varNames lists the distinct variables an expression references.
func varNames(n *Node) []string {
	seen := map[string]bool{}
	var names []string
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		if n.Kind == "var" && !seen[n.Name] {
			seen[n.Name] = true
			names = append(names, n.Name)
		}
		walk(n.L)
		walk(n.R)
	}
	walk(n)
	return names
}

// Compile translates one stencil assignment into a pipeline diagram
// document, using the editor (and therefore the checker) for every
// construction step.
func Compile(src string, inv *arch.Inventory, opt Options) (*Result, error) {
	prog, err := CompileProgram([]string{src}, inv, opt)
	if err != nil {
		return nil, err
	}
	return prog.Stmts[0], nil
}

// compileStmt emits one statement into the editor's current pipeline.
// Variable declarations (with program-wide padding) are the caller's
// responsibility.
func compileStmt(ed *editor.Editor, st *Stmt, inv *arch.Inventory, opt Options, base int) (*Result, error) {
	res := &Result{Base: base}
	// --- CSE over the AST. ---
	dag := map[string]*dagNode{}
	var intern func(n *Node) *dagNode
	intern = func(n *Node) *dagNode {
		k := n.key()
		if d, ok := dag[k]; ok {
			d.uses++
			return d
		}
		d := &dagNode{n: n, uses: 1, isConst: n.Kind == "num"}
		dag[k] = d
		if n.L != nil {
			intern(n.L)
		}
		if n.R != nil {
			intern(n.R)
		}
		return d
	}
	root := intern(st.Expr)
	if root.isConst {
		return nil, diag.Errorf(diag.RuleConstExpr, "compiler: expression folds to the constant %g; nothing to stream", root.n.Val)
	}

	// --- Collect variable references. ---
	cells := opt.N * opt.N * opt.Nz
	type varInfo struct {
		name    string
		offsets map[int]bool
	}
	vars := map[string]*varInfo{}
	minOff := 0
	for _, d := range dag {
		if d.n.Kind != "var" {
			continue
		}
		off := d.n.DX + d.n.DY*opt.N + d.n.DZ*opt.N*opt.N
		vi := vars[d.n.Name]
		if vi == nil {
			vi = &varInfo{name: d.n.Name, offsets: map[int]bool{}}
			vars[d.n.Name] = vi
		}
		vi.offsets[off] = true
		if off < minOff {
			minOff = off
		}
	}
	if len(vars) == 0 {
		return nil, diag.Errorf(diag.RuleConstExpr, "compiler: expression references no variables")
	}

	// Shifted variables stream through shift/delay units; plain
	// variables stream directly with a skip of `base`.
	var shifted, plain []*varInfo
	for _, vi := range vars {
		if len(vi.offsets) > 1 || !vi.offsets[0] {
			shifted = append(shifted, vi)
		} else {
			plain = append(plain, vi)
		}
	}
	sort.Slice(shifted, func(i, j int) bool { return shifted[i].name < shifted[j].name })
	sort.Slice(plain, func(i, j int) bool { return plain[i].name < plain[j].name })
	cfg := inv.Cfg
	if len(shifted) > cfg.ShiftDelayUnits {
		return nil, diag.Errorf(diag.RuleCapacity, "compiler: %d shifted variables exceed the %d shift/delay units", len(shifted), cfg.ShiftDelayUnits)
	}
	if base-minOff > cfg.SDUBufferLen {
		return nil, diag.Errorf(diag.RuleCapacity, "compiler: stencil span %d exceeds the SDU buffer %d", base-minOff, cfg.SDUBufferLen)
	}

	// --- Build the diagram through the editor (declarations are the
	// program level's responsibility). ---
	streamLen := int64(cells + base)
	// Place source plane icons and SDUs; record the producing pad for
	// every (var, offset).
	leafPad := map[string]diagram.PadRef{}
	y := 1
	for si, vi := range shifted {
		m, err := ed.Place(diagram.IconMemPlane, "M"+vi.name, 1, y, opt.Planes[vi.name])
		if err != nil {
			return nil, err
		}
		m.RdDMA = &diagram.DMASpec{Var: vi.name, Stride: 1, Count: streamLen}
		z, err := ed.Place(diagram.IconSDU, fmt.Sprintf("Z%d", si), 16, y, 0)
		if err != nil {
			return nil, err
		}
		offs := make([]int, 0, len(vi.offsets))
		for o := range vi.offsets {
			offs = append(offs, o)
		}
		sort.Ints(offs)
		if len(offs) > cfg.SDUTaps {
			return nil, diag.Errorf(diag.RuleCapacity, "compiler: %q needs %d taps, machine has %d", vi.name, len(offs), cfg.SDUTaps)
		}
		taps := make([]int, len(offs))
		for t, o := range offs {
			taps[t] = base - o
			leafPad[fmt.Sprintf("%s@%d", vi.name, o)] = diagram.PadRef{Icon: z.ID, Pad: fmt.Sprintf("t%d", t)}
		}
		if err := ed.SetTaps(z.Name, taps); err != nil {
			return nil, err
		}
		if err := ed.Connect(m.Name+".rd", z.Name+".in", 0); err != nil {
			return nil, err
		}
		res.Taps += len(taps)
		y += len(taps) + 4
	}
	for _, vi := range plain {
		m, err := ed.Place(diagram.IconMemPlane, "M"+vi.name, 1, y, opt.Planes[vi.name])
		if err != nil {
			return nil, err
		}
		m.RdDMA = &diagram.DMASpec{Var: vi.name, Stride: 1, Count: int64(cells), Skip: int64(base)}
		leafPad[fmt.Sprintf("%s@0", vi.name)] = diagram.PadRef{Icon: m.ID, Pad: "rd"}
		y += 5
	}

	// --- Map DAG operations onto function units. ---
	mapper := &unitMapper{ed: ed, inv: inv}
	order := topoOrder(root, dag)
	padName := func(pr diagram.PadRef) string {
		ic, err := ed.Current().Icon(pr.Icon)
		if err != nil {
			return ""
		}
		return ic.Name + "." + pr.Pad
	}
	for _, d := range order {
		switch d.n.Kind {
		case "num":
			continue
		case "var":
			d.pad = leafPad[fmt.Sprintf("%s@%d", d.n.Name, d.n.DX+d.n.DY*opt.N+d.n.DZ*opt.N*opt.N)]
			d.mapped = true
			continue
		}
		op, err := opFor(d.n.Kind)
		if err != nil {
			return nil, err
		}
		l := dag[d.n.L.key()]
		var r *dagNode
		if d.n.R != nil {
			r = dag[d.n.R.key()]
		}
		// Constants bind to operand sides; commutative ops prefer the
		// constant on B.
		u := diagram.UnitConfig{Op: op}
		var wireA, wireB *diagram.PadRef
		switch {
		case r == nil: // unary
			if l.isConst {
				return nil, diag.Errorf(diag.RuleConstExpr, "compiler: unary %s of a constant should have folded", d.n.Kind)
			}
			wireA = &l.pad
		case l.isConst && r.isConst:
			return nil, diag.Errorf(diag.RuleConstExpr, "compiler: %s of two constants should have folded", d.n.Kind)
		case r.isConst:
			cv := r.n.Val
			u.ConstB = &cv
			wireA = &l.pad
		case l.isConst:
			cv := l.n.Val
			if commutative(op) {
				u.ConstB = &cv
				wireA = &r.pad
			} else {
				u.ConstA = &cv
				wireB = &r.pad
			}
		default:
			wireA = &l.pad
			wireB = &r.pad
		}
		sr, err := mapper.assign(op)
		if err != nil {
			return nil, err
		}
		if err := ed.SetOp(sr.icon.Name, sr.slot, u); err != nil {
			return nil, err
		}
		if wireA != nil {
			if err := ed.Connect(padName(*wireA), fmt.Sprintf("%s.u%d.a", sr.icon.Name, sr.slot), 0); err != nil {
				return nil, err
			}
		}
		if wireB != nil {
			if err := ed.Connect(padName(*wireB), fmt.Sprintf("%s.u%d.b", sr.icon.Name, sr.slot), 0); err != nil {
				return nil, err
			}
		}
		d.pad = diagram.PadRef{Icon: sr.icon.ID, Pad: fmt.Sprintf("u%d.o", sr.slot)}
		d.mapped = true
		res.FUsUsed++
	}

	// --- Destination sink. ---
	md, err := ed.Place(diagram.IconMemPlane, "Mdst", 90, 4, opt.Planes[st.Dst])
	if err != nil {
		return nil, err
	}
	md.WrDMA = &diagram.DMASpec{Var: st.Dst, Stride: 1, Count: int64(cells), Skip: int64(base)}
	if err := ed.Connect(padName(root.pad), md.Name+".wr", 0); err != nil {
		return nil, err
	}

	res.Doc = ed.Doc
	res.ALSs = mapper.placed
	return res, nil
}

// topoOrder returns the DAG nodes in dependency order, leaves first.
func topoOrder(root *dagNode, dag map[string]*dagNode) []*dagNode {
	var order []*dagNode
	seen := map[string]bool{}
	var visit func(n *Node)
	visit = func(n *Node) {
		k := n.key()
		if seen[k] {
			return
		}
		seen[k] = true
		if n.L != nil {
			visit(n.L)
		}
		if n.R != nil {
			visit(n.R)
		}
		order = append(order, dag[k])
	}
	visit(root.n)
	return order
}

func opFor(kind string) (arch.Op, error) {
	switch kind {
	case "add":
		return arch.OpAdd, nil
	case "sub":
		return arch.OpSub, nil
	case "mul":
		return arch.OpMul, nil
	case "div":
		return arch.OpDiv, nil
	case "neg":
		return arch.OpNeg, nil
	case "abs":
		return arch.OpAbs, nil
	case "min":
		return arch.OpMin, nil
	case "max":
		return arch.OpMax, nil
	}
	return arch.OpNop, diag.Errorf(diag.RuleProgram, "compiler: no functional-unit op for %q", kind)
}

func commutative(op arch.Op) bool {
	switch op {
	case arch.OpAdd, arch.OpMul, arch.OpMin, arch.OpMax:
		return true
	}
	return false
}

// unitMapper hands out function-unit slots, honouring the ALS
// capability asymmetries: min/max operations must land on a min/max
// slot, and plain slots are preferred for plain operations so the
// special ones stay available.
type unitMapper struct {
	ed     *editor.Editor
	inv    *arch.Inventory
	placed int

	freePlain []slotRef // float-only slots
	freeI     []slotRef // integer-capable slots
	freeM     []slotRef // min/max-capable slots
}

// placeNext places another ALS icon (largest remaining first) and
// distributes its slots into the capability pools.
func (m *unitMapper) placeNext() error {
	order := []struct {
		kind diagram.IconKind
		als  arch.ALSKind
	}{
		{diagram.IconTriplet, arch.Triplet},
		{diagram.IconDoublet, arch.Doublet},
		{diagram.IconSinglet, arch.Singlet},
	}
	for _, cand := range order {
		used := m.ed.Current().CountKind(cand.kind)
		if cand.kind == diagram.IconTriplet {
			used = m.ed.Current().CountKind(diagram.IconTriplet)
		}
		if used >= m.inv.Cfg.ALSOfKind(cand.als) {
			continue
		}
		name := fmt.Sprintf("A%d", m.placed)
		ic, err := m.ed.Place(cand.kind, name, 34+(m.placed%4)*16, 1+(m.placed/4)*11, 0)
		if err != nil {
			continue
		}
		m.placed++
		hw := cand.als.Units()
		for slot := 0; slot < ic.Kind.ActiveUnits(); slot++ {
			sr := slotRef{icon: ic, slot: slot, cap: arch.CapFloat}
			if hw > 1 && slot == 0 {
				sr.cap |= arch.CapInteger
				m.freeI = append(m.freeI, sr)
			} else if hw > 1 && slot == hw-1 {
				sr.cap |= arch.CapMinMax
				m.freeM = append(m.freeM, sr)
			} else {
				m.freePlain = append(m.freePlain, sr)
			}
		}
		return nil
	}
	return diag.Errorf(diag.RuleCapacity, "compiler: expression needs more function units than the node provides")
}

// assign pops a slot able to perform op.
func (m *unitMapper) assign(op arch.Op) (slotRef, error) {
	needs := op.Info().Needs
	pop := func(pool *[]slotRef) slotRef {
		sr := (*pool)[0]
		*pool = (*pool)[1:]
		return sr
	}
	for tries := 0; tries < 32; tries++ {
		switch {
		case needs.Has(arch.CapMinMax):
			if len(m.freeM) > 0 {
				return pop(&m.freeM), nil
			}
		case needs.Has(arch.CapInteger):
			if len(m.freeI) > 0 {
				return pop(&m.freeI), nil
			}
		default:
			if len(m.freePlain) > 0 {
				return pop(&m.freePlain), nil
			}
			if len(m.freeI) > 0 {
				return pop(&m.freeI), nil
			}
			if len(m.freeM) > 0 {
				return pop(&m.freeM), nil
			}
		}
		if err := m.placeNext(); err != nil {
			return slotRef{}, err
		}
	}
	return slotRef{}, diag.Errorf(diag.RuleCapacity, "compiler: unit assignment did not converge")
}
