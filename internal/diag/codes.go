package diag

// Front-end diagnostic codes. The checker owns the R001–R024 block
// (see internal/checker); this block extends it with the codes the
// rest of the source-to-microcode path emits. Codes are stable
// strings: tests, the editor message strip and -diag-json consumers
// key on them, so a code is never renumbered or reused. Every code
// declared here must be produced by at least one test — the rule-
// coverage gate in internal/checker/coverage_frontend_test.go scans
// this file and fails the build otherwise.
const (
	// RuleParseSyntax marks a source statement the stencil-language
	// parser rejects (unexpected token, malformed number or shift,
	// trailing input).
	RuleParseSyntax = "R030"
	// RuleConstExpr marks an expression that folds to a constant or
	// references no grid variables — there is nothing to stream.
	RuleConstExpr = "R031"
	// RuleNoPlane marks a referenced variable with no memory-plane
	// assignment in the compile options.
	RuleNoPlane = "R032"
	// RuleCapacity marks a statement whose stencil shape exceeds the
	// machine: too many shifted variables for the SDUs, too many taps,
	// a span beyond the SDU buffer, more operations than the node's
	// function units, or a variable mapped to a plane the node lacks or
	// padded past the end of its plane. It also marks a variable
	// declaration, typed in the editor or stored in a document, that
	// has no name, names a plane the node lacks or does not fit its
	// plane (checker.CanDeclare).
	RuleCapacity = "R033"
	// RuleGenResource marks microcode generation running out of a
	// physical resource (ALSs, shift/delay units, constant-pool slots).
	RuleGenResource = "R034"
	// RuleGenStruct marks a structural inconsistency found while
	// lowering a checked document (a write DMA without a wire, an
	// unconfigured tap, a non-producing pad used as a source, an
	// undeclared variable reaching address resolution).
	RuleGenStruct = "R035"
	// RuleFlowGen marks control-flow lowering errors: a document with
	// no pipelines, or a flow op falling off the end of the program.
	RuleFlowGen = "R036"
	// RuleDiagram marks diagram-model structural errors: unknown
	// pipelines, icons or pads, duplicate icon names, wiring an input
	// as a source, driving a pad twice, negative wire delays.
	RuleDiagram = "R037"
	// RuleProgram marks program-level compile errors: an empty
	// statement list or an invalid grid.
	RuleProgram = "R038"
	// RuleDocIO marks a semantic document that failed to decode or has
	// a shape the editor never writes (diagram.Load lists them).
	RuleDocIO = "R039"
	// RuleFaultPlan marks a malformed -faults/-kill fault-plan spec:
	// an unparseable token, a bad phase/kind/option, a stall past 1<<32
	// cycles, a seeded plan past 1<<16 events, or duplicate events
	// targeting the same (sweep, phase, rank). engine.Run also raises
	// it before the first sweep for an event outside the starting
	// machine: a dispatch rank ≥ P, an exchange pair ≥ P−1 or a merge
	// round ≥ the combine tree's depth. Machine.AddSpares raises it for
	// a -spares pool below 0 or past 1<<10 boards, the -ecc-faults
	// parsers (sim.ParseECCFault, hypercube.ParseRankECCFaults) for a
	// malformed event, naming its bad field, and InjectECC
	// (sim.Node's, hypercube.Machine's) for an event outside the
	// machine, naming its rank, plane or address.
	RuleFaultPlan = "R040"
	// RuleNonFinite marks a NaN or ±Inf operation constant, reduction
	// initial value or compare threshold. A document's JSON form cannot
	// hold one, and the editor's undo stack and the compile-cache key
	// both serialize the document.
	RuleNonFinite = "R041"
	// RuleCheckpoint marks a checkpoint that cannot be restored:
	// hypercube.ReadCheckpoint and LoadCheckpointFile raise it for a
	// file they cannot open or read, a magic other than the current
	// version's, a section that is truncated or fails its checksum
	// (naming the section and byte offset), a header out of range, or
	// trailing bytes; Machine.SolveJacobi raises it for a snapshot
	// whose fabric, grid or image lengths do not match the solve.
	RuleCheckpoint = "R042"
)
