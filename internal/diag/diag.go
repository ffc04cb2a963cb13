// Package diag is the typed-diagnostic vocabulary of the compilation
// pipeline. Every front-end component — the diagram model, the
// checker, the stencil compiler, the microcode generator — reports
// problems as Diagnostic records carrying a stable rule code, a
// severity, and a location (pipeline, diagram icon, or source span)
// instead of bare error strings, so editors and CI can render findings
// at the offending block and tests can assert on codes rather than
// message prose.
//
// The package is a dependency leaf: it imports nothing from the repo,
// which lets diagram (the bottom of the front-end stack) and
// internal/pipeline (the top) share one diagnostic currency without
// cycles.
package diag

import (
	"encoding/json"
	"fmt"
)

// Severity grades a diagnostic.
type Severity int

// Diagnostic severities.
const (
	// Warning marks suspicious but generatable constructs.
	Warning Severity = iota
	// Error marks constructs the microcode generator will refuse.
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// MarshalJSON encodes the severity as its lowercase name, the form the
// nscasm -diag-json consumers read.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts the name form produced by MarshalJSON.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	if name == "error" {
		*s = Error
	} else {
		*s = Warning
	}
	return nil
}

// IconID identifies an icon within one pipeline diagram. The canonical
// definition lives here so diagnostics can point at diagram nodes
// without importing the diagram package; diagram.IconID aliases it.
type IconID int

// Span locates a diagnostic in compiled source text: the statement
// index within the program and the rune position within the statement.
type Span struct {
	// Stmt is the zero-based statement index.
	Stmt int `json:"stmt"`
	// Pos is the zero-based rune offset within the statement.
	Pos int `json:"pos"`
}

func (sp Span) String() string { return fmt.Sprintf("stmt %d pos %d", sp.Stmt, sp.Pos) }

// Diagnostic is one finding of a pipeline pass. Rule is a stable code
// from the R001–R024 checker block or the R030+ front-end block below.
type Diagnostic struct {
	Rule     string   `json:"code"`
	Severity Severity `json:"severity"`
	// Pipe is the diagram pipeline index, or -1 when not
	// pipeline-specific.
	Pipe int `json:"pipe"`
	// Icon is the diagram node the finding anchors to, or -1 when not
	// icon-specific.
	Icon IconID `json:"icon"`
	// Span locates the finding in compiled source text, when the
	// diagnostic originated from a source statement rather than a
	// diagram edit.
	Span *Span  `json:"span,omitempty"`
	Msg  string `json:"msg"`
	// Hint optionally suggests a fix.
	Hint string `json:"hint,omitempty"`
}

func (d Diagnostic) String() string {
	loc := fmt.Sprintf("pipe %d", d.Pipe)
	if d.Icon >= 0 {
		loc += fmt.Sprintf(" icon #%d", d.Icon)
	}
	if d.Span != nil {
		loc += " " + d.Span.String()
	}
	s := fmt.Sprintf("%s %s [%s]: %s", d.Severity, d.Rule, loc, d.Msg)
	if d.Hint != "" {
		s += " (hint: " + d.Hint + ")"
	}
	return s
}

// Diagnostics is an ordered finding list, the carrier every pipeline
// pass appends to.
type Diagnostics []Diagnostic

// DiagError is a single diagnostic in error clothing: the typed
// replacement for the front end's bare fmt.Errorf sites. Its message
// is the diagnostic message verbatim, so existing error-string
// expectations keep holding while callers gain the structured record.
type DiagError struct {
	D Diagnostic
	// wrapped preserves an underlying cause for errors.Is/As chains.
	wrapped error
}

func (e *DiagError) Error() string { return e.D.Msg }

// Unwrap exposes the wrapped cause, if any.
func (e *DiagError) Unwrap() error { return e.wrapped }

// Rule returns the diagnostic's stable code.
func (e *DiagError) Rule() string { return e.D.Rule }

// WithStmt returns a copy of the error located at statement stmt, with
// the message prefixed the way the seed compiler prefixed wrapped
// statement errors.
func (e *DiagError) WithStmt(stmt int, prefix string) *DiagError {
	d := e.D
	if d.Span == nil {
		d.Span = &Span{Stmt: stmt, Pos: -1}
	} else {
		sp := *d.Span
		sp.Stmt = stmt
		d.Span = &sp
	}
	if prefix != "" {
		d.Msg = prefix + d.Msg
	}
	return &DiagError{D: d, wrapped: e.wrapped}
}

// Errorf builds a typed error-severity diagnostic error. The format
// verbs behave exactly like fmt.Errorf, including %w wrapping.
func Errorf(rule string, format string, args ...any) *DiagError {
	err := fmt.Errorf(format, args...)
	return &DiagError{
		D:       Diagnostic{Rule: rule, Severity: Error, Pipe: -1, Icon: -1, Msg: err.Error()},
		wrapped: err,
	}
}

// ErrorfAt is Errorf anchored to a source position (rune offset);
// the statement index is attached later by the program-level wrapper.
func ErrorfAt(rule string, pos int, format string, args ...any) *DiagError {
	e := Errorf(rule, format, args...)
	e.D.Span = &Span{Stmt: -1, Pos: pos}
	return e
}

// AsDiagnostic converts any error to a Diagnostic: typed errors pass
// their record through; everything else becomes an error-severity
// record under the fallback rule.
func AsDiagnostic(err error, fallbackRule string) Diagnostic {
	if de, ok := err.(*DiagError); ok {
		return de.D
	}
	return Diagnostic{Rule: fallbackRule, Severity: Error, Pipe: -1, Icon: -1, Msg: err.Error()}
}
