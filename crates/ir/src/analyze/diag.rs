//! The diagnostics engine of the static analyzer: stable error codes
//! (`MAT0xx`), severities, source spans, and a collection type that keeps
//! reporting after the first problem (the analyzer is total — it assigns
//! `Ty::Unknown` to ill-typed subtrees and keeps walking, so one run reports
//! every independent defect).
//!
//! Rendering (caret-style, compiler-like) lives in [`crate::pretty`], next
//! to the other printers; this module owns the data model.

use std::fmt;

use crate::ast::Span;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The program is still executable, but something is suspicious.
    Warning,
    /// The program must not be lowered; no engine job may launch.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable machine-readable diagnostic codes. The code of a given defect
/// never changes; new codes are appended. `MAT0xx` are errors, `MAT09x`
/// are warnings.
pub mod codes {
    /// Unbound variable.
    pub const UNBOUND_VAR: &str = "MAT001";
    /// Unknown source (input bag) name.
    pub const UNBOUND_SOURCE: &str = "MAT002";
    /// Tuple projection applied to a bag-typed expression.
    pub const PROJ_ON_BAG: &str = "MAT003";
    /// A bag inside a tuple (violates the Theorem 1 precondition that bags
    /// do not nest inside other data structures, paper Sec. 7).
    pub const BAG_IN_TUPLE: &str = "MAT004";
    /// The branches of an `if` (or the sides of a `union`) disagree in type.
    pub const BRANCH_MISMATCH: &str = "MAT005";
    /// Bag operations inside an aggregation UDF (reduceByKey/fold — outside
    /// the flattening's completeness preconditions, paper Sec. 7).
    pub const BAG_OP_IN_AGG: &str = "MAT006";
    /// Bag operations inside a filter/flatMap UDF (the paper eliminates
    /// these by splitting, Sec. 4.6; this IR requires a map).
    pub const BAG_OP_IN_SCALAR_UDF: &str = "MAT007";
    /// More than two levels of nested parallel operations (the IR dialect's
    /// limit; the typed API in matryoshka-core supports deeper nesting).
    pub const TOO_DEEP: &str = "MAT008";
    /// Control flow inside a lifted UDF under the DIQL-like dialect
    /// (paper Sec. 9.1: DIQL does not support inner control flow).
    pub const DIQL_INNER_CONTROL_FLOW: &str = "MAT009";
    /// A UDF captures or returns an inner bag: inner bags cannot escape
    /// their group (leaf UDFs may only capture scalars).
    pub const INNER_BAG_ESCAPE: &str = "MAT010";
    /// A bag operation or scalar operator applied to an operand of the
    /// wrong kind (count of a scalar, arithmetic on a bag, map over a
    /// scalar, ...).
    pub const KIND_MISMATCH: &str = "MAT011";
    /// A loop variable changes type between its initializer and its step
    /// expression.
    pub const LOOP_SHAPE_CHANGE: &str = "MAT012";
    /// A condition (of `if`, a loop, or a filter) is not scalar-typed.
    pub const NON_SCALAR_COND: &str = "MAT013";
    /// Tuple projection index provably out of bounds.
    pub const PROJ_OUT_OF_BOUNDS: &str = "MAT014";
    /// A `let` binding that is never used (warning).
    pub const UNUSED_BINDING: &str = "MAT090";
    /// A binding shadows an enclosing binding of the same name (warning).
    pub const SHADOWED_BINDING: &str = "MAT091";
    /// The plan-rewrite pass hoisted a loop-invariant subplan out of a loop
    /// and materialized it once (informational warning; the rewrite is
    /// provably result-preserving).
    pub const PLAN_HOIST: &str = "MAT093";
    /// A loop-invariant hoist candidate was found but blocked (e.g. it names
    /// a loop variable deeper down, or sits behind an explicit `cache`
    /// barrier); the message says why.
    pub const PLAN_HOIST_BLOCKED: &str = "MAT094";
    /// The plan-rewrite pass merged structurally identical subplans (CSE)
    /// or cached a subplan with more than one consumer.
    pub const PLAN_CSE: &str = "MAT095";
    /// The plan-rewrite pass dropped a pure operator whose output is never
    /// consumed (dead-operator elimination).
    pub const PLAN_DEAD_OP: &str = "MAT096";

    /// The full code table: `(code, severity-is-error, summary)`. Kept in
    /// one place so the docs (`docs/ANALYSIS.md`) and the golden tests can
    /// assert it is exhaustive and stable.
    pub const TABLE: &[(&str, bool, &str)] = &[
        (UNBOUND_VAR, true, "unbound variable"),
        (UNBOUND_SOURCE, true, "unknown source name"),
        (PROJ_ON_BAG, true, "projection on a bag-typed expression"),
        (BAG_IN_TUPLE, true, "bag inside a tuple (Sec. 7 precondition)"),
        (BRANCH_MISMATCH, true, "branch/union type mismatch"),
        (BAG_OP_IN_AGG, true, "bag operations inside an aggregation UDF"),
        (BAG_OP_IN_SCALAR_UDF, true, "bag operations inside a filter/flatMap UDF"),
        (TOO_DEEP, true, "more than two levels of nested parallelism"),
        (DIQL_INNER_CONTROL_FLOW, true, "control flow inside a lifted UDF (DIQL dialect)"),
        (INNER_BAG_ESCAPE, true, "inner bag escapes its group"),
        (KIND_MISMATCH, true, "operator applied to the wrong kind of operand"),
        (LOOP_SHAPE_CHANGE, true, "loop variable changes type between init and step"),
        (NON_SCALAR_COND, true, "non-scalar condition"),
        (PROJ_OUT_OF_BOUNDS, true, "tuple projection index out of bounds"),
        (UNUSED_BINDING, false, "unused let binding"),
        (SHADOWED_BINDING, false, "binding shadows an enclosing binding"),
        (PLAN_HOIST, false, "loop-invariant subplan hoisted and materialized"),
        (PLAN_HOIST_BLOCKED, false, "loop-invariant hoist blocked"),
        (PLAN_CSE, false, "common subplan merged / multi-consumer subplan cached"),
        (PLAN_DEAD_OP, false, "dead operator eliminated"),
    ];
}

/// One analyzer finding: a stable code, a severity, a message, and — when
/// the program came from the text front-end — a byte span into the source.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code from [`codes`].
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Byte span into the source text, when known (ASTs built in Rust carry
    /// no spans).
    pub span: Option<Span>,
    /// Human-readable description of the defect.
    pub message: String,
    /// Optional follow-up hint ("help: ...").
    pub note: Option<String>,
    /// A re-rendered snippet of the offending expression
    /// ([`crate::pretty::to_source`]), for programs without source text.
    pub snippet: Option<String>,
}

impl Diagnostic {
    /// Construct an error diagnostic.
    pub fn error(code: &'static str, span: Option<Span>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            span,
            message: message.into(),
            note: None,
            snippet: None,
        }
    }

    /// Construct a warning diagnostic.
    pub fn warning(
        code: &'static str,
        span: Option<Span>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Warning,
            span,
            message: message.into(),
            note: None,
            snippet: None,
        }
    }

    /// Attach a help note.
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.note = Some(note.into());
        self
    }

    /// Attach a re-rendered program snippet.
    pub fn with_snippet(mut self, snippet: impl Into<String>) -> Diagnostic {
        self.snippet = Some(snippet.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(sp) = self.span {
            write!(f, " (bytes {}..{})", sp.start, sp.end)?;
        }
        if let Some(s) = &self.snippet {
            write!(f, " in `{s}`")?;
        }
        if let Some(n) = &self.note {
            write!(f, "; help: {n}")?;
        }
        Ok(())
    }
}

/// An ordered collection of diagnostics from one analyzer run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diagnostics {
    diags: Vec<Diagnostic>,
}

impl Diagnostics {
    /// The empty collection.
    pub fn new() -> Diagnostics {
        Diagnostics::default()
    }

    /// Append a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// All diagnostics, in the order the analyzer found them (pre-order
    /// over the AST).
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter()
    }

    /// Total number of diagnostics.
    pub fn len(&self) -> usize {
        self.diags.len()
    }

    /// No diagnostics at all?
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// Any error-severity diagnostic?
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diags.iter().filter(|d| d.severity == Severity::Error).count()
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.diags.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_table_is_unique_and_complete() {
        let mut seen = std::collections::HashSet::new();
        for (code, _, _) in codes::TABLE {
            assert!(seen.insert(*code), "duplicate code {code}");
            assert!(code.starts_with("MAT"), "bad code prefix {code}");
            assert_eq!(code.len(), 6, "codes are MAT + 3 digits: {code}");
        }
        // Warnings are the MAT09x block.
        for (code, is_error, _) in codes::TABLE {
            let warn_block = code.starts_with("MAT09");
            assert_eq!(!is_error, warn_block, "{code} severity does not match its block");
        }
    }

    #[test]
    fn display_includes_code_span_and_note() {
        let d = Diagnostic::error(codes::BAG_IN_TUPLE, Some(Span::new(3, 9)), "a bag in a tuple")
            .with_note("wrap it in a count() or restructure");
        let s = d.to_string();
        assert!(s.contains("error[MAT004]"), "{s}");
        assert!(s.contains("bytes 3..9"), "{s}");
        assert!(s.contains("help:"), "{s}");
    }

    #[test]
    fn has_errors_distinguishes_warnings() {
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::warning(codes::UNUSED_BINDING, None, "unused"));
        assert!(!ds.has_errors());
        assert_eq!(ds.len(), 1);
        ds.push(Diagnostic::error(codes::UNBOUND_VAR, None, "nope"));
        assert!(ds.has_errors());
        assert_eq!(ds.error_count(), 1);
    }
}
