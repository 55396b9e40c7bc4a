//! One-call front door from `.mat` program text to a runnable job.
//!
//! The multi-tenant job service (crate `matryoshka-service`) and the
//! submission server admit programs *before* queueing them: a submission
//! whose text fails to parse, or that the static analyzer rejects with
//! `MAT0xx` error diagnostics, is turned away at admission and never
//! occupies scheduler state. [`prepare_program`] packages that gate — parse,
//! analyze once, and rewrite on the analyzer's decisions — and returns a
//! [`PreparedProgram`] that can later be executed on any engine, any number
//! of times.

use std::collections::HashMap;

use matryoshka_core::MatryoshkaConfig;
use matryoshka_engine::{Bag, Engine};

use crate::analyze::{analyze, source_names, Analysis, Diagnostics};
use crate::ast::Expr;
use crate::error::IrResult;
use crate::lower::{Lowering, RtVal};
use crate::parse::{rewrite, Dialect};
use crate::syntax::{parse_program, ParseError};
use crate::value::Value;

/// Why a program failed preparation (admission-time rejection reasons).
#[derive(Debug, Clone, PartialEq)]
pub enum PrepareError {
    /// The text is not a syntactically valid program.
    Parse(ParseError),
    /// The analyzer found error-severity `MAT0xx` diagnostics.
    Analysis(Diagnostics),
}

impl PrepareError {
    /// The `MAT0xx` diagnostics, when the analyzer did the rejecting.
    pub fn diagnostics(&self) -> Option<&Diagnostics> {
        match self {
            PrepareError::Analysis(d) => Some(d),
            _ => None,
        }
    }
}

impl std::fmt::Display for PrepareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrepareError::Parse(e) => write!(f, "{e}"),
            PrepareError::Analysis(d) => write!(f, "analysis rejected the program: {d}"),
        }
    }
}

impl std::error::Error for PrepareError {}

/// A program that passed the admission gate: parsed, analyzer-clean, and
/// rewritten by the parsing phase. Reusable across engines and runs.
#[derive(Debug, Clone)]
pub struct PreparedProgram {
    /// The parsing-phase output (the flattened program the lowering runs).
    pub expr: Expr,
    /// Source (input bag) names the program reads, in first-use order.
    pub sources: Vec<String>,
    /// Dialect the program was checked under.
    pub dialect: Dialect,
    /// The full analyzer result (warnings survive admission and can be
    /// reported back to the submitter).
    pub analysis: Analysis,
}

impl PreparedProgram {
    /// Execute the prepared program on `engine`, binding each name of
    /// [`PreparedProgram::sources`] through `inputs`.
    pub fn run(
        &self,
        engine: Engine,
        config: MatryoshkaConfig,
        inputs: &HashMap<String, Bag<Value>>,
    ) -> IrResult<RtVal> {
        Lowering::new(engine, config).run(&self.expr, inputs)
    }
}

/// Parse, analyze (gating on error diagnostics), and rewrite a program.
///
/// The `sources` argument of [`analyze`] is derived from the program itself
/// ([`source_names`]), matching the `matryoshka-check` CLI's behavior: any
/// `source(name)` is a declared input, and the job runner is responsible
/// for binding every name in [`PreparedProgram::sources`].
pub fn prepare_program(src: &str, dialect: Dialect) -> Result<PreparedProgram, PrepareError> {
    let ast = parse_program(src).map_err(PrepareError::Parse)?;
    let sources = source_names(&ast);
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let analysis = analyze(&ast, &refs, dialect);
    if analysis.diagnostics.has_errors() {
        return Err(PrepareError::Analysis(analysis.diagnostics));
    }
    let expr = rewrite(&ast, &analysis);
    Ok(PreparedProgram { expr, sources, dialect, analysis })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepares_and_runs_a_clean_program() {
        let p = prepare_program(
            "map(reduceByKey(source(xs), (a, b) => a + b), x => (x.0, x.1 * 2))",
            Dialect::Matryoshka,
        )
        .expect("clean program prepares");
        assert_eq!(p.sources, vec!["xs".to_string()]);
        let e = Engine::local();
        let xs = e.parallelize(
            vec![
                Value::tuple(vec![Value::Long(1), Value::Long(2)]),
                Value::tuple(vec![Value::Long(1), Value::Long(3)]),
            ],
            2,
        );
        let inputs = HashMap::from([("xs".to_string(), xs)]);
        let out = p.run(e, MatryoshkaConfig::default(), &inputs).expect("runs");
        match out {
            RtVal::Bag(b) => {
                let vals = b.collect().expect("collect");
                assert_eq!(vals.len(), 1);
            }
            other => panic!("expected a bag, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        let err = prepare_program("map(", Dialect::Matryoshka).unwrap_err();
        assert!(matches!(err, PrepareError::Parse(_)), "{err}");
        assert!(err.diagnostics().is_none());
    }

    #[test]
    fn analysis_errors_carry_mat_codes() {
        // MAT001: unbound variable.
        let err = prepare_program("map(source(xs), x => x + y)", Dialect::Matryoshka).unwrap_err();
        let diags = err.diagnostics().expect("analysis rejection");
        assert!(diags.has_errors());
        assert!(err.to_string().contains("MAT"), "{err}");
    }
}
