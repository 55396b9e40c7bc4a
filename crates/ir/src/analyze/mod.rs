//! Pre-lowering static analysis for the nested IR (the pass between
//! `parse_program`/hand-built ASTs and the parsing-phase rewriter).
//!
//! One [`analyze`] run performs, in a single AST walk:
//!
//! 1. **Nesting-aware type/shape checking**: every expression gets
//!    a [`Ty`] — scalar, bag, nested bag, or group pair — and programs that
//!    would fail inside the engine (bags in tuples, arithmetic on bags,
//!    three levels of parallelism, ...) are rejected *before any engine job
//!    launches*, each with a stable `MAT0xx` code and, for text programs, a
//!    byte span.
//! 2. **Closure-capture analysis** ([`captures`]): each leaf UDF's captures
//!    are enumerated and must be scalars, and inner-bag escapes are
//!    diagnosed statically.
//!
//! The analyzer is *total*: it never stops at the first defect (ill-typed
//! subtrees continue as [`Ty::Unknown`]), so one run reports every
//! independent problem. [`check`] is the hard-gate variant the parsing
//! phase calls, and through it every [`crate::Lowering`] run: it turns
//! error-severity diagnostics into [`IrError::Analysis`].
//!
//! See `docs/ANALYSIS.md` for the pass ordering and the full error-code
//! table.

pub mod captures;
mod diag;
pub mod plan;
mod ty;

pub use diag::{codes, Diagnostic, Diagnostics, Severity};
pub use ty::Ty;

use crate::ast::Expr;
use crate::error::{IrError, IrResult};
use crate::parse::Dialect;

/// The result of one analyzer run over a program.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The inferred type of the whole program.
    pub program_ty: Ty,
    /// Everything the analyzer found, in AST pre-order.
    pub diagnostics: Diagnostics,
    /// One entry per [`Expr::Map`], in the order a walk that visits a map's
    /// input, then the map, then its UDF body meets them: must the
    /// parsing phase turn it into [`Expr::MapWithLiftedUdf`]?
    pub lifts: Vec<bool>,
}

impl Analysis {
    /// Did the program pass (no error-severity diagnostics)?
    pub fn is_ok(&self) -> bool {
        !self.diagnostics.has_errors()
    }
}

/// Analyze `program` against the declared `sources` under `dialect`.
/// Always returns; inspect [`Analysis::diagnostics`] for findings.
pub fn analyze(program: &Expr, sources: &[&str], dialect: Dialect) -> Analysis {
    let mut checker = ty::Checker::new(sources, dialect);
    let program_ty = checker.infer(program, 0, program.span());
    Analysis { program_ty, diagnostics: checker.diags, lifts: checker.lifts }
}

/// Analyze and *gate*: error-severity diagnostics become
/// [`IrError::Analysis`], so no engine job can launch for a rejected
/// program. Warnings pass through inside the returned [`Analysis`].
pub fn check(program: &Expr, sources: &[&str], dialect: Dialect) -> IrResult<Analysis> {
    let a = analyze(program, sources, dialect);
    if a.diagnostics.has_errors() {
        return Err(IrError::Analysis(a.diagnostics));
    }
    Ok(a)
}

/// The source (input bag) names a program references, in first-use order.
/// Lets CLI tools derive the `sources` argument of [`analyze`] from the
/// program itself.
pub fn source_names(e: &Expr) -> Vec<String> {
    let mut out = Vec::new();
    e.visit(&mut |x| {
        if let Expr::Source(n) = x {
            if !out.iter().any(|o| o == n) {
                out.push(n.clone());
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, Lambda, Lambda2};
    use crate::syntax::parse_program;

    fn errors_of(program: &Expr, sources: &[&str]) -> Vec<&'static str> {
        analyze(program, sources, Dialect::Matryoshka)
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.code)
            .collect()
    }

    fn parse(src: &str) -> Expr {
        parse_program(src).expect("test program parses")
    }

    #[test]
    fn well_typed_programs_are_clean() {
        // Listing 1 shape: group, then aggregate per group.
        let e = parse("map(groupByKey(source(visits)), g => (g.0, count(g.1)))");
        let a = analyze(&e, &["visits"], Dialect::Matryoshka);
        assert!(a.is_ok(), "{}", a.diagnostics);
        assert_eq!(a.program_ty, Ty::Bag);
    }

    #[test]
    fn mat001_unbound_variable_with_span() {
        let src = "map(source(xs), x => x + y)";
        let e = parse(src);
        let a = analyze(&e, &["xs"], Dialect::Matryoshka);
        let d = a.diagnostics.iter().find(|d| d.code == codes::UNBOUND_VAR).expect("MAT001");
        let sp = d.span.expect("parsed programs carry spans");
        assert_eq!(&src[sp.start..sp.end], "y");
    }

    #[test]
    fn mat002_unknown_source() {
        let e = parse("count(source(nope))");
        assert_eq!(errors_of(&e, &["xs"]), vec![codes::UNBOUND_SOURCE]);
    }

    #[test]
    fn mat003_projection_on_bag() {
        let e = parse("(source(xs)).0");
        assert_eq!(errors_of(&e, &["xs"]), vec![codes::PROJ_ON_BAG]);
    }

    #[test]
    fn mat004_bag_in_tuple() {
        let e = parse("(1, source(xs))");
        assert_eq!(errors_of(&e, &["xs"]), vec![codes::BAG_IN_TUPLE]);
    }

    #[test]
    fn mat005_branch_mismatch() {
        let e = parse("if true then source(xs) else 1");
        assert_eq!(errors_of(&e, &["xs"]), vec![codes::BRANCH_MISMATCH]);
    }

    #[test]
    fn mat006_bag_ops_in_aggregation() {
        let e = parse("fold(source(xs), 0, (a, b) => a + count(source(xs)))");
        assert!(errors_of(&e, &["xs"]).contains(&codes::BAG_OP_IN_AGG));
    }

    /// A fold combiner must be closed over one value type where its shape
    /// says so, at either level; a combiner that shows nothing, or agrees
    /// with itself, is admitted.
    #[test]
    fn mat011_fold_combiner_not_closed_over_one_type() {
        let open = "(a, b) => a + b.1";
        for program in [
            format!("fold(map(source(xs), v => (v, 1)), 0, {open})"),
            format!(
                "map(groupByKey(source(xs)), g => (g.0, fold(map(g.1, v => (v, 1)), 0, {open})))"
            ),
            "fold(source(xs), (0, 0), (a, b) => (a + 1, b))".to_string(),
            "fold(source(xs), 0, (a, b) => a.0 < b)".to_string(),
        ] {
            assert_eq!(
                errors_of(&parse(&program), &["xs"]),
                vec![codes::KIND_MISMATCH],
                "{program}"
            );
        }
        for program in [
            "fold(source(xs), 0, (a, b) => a + b)",
            "fold(source(xs), (0, 0), (a, b) => (a.0 + b.0, a.1 + b.1))",
            "fold(source(xs), 0, (a, b) => if a > b then a else b)",
            "fold(source(xs), 0, (a, b) => a + (let b = (1, 2) in b.1))",
        ] {
            assert!(errors_of(&parse(program), &["xs"]).is_empty(), "{program}");
        }
    }

    #[test]
    fn mat007_bag_ops_in_filter() {
        let e = parse("filter(source(xs), x => count(source(xs)) > 0)");
        assert!(errors_of(&e, &["xs"]).contains(&codes::BAG_OP_IN_SCALAR_UDF));
    }

    #[test]
    fn mat008_three_levels_of_nesting() {
        let e =
            parse("map(groupByKey(source(xs)), g => count(map(groupByKey(g.1), h => count(h.1))))");
        let errs = errors_of(&e, &["xs"]);
        assert!(errs.contains(&codes::TOO_DEEP), "{errs:?}");
    }

    #[test]
    fn mat009_diql_rejects_inner_loops() {
        let e = parse(
            "map(groupByKey(source(xs)), g => (loop (n = count(g.1)) while n > 10 do (n - 1) yield n))",
        );
        let a = analyze(&e, &["xs"], Dialect::DiqlLike);
        assert!(a.diagnostics.iter().any(|d| d.code == codes::DIQL_INNER_CONTROL_FLOW));
        // The Matryoshka dialect accepts the same program.
        let a2 = analyze(&e, &["xs"], Dialect::Matryoshka);
        assert!(a2.is_ok(), "{}", a2.diagnostics);
    }

    #[test]
    fn mat010_combiner_captures_are_rejected() {
        // The runtime evaluates reduceByKey combiners in an empty
        // environment, so `c` would panic at job time. Must be static.
        let e = parse("let c = 1 in reduceByKey(source(xs), (a, b) => a + b + c)");
        assert!(errors_of(&e, &["xs"]).contains(&codes::INNER_BAG_ESCAPE));
    }

    #[test]
    fn mat010_bag_capture_in_leaf_udf() {
        // let ys = <bag> in map(xs, x => ys) — the leaf UDF captures a bag.
        let e = Expr::let_(
            "ys",
            Expr::Source("xs".into()),
            Expr::Map(Box::new(Expr::Source("xs".into())), Lambda::new("x", Expr::var("ys"))),
        );
        assert!(errors_of(&e, &["xs"]).contains(&codes::INNER_BAG_ESCAPE));
    }

    #[test]
    fn mat011_arithmetic_on_bags() {
        let e = parse("source(xs) + 1");
        assert_eq!(errors_of(&e, &["xs"]), vec![codes::KIND_MISMATCH]);
    }

    #[test]
    fn mat011_count_of_scalar() {
        let e = parse("count(1)");
        assert_eq!(errors_of(&e, &[]), vec![codes::KIND_MISMATCH]);
    }

    #[test]
    fn mat012_loop_variable_changes_shape() {
        let e = parse("loop (x = 1) while x > 0 do (source(xs)) yield x");
        assert!(errors_of(&e, &["xs"]).contains(&codes::LOOP_SHAPE_CHANGE));
    }

    #[test]
    fn mat013_bag_condition() {
        let e = parse("if source(xs) then 1 else 2");
        assert!(errors_of(&e, &["xs"]).contains(&codes::NON_SCALAR_COND));
    }

    #[test]
    fn mat014_projection_out_of_bounds() {
        let e = parse("(1, 2).5");
        assert_eq!(errors_of(&e, &[]), vec![codes::PROJ_OUT_OF_BOUNDS]);
        let e2 = parse("map(groupByKey(source(xs)), g => g.2)");
        assert!(errors_of(&e2, &["xs"]).contains(&codes::PROJ_OUT_OF_BOUNDS));
    }

    #[test]
    fn warnings_do_not_gate() {
        let e = parse("let unused = 1 in let x = 2 in let x = 3 in x");
        let a = analyze(&e, &[], Dialect::Matryoshka);
        assert!(a.is_ok());
        let codes_seen: Vec<_> = a.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes_seen.contains(&codes::UNUSED_BINDING));
        assert!(codes_seen.contains(&codes::SHADOWED_BINDING));
        assert!(check(&e, &[], Dialect::Matryoshka).is_ok());
    }

    #[test]
    fn check_gates_errors_as_ir_error() {
        let e = parse("count(1)");
        let err = check(&e, &[], Dialect::Matryoshka).unwrap_err();
        assert!(matches!(err, IrError::Analysis(_)));
        assert!(err.to_string().contains("MAT011"), "{err}");
    }

    #[test]
    fn analyzer_reports_multiple_independent_defects() {
        let e = parse("(count(1), unbound_name, source(nope))");
        let errs = errors_of(&e, &["xs"]);
        assert!(errs.contains(&codes::KIND_MISMATCH));
        assert!(errs.contains(&codes::UNBOUND_VAR));
        assert!(errs.contains(&codes::UNBOUND_SOURCE));
        assert!(errs.contains(&codes::BAG_IN_TUPLE));
    }

    #[test]
    fn source_names_are_derived_in_order() {
        let e = parse("union(map(source(b), x => x), filter(source(a), x => source(b) == x))");
        // Dedup keeps first-use order: b then a.
        assert_eq!(source_names(&e), vec!["b".to_string(), "a".to_string()]);
    }

    #[test]
    fn hand_built_asts_get_snippets_instead_of_spans() {
        let e = Expr::Count(Box::new(Expr::long(1)));
        let a = analyze(&e, &[], Dialect::Matryoshka);
        let d = a.diagnostics.iter().next().expect("one diagnostic");
        assert!(d.span.is_none());
        assert!(d.snippet.as_deref().unwrap_or("").contains("count"), "{d}");
    }

    #[test]
    fn snippets_cut_long_non_ascii_text_on_a_char_boundary() {
        let long = Expr::Const(crate::value::Value::Str("é".repeat(80).into()));
        let e = Expr::proj(Expr::Tuple(vec![long, Expr::long(1)]), 5);
        let a = analyze(&e, &[], Dialect::Matryoshka);
        let d = a.diagnostics.iter().next().expect("MAT014");
        assert_eq!(d.code, codes::PROJ_OUT_OF_BOUNDS);
        let snippet = d.snippet.as_deref().expect("span-less ASTs get snippets");
        assert_eq!(snippet.chars().count(), 73, "{snippet}");
        assert!(snippet.ends_with('…'), "{snippet}");
    }

    #[test]
    fn lifted_scalar_captures_in_leaf_maps_are_allowed() {
        // The half-lifted closure shape from the end-to-end tests: a leaf
        // map at lifted level captures the lifted scalar `n` (runtime
        // mapWithClosure). Must pass.
        let e = Expr::Map(
            Box::new(Expr::GroupByKey(Box::new(Expr::Source("xs".into())))),
            Lambda::new(
                "g",
                Expr::let_(
                    "n",
                    Expr::Count(Box::new(Expr::proj(Expr::var("g"), 1))),
                    Expr::Count(Box::new(Expr::Map(
                        Box::new(Expr::proj(Expr::var("g"), 1)),
                        Lambda::new("v", Expr::bin(BinOp::Add, Expr::var("v"), Expr::var("n"))),
                    ))),
                ),
            ),
        );
        let a = analyze(&e, &["xs"], Dialect::Matryoshka);
        assert!(a.is_ok(), "{}", a.diagnostics);
    }

    #[test]
    fn fold_zero_must_not_be_lifted() {
        let e = Expr::Map(
            Box::new(Expr::GroupByKey(Box::new(Expr::Source("xs".into())))),
            Lambda::new(
                "g",
                Expr::let_(
                    "n",
                    Expr::Count(Box::new(Expr::proj(Expr::var("g"), 1))),
                    Expr::Fold(
                        Box::new(Expr::proj(Expr::var("g"), 1)),
                        Box::new(Expr::var("n")),
                        Lambda2::new(
                            "a",
                            "b",
                            Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b")),
                        ),
                    ),
                ),
            ),
        );
        let errs = errors_of(&e, &["xs"]);
        assert!(errs.contains(&codes::INNER_BAG_ESCAPE), "{errs:?}");
    }
}
