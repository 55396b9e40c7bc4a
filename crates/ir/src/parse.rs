//! The **parsing phase** (paper Sec. 4.1.1): compile-time rewriting of a
//! nested-parallel program into one whose nesting is explicit.
//!
//! Operating on the program as data (the paper uses Scala macros; here the
//! AST is explicit), this phase:
//!
//! 1. rewrites `GroupByKey` into the `GroupByKeyIntoNestedBag` primitive
//!    (the only flat-to-nested producer, Sec. 7 case 2);
//! 2. rewrites every `Map` whose UDF contains bag operations — and every
//!    `Map` over a nested bag — into `MapWithLiftedUdf` (Sec. 7 cases 1+3);
//! 3. makes closures explicit: the free variables a lifted UDF captures are
//!    recorded on the primitive (Sec. 5).
//!
//! Which maps those are is the analyzer's decision ([`Analysis::lifts`]),
//! taken while it types the program; the analyzer also enforces the
//! completeness preconditions of Theorem 1 and the dialect's restrictions
//! (`MAT003`–`MAT009`), so the rewrite itself cannot fail.
//!
//! Control flow needs no syntactic change here because the AST's `Loop` is
//! already the higher-order functional form of Sec. 6.1; the lowering phase
//! gives it lifted semantics inside lifted UDFs.

use crate::analyze::captures::capture_names;
use crate::analyze::Analysis;
use crate::ast::{Expr, Lambda};
use crate::error::IrResult;

/// Which flattening system's capabilities to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dialect {
    /// Full Matryoshka: lifts control flow at inner nesting levels.
    Matryoshka,
    /// DIQL/MRQL-like: flattening, but no control flow inside lifted UDFs
    /// (Sec. 9.1: "DIQL does not support control flow statements in the
    /// inner levels").
    DiqlLike,
}

/// Run the parsing phase: rewrite `program` into its explicitly-nested form.
///
/// `sources` names the input bags (everything else referenced free is an
/// error). The result uses only constructs the lowering phase executes
/// directly.
///
/// The static analyzer ([`crate::analyze::check`]) gates the rewrite:
/// ill-typed programs are rejected here, with `MAT0xx` diagnostics, before
/// any engine job can launch.
pub fn parsing_phase(program: &Expr, sources: &[&str], dialect: Dialect) -> IrResult<Expr> {
    let analysis = crate::analyze::check(program, sources, dialect)?;
    Ok(rewrite(program, &analysis))
}

/// The rewrite proper, for a `program` that `analysis` (an error-free
/// analyzer run over this same tree) admitted.
pub(crate) fn rewrite(program: &Expr, analysis: &Analysis) -> Expr {
    let mut lifts = analysis.lifts.iter().copied();
    let out = go(program, &mut lifts);
    debug_assert!(lifts.next().is_none(), "a lift decision without a map");
    out
}

fn go(e: &Expr, lifts: &mut impl Iterator<Item = bool>) -> Expr {
    match e {
        // The nested-bag producer becomes the nesting primitive (Sec. 4.5).
        Expr::GroupByKey(x) => Expr::GroupByKeyIntoNestedBag(Box::new(go(x, lifts))),
        Expr::Map(input, udf) => {
            // `lifts` is in the analyzer's order: a map's entry follows those
            // of the maps in its input and precedes those in its UDF body.
            let input = Box::new(go(input, lifts));
            let lift = lifts.next().expect("the analyzer records one lift decision per map");
            let udf = Lambda { param: udf.param.clone(), body: go(&udf.body, lifts).into() };
            if lift {
                // Closures are the free variables of the lifted UDF (Sec. 5).
                let closures = capture_names(&udf.body, &[&udf.param]);
                Expr::MapWithLiftedUdf { input, udf, closures }
            } else {
                Expr::Map(input, udf)
            }
        }
        _ => e.map_children(|c, _, _| go(c, lifts)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinOp;
    use crate::error::IrError;

    /// The bounce-rate program of the paper's Listing 1 (per-day groups,
    /// nested UDF with bag operations).
    pub(crate) fn bounce_rate_program() -> Expr {
        // visits: Bag[(day, ip)]
        let group = Expr::proj(Expr::var("g"), 1); // inner bag
        let counts = Expr::ReduceByKey(
            Box::new(Expr::Map(
                Box::new(group.clone()),
                Lambda::new("ip", Expr::Tuple(vec![Expr::var("ip"), Expr::long(1)])),
            )),
            crate::ast::Lambda2::new(
                "a",
                "b",
                Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b")),
            ),
        );
        let bounces = Expr::Count(Box::new(Expr::Filter(
            Box::new(counts),
            Lambda::new("kv", Expr::bin(BinOp::Eq, Expr::proj(Expr::var("kv"), 1), Expr::long(1))),
        )));
        let total = Expr::Count(Box::new(Expr::Distinct(Box::new(group))));
        let rate = Expr::bin(
            BinOp::Div,
            Expr::Un(crate::ast::UnOp::ToDouble, Box::new(bounces)),
            Expr::Un(crate::ast::UnOp::ToDouble, Box::new(total)),
        );
        Expr::Map(
            Box::new(Expr::GroupByKey(Box::new(Expr::Source("visits".into())))),
            Lambda::new("g", Expr::Tuple(vec![Expr::proj(Expr::var("g"), 0), rate])),
        )
    }

    #[test]
    fn group_by_becomes_nested_bag_primitive_and_map_is_lifted() {
        let parsed =
            parsing_phase(&bounce_rate_program(), &["visits"], Dialect::Matryoshka).unwrap();
        match &parsed {
            Expr::MapWithLiftedUdf { input, closures, .. } => {
                assert!(matches!(**input, Expr::GroupByKeyIntoNestedBag(_)));
                assert!(closures.is_empty(), "bounce rate has no closures");
            }
            other => panic!("expected MapWithLiftedUdf at top level, got {other:?}"),
        }
    }

    #[test]
    fn closures_are_made_explicit() {
        // let w = 2 in groupByKey(visits).map(g => w * count(g.1))
        let prog = Expr::let_(
            "w",
            Expr::long(2),
            Expr::Map(
                Box::new(Expr::GroupByKey(Box::new(Expr::Source("visits".into())))),
                Lambda::new(
                    "g",
                    Expr::bin(
                        BinOp::Mul,
                        Expr::var("w"),
                        Expr::Count(Box::new(Expr::proj(Expr::var("g"), 1))),
                    ),
                ),
            ),
        );
        let parsed = parsing_phase(&prog, &["visits"], Dialect::Matryoshka).unwrap();
        let mut found = false;
        parsed.visit(&mut |n| {
            if let Expr::MapWithLiftedUdf { closures, .. } = n {
                assert_eq!(closures, &vec!["w".to_string()]);
                found = true;
            }
        });
        assert!(found);
    }

    #[test]
    fn diql_dialect_rejects_loops_inside_lifted_udfs() {
        // groupByKey(xs).map(g => loop over count(g.1))
        let prog = Expr::Map(
            Box::new(Expr::GroupByKey(Box::new(Expr::Source("xs".into())))),
            Lambda::new(
                "g",
                Expr::Loop {
                    init: vec![("i".into(), Expr::Count(Box::new(Expr::proj(Expr::var("g"), 1))))],
                    cond: Box::new(Expr::bin(BinOp::Gt, Expr::var("i"), Expr::long(0))),
                    step: vec![Expr::bin(BinOp::Sub, Expr::var("i"), Expr::long(1))],
                    result: Box::new(Expr::var("i")),
                },
            ),
        );
        assert!(parsing_phase(&prog, &["xs"], Dialect::Matryoshka).is_ok());
        // The analyzer rejects it before the rewriter runs (MAT009).
        let err = parsing_phase(&prog, &["xs"], Dialect::DiqlLike).unwrap_err();
        assert!(matches!(err, IrError::Analysis(_)), "{err:?}");
        assert!(err.to_string().contains("control flow at inner nesting levels"), "{err}");
    }

    #[test]
    fn aggregation_udfs_with_bag_ops_are_rejected() {
        let prog = Expr::ReduceByKey(
            Box::new(Expr::Source("xs".into())),
            crate::ast::Lambda2::new("a", "b", Expr::Count(Box::new(Expr::Source("ys".into())))),
        );
        // Statically rejected (MAT006) before any engine job launches.
        let err = parsing_phase(&prog, &["xs", "ys"], Dialect::Matryoshka).unwrap_err();
        assert!(matches!(err, IrError::Analysis(_)), "{err:?}");
        assert!(err.to_string().contains("aggregation UDFs"), "{err}");
    }

    #[test]
    fn plain_maps_stay_unlifted() {
        let prog = Expr::Map(
            Box::new(Expr::Source("xs".into())),
            Lambda::new("x", Expr::bin(BinOp::Add, Expr::var("x"), Expr::long(1))),
        );
        let parsed = parsing_phase(&prog, &["xs"], Dialect::Matryoshka).unwrap();
        assert!(matches!(parsed, Expr::Map(..)));
    }

    #[test]
    fn three_level_nesting_in_ir_is_rejected_with_pointer_to_typed_api() {
        // groupByKey(xs).map(g => groupByKey(g.1).map(h => count(h.1)) ...)
        let inner_map = Expr::Map(
            Box::new(Expr::GroupByKey(Box::new(Expr::proj(Expr::var("g"), 1)))),
            Lambda::new("h", Expr::Count(Box::new(Expr::proj(Expr::var("h"), 1)))),
        );
        let prog = Expr::Map(
            Box::new(Expr::GroupByKey(Box::new(Expr::Source("xs".into())))),
            Lambda::new("g", Expr::Count(Box::new(inner_map))),
        );
        let err = parsing_phase(&prog, &["xs"], Dialect::Matryoshka).unwrap_err();
        assert!(err.to_string().contains("typed API"));
    }
}
