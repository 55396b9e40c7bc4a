//! # matryoshka-ir
//!
//! The **parsing phase** of Matryoshka's two-phase flattening (SIGMOD 2021,
//! Sec. 4.1), as an explicit program transformation: an embedded
//! nested-parallel language (the role Emma plays in the paper), a rewriter
//! that makes nesting explicit by inserting the `GroupByKeyIntoNestedBag`
//! and `MapWithLiftedUdf` primitives and extracting closures, and a lowering
//! interpreter that executes the rewritten program on the flat engine
//! through `matryoshka-core`'s lifted operations.
//!
//! ```
//! use matryoshka_ir::ast::{Expr, Lambda};
//! use matryoshka_ir::{parsing_phase, Dialect, Lowering, RtVal, Value};
//! use matryoshka_core::MatryoshkaConfig;
//! use matryoshka_engine::Engine;
//! use std::collections::HashMap;
//!
//! // visitsPerDay.map { g => (g.key, count(g.inner)) } -- nested-parallel.
//! let program = Expr::Map(
//!     Box::new(Expr::GroupByKey(Box::new(Expr::Source("visits".into())))),
//!     Lambda::new("g", Expr::Tuple(vec![
//!         Expr::proj(Expr::var("g"), 0),
//!         Expr::Count(Box::new(Expr::proj(Expr::var("g"), 1))),
//!     ])),
//! );
//!
//! // Phase 1 (compile time): insert the nesting primitives.
//! let parsed = parsing_phase(&program, &["visits"], Dialect::Matryoshka).unwrap();
//! assert!(matches!(parsed, Expr::MapWithLiftedUdf { .. }));
//!
//! // Phase 2 (runtime): lower onto the engine.
//! let engine = Engine::local();
//! let visits = engine.parallelize(
//!     vec![
//!         Value::tuple(vec![Value::Long(1), Value::Long(10)]),
//!         Value::tuple(vec![Value::Long(1), Value::Long(11)]),
//!         Value::tuple(vec![Value::Long(2), Value::Long(12)]),
//!     ],
//!     2,
//! );
//! let lowering = Lowering::new(engine, MatryoshkaConfig::optimized());
//! let out = lowering.run(&parsed, &HashMap::from([("visits".to_string(), visits)])).unwrap();
//! let mut rows = match out { RtVal::Bag(b) => b.collect().unwrap(), _ => panic!() };
//! rows.sort();
//! assert_eq!(rows, vec![
//!     Value::tuple(vec![Value::Long(1), Value::Long(2)]),
//!     Value::tuple(vec![Value::Long(2), Value::Long(1)]),
//! ]);
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod ast;
pub mod compile;
mod error;
mod lower;
mod parse;
mod prepare;
pub mod pretty;
pub mod syntax;
mod value;

pub use analyze::{analyze, check, Analysis, Diagnostic, Diagnostics, Severity, Ty};
pub use compile::CompiledUdf;
pub use error::{IrError, IrResult};
pub use lower::{apply_bin, apply_un, Lowering, RtVal};
pub use parse::{parsing_phase, Dialect};
pub use prepare::{prepare_program, PrepareError, PreparedProgram};
pub use syntax::{parse_program, ParseError};
pub use value::Value;
