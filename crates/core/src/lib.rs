//! # matryoshka-core
//!
//! The runtime ("lowering phase") of **Matryoshka**, the nested-parallelism
//! system of *"The Power of Nested Parallelism in Big Data Processing —
//! Hitting Three Flies with One Slap"* (SIGMOD 2021): nesting primitives,
//! lifted operations, lifted control flow, and the runtime optimizer, all
//! executing on the flat-parallel engine of `matryoshka-engine`.
//!
//! ## The two-phase flattening, in this repository
//!
//! - The **parsing phase** (compile-time in the paper, via Scala macros)
//!   lives in the sibling crate `matryoshka-ir`: it rewrites a
//!   nested-parallel program into one that uses the primitives below.
//! - The **lowering phase** (runtime) is this crate: the primitives'
//!   operations resolve to flat engine operations, choosing physical
//!   implementations from actual data characteristics (Sec. 8).
//!
//! Typed Rust programs can also use the primitives directly (the examples
//! and the `matryoshka-tasks` workloads do), which corresponds to writing
//! the parsing phase's output by hand — Listing 2 of the paper.
//!
//! ## The primitives
//!
//! | Paper | Here | Flat representation |
//! |---|---|---|
//! | `InnerScalar[T,S]` (Sec. 4.3) | [`InnerScalar`] | `Bag<(T, S)>` |
//! | `InnerBag[T,E]` (Sec. 4.4) | [`InnerBag`] | `Bag<(T, E)>` |
//! | `NestedBag[O,I]` (Sec. 4.5) | [`NestedBag`] | `InnerScalar` + `InnerBag` |
//!
//! ```
//! use matryoshka_core::{group_by_key_into_nested_bag, MatryoshkaConfig};
//! use matryoshka_engine::Engine;
//!
//! // Bounce rate per day (paper Listing 1/2): nested-parallel, flattened.
//! let engine = Engine::local();
//! let visits = engine.parallelize(
//!     vec![(1u32, 10u64), (1, 10), (1, 11), (2, 12)], // (day, ip)
//!     4,
//! );
//! let per_day = group_by_key_into_nested_bag(&engine, &visits, MatryoshkaConfig::optimized()).unwrap();
//! let rates = per_day.map_with_lifted_udf(|_day, group| {
//!     let counts_per_ip = group.map(|ip| (*ip, 1u64)).reduce_by_key(|a, b| *a += b);
//!     let num_bounces = counts_per_ip.filter(|(_, c)| *c == 1).count();
//!     let num_visitors = group.distinct().count();
//!     num_bounces.zip_with(&num_visitors, |b, v| *b as f64 / *v as f64)
//! });
//! let mut out = rates.collect().unwrap();
//! out.sort_by_key(|(day, _)| *day);
//! assert_eq!(out, vec![(1, 0.5), (2, 1.0)]); // day 1: ip 11 bounced of 2 ips
//! ```

#![warn(missing_docs)]

mod closures;
mod context;
mod control_flow;
mod inner_bag;
mod nested;
pub mod optimizer;
mod scalar;

pub use context::LiftingContext;
pub use control_flow::{lifted_while, LiftedData, ReprOp};
pub use inner_bag::{CoPartitioned, InnerBag};
pub use nested::{group_by_key_into_nested_bag, NestedBag};
pub use optimizer::{CrossChoice, JoinChoice, MatryoshkaConfig, PlanRewriteConfig};
pub use scalar::InnerScalar;
