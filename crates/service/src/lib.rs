//! Multi-tenant job service: fair-share scheduling, admission control, and
//! a std-only TCP submission server.
//!
//! This crate turns the single-program engine into a shared service.
//! Clients submit `.mat` programs (or native closures, from tests and
//! benches) into named **pools**; a deterministic scheduler multiplexes a
//! fixed budget of simulated core slots across jobs under either FIFO or
//! weighted fair-share policy, with per-pool concurrency caps, a bounded
//! admission queue, per-job virtual deadlines, and cooperative
//! cancellation.
//!
//! ## Determinism contract
//!
//! Given the same service configuration, seed, and submission schedule
//! (order + virtual arrival times), every run produces **bit-identical**
//! results: each job's `sim_nanos` and [`StatsSnapshot`], the service
//! lifecycle event log, queue waits, and fair-share accounting. Three
//! design rules make this hold:
//!
//! 1. **Per-job engine isolation** — every job runs on a fresh engine, so
//!    its simulated cost and statistics are exactly those of a
//!    directly-driven run (the `golden_sim` pins transfer unchanged).
//! 2. **Virtual-time multiplexing** — jobs overlap in *virtual* time via
//!    core-slot accounting, not host threads: the event loop is a
//!    single-driver discrete-event simulation, so interleaving never
//!    depends on host timing.
//! 3. **Seeded datasets** — program sources are generated from
//!    `(seed, name)` only ([`datasets`]).
//!
//! [`StatsSnapshot`]: matryoshka_engine::StatsSnapshot
//!
//! ## Modules
//!
//! - [`job`] — job specs, outcomes, reports, rejections.
//! - [`scheduler`] — [`SchedulerConfig`]: pools, policy, admission bounds.
//! - [`sched`] — the pure scheduling core (policy + pool accounting).
//! - [`service`] — [`JobService`]: admission, the virtual-time loop,
//!   per-job isolation, multi-lane trace export.
//! - [`datasets`] — seeded source bags for wire-submitted programs.
//! - [`wire`] — the line protocol shared by server and client.
//! - [`server`] — the std-only TCP server behind `matryoshka-serve`.
//!
//! See `docs/SERVICE.md` for the full design.

#![warn(missing_docs)]

pub mod datasets;
pub mod job;
pub mod sched;
pub mod scheduler;
pub mod server;
pub mod service;
pub mod wire;

pub use job::{JobId, JobOutcome, JobPayload, JobReport, JobSpec, JobStatus, Rejection};
pub use sched::{Candidate, Scheduler};
pub use scheduler::{PoolConfig, SchedulerConfig, SchedulingPolicy};
pub use server::Server;
pub use service::JobService;
