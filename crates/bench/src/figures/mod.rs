//! One module per paper figure; each exposes `run(profile) -> Vec<Row>`.
//! The two sweeps behind a committed `BENCH_*.json` (`recovery`, `service`)
//! have one size, the committed one: their `run()` takes no profile.

pub mod ablations;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod recovery;
pub mod service;
