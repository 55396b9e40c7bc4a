//! The cluster simulator: simulated time, task scheduling, memory model and
//! execution statistics.
//!
//! Real data flows through the engine's operators in-process (so results are
//! real and testable), while this module accounts for what the same program
//! would cost on a configured cluster. See `crate::config` for the model
//! parameters and `crate::exec` for where costs are charged.

mod lpt;
mod memory;
mod stats;
mod time;

pub use lpt::lpt_makespan;
pub use memory::{check_stage_memory, MemoryOutcome};
pub use stats::{Counter, Fold, Stats, StatsSnapshot};
pub use time::SimTime;

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonic simulated clock. Operators advance it as they "execute".
#[derive(Debug, Default)]
pub struct SimClock(AtomicU64);

impl SimClock {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        SimTime(self.0.load(Ordering::Relaxed))
    }

    /// Advance the clock by `dt`.
    pub fn advance(&self, dt: SimTime) {
        self.0.fetch_add(dt.as_nanos(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let c = SimClock::default();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance(SimTime::from_millis(5));
        c.advance(SimTime::from_millis(7));
        assert_eq!(c.now(), SimTime::from_millis(12));
    }
}
