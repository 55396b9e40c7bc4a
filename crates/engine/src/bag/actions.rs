//! Actions: operations that launch a simulated job and return driver-side
//! values.
//!
//! Every action charges one job launch ([`crate::CostModel::job_launch`]).
//! This is the overhead that sinks the *inner-parallel* workaround in the
//! paper: one job (or several) per inner computation per iteration. Actions
//! run via [`Engine::run_job`](crate::Engine), which also brackets the work
//! with `JobStart`/`JobEnd` trace events when tracing is enabled.

use super::Bag;
use crate::types::Data;
use crate::Result;

impl<T: Data> Bag<T> {
    /// Materialize all records on the driver.
    pub fn collect(&self) -> Result<Vec<T>> {
        self.engine().run_job("collect", || {
            let parts = self.eval()?;
            let records: u64 = parts.iter().map(|p| p.len() as u64).sum();
            self.engine().charge_driver_collect(records, self.record_bytes());
            let mut out = Vec::with_capacity(records as usize);
            for p in parts.iter() {
                out.extend_from_slice(p);
            }
            Ok(out)
        })
    }

    /// Materialize per-partition vectors on the driver (diagnostics/tests).
    pub fn collect_partitions(&self) -> Result<Vec<Vec<T>>> {
        self.engine().run_job("collect_partitions", || {
            let parts = self.eval()?;
            let records: u64 = parts.iter().map(|p| p.len() as u64).sum();
            self.engine().charge_driver_collect(records, self.record_bytes());
            Ok(parts.iter().map(|p| p.to_vec()).collect())
        })
    }

    /// Number of records.
    pub fn count(&self) -> Result<u64> {
        self.engine().run_job("count", || {
            let parts = self.eval()?;
            Ok(parts.iter().map(|p| p.len() as u64).sum())
        })
    }

    /// True if the bag has no records.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.count()? == 0)
    }

    /// Fold all records starting from `zero`.
    pub fn fold<A: Clone>(&self, zero: A, f: impl Fn(A, &T) -> A) -> Result<A> {
        self.engine().run_job("fold", || {
            let parts = self.eval()?;
            let mut acc = zero;
            for p in parts.iter() {
                for x in p.iter() {
                    acc = f(acc, x);
                }
            }
            Ok(acc)
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::Engine;

    #[test]
    fn count_and_fold_agree() {
        let e = Engine::local();
        let b = e.parallelize((1..=100u64).collect::<Vec<_>>(), 7);
        assert_eq!(b.count().unwrap(), 100);
        assert_eq!(b.fold(0u64, |a, x| a + x).unwrap(), 5050);
    }

    #[test]
    fn every_action_launches_a_job() {
        let e = Engine::local();
        let b = e.parallelize(vec![1, 2, 3], 2);
        let s0 = e.stats();
        let _ = b.count().unwrap();
        let _ = b.collect().unwrap();
        let _ = b.is_empty().unwrap();
        let d = e.stats().since(&s0);
        assert_eq!(d.jobs, 3);
    }
}
