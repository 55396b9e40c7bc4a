//! Exact map-output statistics of one shuffle.
//!
//! Every wide operator that scatters records into reduce-side partitions
//! records, per reduce partition, how many records and modeled bytes landed
//! there. The counts are exact and deterministic (they come from the real
//! hash placement, not sampling). Collection is pure bookkeeping: it charges
//! no simulated time and no simulated memory.

/// Per-reduce-partition record/byte counts of one shuffle's map output,
/// plus derived summary statistics (percentiles and skew ratio).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MapOutputStats {
    /// Operator that produced the shuffle (e.g. `"join"`, `"reduce_by_key"`).
    pub operator: &'static str,
    /// Records landing in each reduce partition.
    pub partition_records: Vec<u64>,
    /// Modeled bytes landing in each reduce partition.
    pub partition_bytes: Vec<u64>,
}

impl MapOutputStats {
    /// Number of reduce partitions.
    pub(crate) fn partitions(&self) -> usize {
        self.partition_bytes.len()
    }

    /// Total records across all partitions.
    pub(crate) fn total_records(&self) -> u64 {
        self.partition_records.iter().sum()
    }

    /// Total modeled bytes across all partitions.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.partition_bytes.iter().sum()
    }

    /// Largest partition, in bytes.
    pub(crate) fn max_bytes(&self) -> u64 {
        self.partition_bytes.iter().copied().max().unwrap_or(0)
    }

    /// The `pcts`-th percentiles of partition bytes, e.g. `[50, 99]`
    /// (nearest-rank over one sorted copy of the sizes, so the median of an
    /// even count is the lower one; all 0 for an empty shuffle).
    pub(crate) fn percentiles_bytes<const N: usize>(&self, pcts: [u64; N]) -> [u64; N] {
        let mut sorted = self.partition_bytes.clone();
        sorted.sort_unstable();
        pcts.map(|pct| {
            let rank = (pct.min(100) as usize * sorted.len()).div_ceil(100);
            sorted.get(rank.saturating_sub(1)).copied().unwrap_or(0)
        })
    }

    /// Skew ratio: largest partition over the mean partition size, in
    /// thousandths (`1000` = perfectly balanced). 0 for an empty shuffle.
    pub(crate) fn skew_ratio_milli(&self) -> u64 {
        let total = self.total_bytes();
        if total == 0 || self.partition_bytes.is_empty() {
            return 0;
        }
        let mean = total as f64 / self.partition_bytes.len() as f64;
        ((self.max_bytes() as f64 / mean) * 1000.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records of 10 bytes each.
    fn stats(records: &[u64]) -> MapOutputStats {
        let partition_bytes = records.iter().map(|n| n * 10).collect();
        MapOutputStats { operator: "test", partition_records: records.to_vec(), partition_bytes }
    }

    #[test]
    fn totals_and_max_are_exact() {
        let s = stats(&[1, 2, 3, 10]);
        assert_eq!(s.partitions(), 4);
        assert_eq!(s.total_records(), 16);
        assert_eq!(s.total_bytes(), 160);
        assert_eq!(s.max_bytes(), 100);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let s = stats(&[1, 2, 3, 4]);
        assert_eq!(s.percentiles_bytes([50, 99, 100, 0]), [20, 40, 40, 10]);
        assert_eq!(stats(&[]).percentiles_bytes([50]), [0]);
    }

    #[test]
    fn skew_ratio_is_max_over_mean() {
        // mean = 4, max = 10 -> 2.5x -> 2500 milli.
        assert_eq!(stats(&[1, 2, 3, 10]).skew_ratio_milli(), 2_500);
        assert_eq!(stats(&[5, 5, 5, 5]).skew_ratio_milli(), 1_000, "balanced is 1.000x");
        assert_eq!(stats(&[0, 0]).skew_ratio_milli(), 0, "empty shuffle has no skew");
    }
}
