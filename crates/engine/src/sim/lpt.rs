//! Longest-processing-time-first (LPT) list scheduling of simulated tasks
//! onto simulated cores.
//!
//! The makespan of a stage's tasks under LPT is what drives the simulated
//! clock. Using real per-partition record counts makes the model sensitive to
//! skew: one giant partition yields one giant task, which dominates the
//! makespan exactly as it would on a real cluster (paper Sec. 9.5).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::SimTime;

/// Schedule `task_costs` greedily (longest first) onto `cores` identical
/// cores and return the makespan.
///
/// LPT is a 4/3-approximation of optimal makespan scheduling, which is more
/// than accurate enough for a cost model; Spark's own scheduler is also a
/// greedy list scheduler.
///
/// This runs once per operator per pass, so it skips what cannot move a
/// load: a zero-cost task leaves every core as it was, and the `cores`
/// largest tasks each land on a still-empty core. Only the tasks after those
/// go through the heap, one sift each.
pub fn lpt_makespan(task_costs: &[SimTime], cores: usize) -> SimTime {
    let cores = cores.max(1);
    if task_costs.len() <= cores {
        return task_costs.iter().copied().max().unwrap_or(SimTime::ZERO);
    }
    let mut sorted: Vec<SimTime> =
        task_costs.iter().copied().filter(|&t| t > SimTime::ZERO).collect();
    if sorted.len() <= cores {
        return sorted.into_iter().max().unwrap_or(SimTime::ZERO);
    }
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let (first, rest) = sorted.split_at(cores);
    // Min-heap of core loads.
    let mut loads: BinaryHeap<Reverse<SimTime>> = first.iter().copied().map(Reverse).collect();
    for &t in rest {
        loads.peek_mut().expect("heap has `cores` entries").0 += t;
    }
    loads.into_iter().map(|Reverse(l)| l).max().unwrap_or(SimTime::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// The plain LPT loop, kept as the oracle: every task, zero-cost ones
    /// included, is popped onto the least-loaded core in descending order.
    fn reference_makespan(task_costs: &[SimTime], cores: usize) -> SimTime {
        let cores = cores.max(1);
        if task_costs.is_empty() {
            return SimTime::ZERO;
        }
        if task_costs.len() <= cores {
            return task_costs.iter().copied().max().unwrap_or(SimTime::ZERO);
        }
        let mut sorted: Vec<SimTime> = task_costs.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let mut loads: BinaryHeap<Reverse<SimTime>> =
            (0..cores).map(|_| Reverse(SimTime::ZERO)).collect();
        for t in sorted {
            let Reverse(load) = loads.pop().expect("heap has `cores` entries");
            loads.push(Reverse(load + t));
        }
        loads.into_iter().map(|Reverse(l)| l).max().unwrap_or(SimTime::ZERO)
    }

    /// splitmix64, the repository's seedable generator: every case is
    /// reproducible from its number alone.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The makespan equals the oracle's on random shapes: 0–1,500 tasks on
    /// 1–512 cores, a share of zero-cost tasks (sometimes all of them), runs
    /// of equal costs, and fewer nonzero tasks than cores.
    #[test]
    fn makespan_equals_the_plain_lpt_loop_on_random_shapes() {
        const CASES: u64 = 600;
        let (mut all_zero, mut some_zero, mut equal_runs, mut few_nonzero, mut heap) =
            (0, 0, 0, 0, 0);
        for case in 0..CASES {
            let mut rng = case;
            let n = (splitmix64(&mut rng) % 1501) as usize;
            let cores = 1 + (splitmix64(&mut rng) % 512) as usize;
            // Per mille of tasks that cost nothing: none, some, most or all.
            let zero_share = [0, 250, 900, 1000][(case % 4) as usize];
            // Every third case draws from 3 costs, so equal costs come in runs.
            let distinct = if case % 3 == 0 { 3 } else { 1_000_000 };
            let costs: Vec<SimTime> = (0..n)
                .map(|_| {
                    if splitmix64(&mut rng) % 1000 < zero_share {
                        SimTime::ZERO
                    } else {
                        SimTime(1 + (splitmix64(&mut rng) % distinct) * 1_000)
                    }
                })
                .collect();
            let nonzero = costs.iter().filter(|&&t| t > SimTime::ZERO).count();
            all_zero += usize::from(n > 0 && nonzero == 0);
            some_zero += usize::from(nonzero > 0 && nonzero < n);
            equal_runs += usize::from(distinct == 3 && nonzero > cores);
            few_nonzero += usize::from(n > cores && nonzero <= cores);
            heap += usize::from(nonzero > cores);
            assert_eq!(
                lpt_makespan(&costs, cores),
                reference_makespan(&costs, cores),
                "case {case}: {n} tasks, {nonzero} nonzero, {cores} cores"
            );
        }
        // The draw must actually cover what the doc comment promises.
        assert!(all_zero >= 50 && some_zero >= 200, "all-zero {all_zero}, some {some_zero}");
        assert!(equal_runs >= 30 && few_nonzero >= 50, "runs {equal_runs}, few {few_nonzero}");
        assert!(heap >= 150, "heap {heap}");
    }

    #[test]
    fn fewer_tasks_than_cores_is_max() {
        assert_eq!(lpt_makespan(&[ms(5), ms(3)], 8), ms(5));
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(lpt_makespan(&[], 4), SimTime::ZERO);
    }

    #[test]
    fn single_core_is_sum() {
        assert_eq!(lpt_makespan(&[ms(1), ms(2), ms(3)], 1), ms(6));
    }

    #[test]
    fn balanced_tasks_divide_evenly() {
        let tasks = vec![ms(2); 8];
        assert_eq!(lpt_makespan(&tasks, 4), ms(4));
    }

    #[test]
    fn skewed_task_dominates() {
        // One 100ms task and many 1ms tasks: the long task is the makespan.
        let mut tasks = vec![ms(1); 50];
        tasks.push(ms(100));
        assert_eq!(lpt_makespan(&tasks, 16), ms(100));
    }

    #[test]
    fn lpt_never_below_lower_bounds() {
        // makespan >= max task and >= sum/cores.
        let tasks: Vec<SimTime> = (1..40).map(ms).collect();
        let cores = 7;
        let span = lpt_makespan(&tasks, cores);
        let max = tasks.iter().copied().max().unwrap();
        let total: u64 = tasks.iter().map(|t| t.as_nanos()).sum();
        assert!(span >= max);
        assert!(span.as_nanos() >= total / cores as u64);
    }
}
