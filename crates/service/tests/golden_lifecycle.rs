//! Golden lifecycle tests: what the service does in virtual time is frozen.
//!
//! A rewrite of the service's state model — how it stores a job between
//! `submit` and `report` — must not move a report, a lifecycle event, a
//! counter or the virtual clock. Each seed below drives one generated
//! schedule (both policies, two capped pools, future arrivals, deadlines
//! that expire queued and running, client cancels of queued and in-flight
//! jobs, a full queue, an unknown pool, an analyzer rejection, native jobs
//! of seeded cost and two shipped `.mat` programs) and pins a
//! [`stable_hash`] of the `Debug` rendering of everything a client can
//! observe. The values were recorded on the commit before the one-record
//! state model (PR 23) landed.
//!
//! To regenerate after an *intentional* change of scheduling behaviour, run:
//!
//! ```text
//! cargo test -p matryoshka-service --test golden_lifecycle -- --ignored --nocapture
//! ```
//!
//! and paste the printed values into `GOLDEN` below.

use std::sync::{Arc, Mutex};

use matryoshka_core::MatryoshkaConfig;
use matryoshka_engine::partitioner::stable_hash;
use matryoshka_engine::sim::SimTime;
use matryoshka_engine::{ClusterConfig, Engine, EngineEvent, StatsSnapshot};
use matryoshka_service::{
    JobId, JobOutcome, JobReport, JobService, JobSpec, PoolConfig, SchedulerConfig,
    SchedulingPolicy,
};

/// `(seed, stable_hash of the rendered run)`. Re-pinned when a stage came to
/// run from shuffle to shuffle: the jobs' `stages_fused` and
/// `intermediates_elided` counters moved, nothing else. Re-pinned again when
/// the task-retry counter was deleted: every rendered `StatsSnapshot` lost
/// that counter's field (always 0 here), and nothing else moved.
const GOLDEN: [(u64, u64); 24] = [
    (1, 0x6acb567e1c29405a),
    (2, 0x9ff05ac76398066f),
    (3, 0xa314929cbcffc312),
    (4, 0x3ea3124ee1059072),
    (5, 0x635b4e3f13d43e02),
    (6, 0x4841ef00df8b7e94),
    (7, 0x3b0884a908b07d56),
    (8, 0x3204b850d68a9cbf),
    (9, 0xcaedb768c7c06cb4),
    (10, 0x6fe2768d3ab57c87),
    (11, 0xbaa285d310498893),
    (12, 0x9ff95f8471fffdc7),
    (13, 0x57b0108bc03f3026),
    (14, 0x939c0a864bc26aac),
    (15, 0x16580685c9480f08),
    (16, 0xbba5580e450b7fea),
    (17, 0x34c6e634cb3940ee),
    (18, 0x7b7894dc3221daca),
    (19, 0x667a97f49b74ecaa),
    (20, 0x07f3ab6f47b69269),
    (21, 0xa5dbdb2dd5304f19),
    (22, 0x205548f653942985),
    (23, 0xb0e37031476babbc),
    (24, 0xb60edfc307edcb55),
];

const VISIT_COUNTS: &str = include_str!("../../../examples/programs/visit_counts.mat");
const UNION_DISTINCT: &str = include_str!("../../../examples/programs/union_distinct.mat");
const POOLS: [&str; 2] = ["batch", "interactive"];

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One generated schedule against one service: the submissions, cancels and
/// driver runs, and the answers the service gave along the way.
struct Schedule {
    svc: JobService,
    rng: Rng,
    /// Ids are assigned in submission order, rejections included.
    next_id: JobId,
    /// What `submit`/`cancel` answered, and what jobs saw from inside.
    answers: Arc<Mutex<Vec<String>>>,
}

impl Schedule {
    fn new(seed: u64) -> Schedule {
        let mut rng = Rng(seed);
        let scheduler = SchedulerConfig {
            policy: if seed.is_multiple_of(2) {
                SchedulingPolicy::Fifo
            } else {
                SchedulingPolicy::FairShare
            },
            pools: vec![
                PoolConfig::new(POOLS[0], 1).with_max_concurrent(1 + rng.below(2) as usize),
                PoolConfig::new(POOLS[1], 3).with_max_concurrent(2),
            ],
            queue_capacity: 6 + rng.below(5) as usize,
            total_slots: 2 + rng.below(3) as usize,
            default_slots: 1,
        };
        let cluster =
            ClusterConfig { trace_events: seed.is_multiple_of(4), ..ClusterConfig::local_test() };
        Schedule {
            svc: JobService::with_scheduler(cluster, MatryoshkaConfig::default(), scheduler, seed)
                .expect("valid scheduler config"),
            rng,
            next_id: 0,
            answers: Arc::default(),
        }
    }

    fn note(&self, line: String) {
        self.answers.lock().unwrap().push(line);
    }

    /// Submit `spec` (now, or at a future virtual arrival) and note the answer.
    fn submit(&mut self, spec: JobSpec) {
        let answer = if self.rng.below(3) == 0 {
            let arrival = self.svc.virtual_time() + SimTime::from_micros(self.rng.below(1_000_000));
            self.svc.submit_at(spec, arrival)
        } else {
            self.svc.submit(spec)
        };
        self.note(format!("submit {} -> {answer:?}", self.next_id));
        self.next_id += 1;
    }

    /// Pool, slot request and (sometimes) a deadline that is either hopeless
    /// or plausible.
    fn placed(&mut self, spec: JobSpec) -> JobSpec {
        let spec =
            spec.in_pool(POOLS[self.rng.below(2) as usize]).with_slots(self.rng.below(3) as usize);
        match self.rng.below(6) {
            0 => spec.with_deadline(SimTime::from_nanos(1_000)),
            1 => spec.with_deadline(SimTime::from_micros(1 + self.rng.below(1_500_000))),
            _ => spec,
        }
    }

    fn submit_placed(&mut self, spec: JobSpec) {
        let spec = self.placed(spec);
        self.submit(spec);
    }

    fn costed(&mut self) -> JobSpec {
        let n = 200 + self.rng.below(3_000);
        JobSpec::native(format!("cost-{n}"), move |e: &Engine| {
            Ok(format!("{} records", e.generate(n, 8, |i| (i % 97, i)).count()?))
        })
    }

    fn step(&mut self) {
        match self.rng.below(16) {
            0..=5 => {
                let spec = self.costed();
                self.submit_placed(spec);
            }
            6 | 7 => {
                let (name, src) = if self.rng.below(2) == 0 {
                    ("visit_counts", VISIT_COUNTS)
                } else {
                    ("union_distinct", UNION_DISTINCT)
                };
                self.submit_placed(JobSpec::program(name, src));
            }
            8 => {
                let spec = self.costed().in_pool("nope");
                self.submit(spec);
            }
            9 => {
                let spec = JobSpec::program("unbound", "map(source(xs), v => y)");
                self.submit_placed(spec);
            }
            10 | 11 if self.next_id > 0 => {
                let victim = self.rng.below(self.next_id);
                let answer = self.svc.cancel(victim);
                self.note(format!("cancel {victim} -> {answer}"));
            }
            // A client cancel that lands while the job's host execution is
            // in flight: the job asks for it itself, between two stages.
            12 => {
                let (svc, answers, id) =
                    (self.svc.clone(), Arc::clone(&self.answers), self.next_id);
                let spec = JobSpec::native("cancelled-in-flight", move |e: &Engine| {
                    e.generate(500, 8, |i| i).count()?;
                    let line = format!(
                        "in flight {id}: status {:?}, cancel -> {}",
                        svc.status(id),
                        svc.cancel(id)
                    );
                    answers.lock().unwrap().push(line);
                    Ok(format!("{} records", e.generate(500, 8, |i| i).count()?))
                });
                self.submit_placed(spec);
            }
            // A client cancel of a *queued* job that lands while another
            // job's host execution is in flight.
            13 => {
                let (svc, answers) = (self.svc.clone(), Arc::clone(&self.answers));
                // Mostly a later submission, which is likely still queued.
                let victim = (self.next_id + self.rng.below(6)).saturating_sub(1);
                let spec = JobSpec::native("cancels-another", move |e: &Engine| {
                    let n = e.generate(300, 8, |i| i).count()?;
                    let line =
                        format!("cancel {victim} from a running job -> {}", svc.cancel(victim));
                    answers.lock().unwrap().push(line);
                    Ok(format!("{n} records"))
                });
                self.submit_placed(spec);
            }
            // A burst, so the bounded queue fills.
            14 => {
                for _ in 0..4 {
                    let spec = self.costed();
                    self.submit_placed(spec);
                }
            }
            // An arrival in the past is clamped to the virtual clock.
            _ => {
                let spec = self.costed();
                let spec = self.placed(spec);
                let answer = self.svc.submit_at(spec, SimTime::from_nanos(self.rng.below(1_000)));
                self.note(format!("submit {} (past arrival) -> {answer:?}", self.next_id));
                self.next_id += 1;
            }
        }
    }
}

/// Everything a client can observe of one run.
#[derive(Debug)]
struct Observed {
    /// By id; `None` for a rejected submission.
    reports: Vec<Option<JobReport>>,
    events: Vec<EngineEvent>,
    stats: StatsSnapshot,
    virtual_time: SimTime,
    answers: Vec<String>,
}

/// Run the schedule of `seed`: three rounds of submissions and cancels,
/// each drained by the driver.
fn run(seed: u64) -> Observed {
    let mut s = Schedule::new(seed);
    for _round in 0..3 {
        for _ in 0..8 + s.rng.below(5) {
            s.step();
        }
        s.svc.run_until_idle();
        assert!(s.svc.is_idle());
        s.note(format!("idle at {:?}", s.svc.virtual_time()));
    }
    let answers = s.answers.lock().unwrap().clone();
    Observed {
        reports: (0..s.next_id).map(|id| s.svc.report(id)).collect(),
        events: s.svc.events(),
        stats: s.svc.stats(),
        virtual_time: s.svc.virtual_time(),
        answers,
    }
}

fn hash_of_run(seed: u64) -> u64 {
    stable_hash(&format!("{:?}", run(seed)))
}

#[test]
fn lifecycle_is_frozen_for_every_seed() {
    let moved: Vec<_> = GOLDEN
        .iter()
        .filter_map(|&(seed, want)| {
            let got = hash_of_run(seed);
            (got != want).then(|| format!("seed {seed}: recorded {want:#018x}, got {got:#018x}"))
        })
        .collect();
    assert!(moved.is_empty(), "a report, event, counter or the virtual clock moved:\n{moved:#?}");
}

/// The pins are only worth something if the schedules reach every path the
/// module doc promises.
#[test]
fn the_schedules_cover_every_lifecycle_path() {
    let runs: Vec<Observed> = GOLDEN.iter().map(|&(seed, _)| run(seed)).collect();
    for r in &runs {
        assert_eq!(r.stats, StatsSnapshot::from_events(&r.events), "counters fold the lane");
        let last = r.reports.iter().flatten().map(|report| report.finished).max();
        assert_eq!(Some(r.virtual_time), last, "the clock stops at the last completion");
    }
    let answered = |needle: &str| runs.iter().flat_map(|r| &r.answers).any(|a| a.contains(needle));
    for needle in [
        "queue full (capacity",
        "unknown pool `nope`",
        "MAT001",
        "status Some(Running), cancel -> true",
        "from a running job -> true",
        "(past arrival)",
    ] {
        assert!(answered(needle), "no schedule was answered `{needle}`");
    }
    let reports: Vec<&JobReport> = runs.iter().flat_map(|r| r.reports.iter().flatten()).collect();
    let cancelled = |reason: &str, started: bool| {
        reports.iter().any(|r| {
            matches!(&r.outcome, JobOutcome::Cancelled { reason: why } if why.contains(reason))
                && r.started.is_some() == started
        })
    };
    assert!(cancelled("deadline exceeded while queued", false));
    assert!(cancelled("deadline exceeded while running", true));
    assert!(cancelled("cancelled by client", false), "a queued job");
    assert!(cancelled("cancelled by client", true), "a job in flight");
    let completed = |prefix: &str| {
        reports.iter().any(|r| {
            matches!(&r.outcome, JobOutcome::Completed { result, .. } if result.starts_with(prefix))
        })
    };
    assert!(completed("bag with ") && completed("scalar "), "both shipped programs ran");
    assert!(reports.iter().any(|r| r.queue_wait > SimTime::ZERO), "somebody waited");
    let late =
        |r: &&JobReport| r.started.is_some_and(|s| s > r.arrival) && r.arrival > SimTime::ZERO;
    assert!(reports.iter().any(late), "a future arrival waited for slots");
}

#[test]
#[ignore = "regeneration helper: prints the GOLDEN table"]
fn print_golden_values() {
    for (seed, _) in GOLDEN {
        println!("    ({seed}, {:#018x}),", hash_of_run(seed));
    }
}
