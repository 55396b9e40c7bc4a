//! Argument parsing, sample statistics, the metric report and its output.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use crate::metrics::{self, Def};

/// How many times a run repeats its set-up; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Per-layer run (spans, engine tracing, layer probes) instead of the
    /// end-to-end run.
    pub trace: bool,
    /// Tiny inputs and iteration counts: proves the harness runs, measures
    /// nothing worth quoting.
    pub smoke: bool,
    /// Where trace files and per-run detail files go.
    pub out_dir: PathBuf,
}

impl Args {
    pub fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 42,
            seconds: 10.0,
            trace: false,
            smoke: false,
            out_dir: PathBuf::from("benchmark/out"),
        };
        let mut argv = argv.skip(1);
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => {
                    args.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?
                }
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                    if !(0.0..=60.0).contains(&args.seconds) {
                        return Err("--seconds must be within 0..=60".into());
                    }
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                "--smoke" => args.smoke = true,
                "--out" => args.out_dir = PathBuf::from(value()?),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if !metrics::WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {:?}, got `{}`",
                metrics::WORKLOADS,
                args.workload
            ));
        }
        Ok(args)
    }

    /// Pick `full` normally, `smoke` under `--smoke`.
    pub fn size<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// Wall time of `f` in milliseconds, and its result.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = std::hint::black_box(f());
    (t0.elapsed().as_secs_f64() * 1e3, r)
}

/// `runs` timings of `f` in milliseconds (after one untimed call when
/// `warm`).
pub fn sample_ms<R>(runs: usize, warm: bool, mut f: impl FnMut() -> R) -> Vec<f64> {
    if warm {
        std::hint::black_box(f());
    }
    (0..runs).map(|_| time_ms(&mut f).0).collect()
}

/// Order statistics of one metric's samples.
#[derive(Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Quantile by linear interpolation between order statistics.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Order statistics of `samples`; all NaN when there are none (a run whose
/// every job failed still reports, and the NaN counts as a failure).
pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary { n: 0, min: f64::NAN, q1: f64::NAN, median: f64::NAN, q3: f64::NAN };
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Summary {
        n: s.len(),
        min: s[0],
        q1: quantile(&s, 0.25),
        median: quantile(&s, 0.5),
        q3: quantile(&s, 0.75),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// One `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in KB.
pub fn proc_status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(f64::NAN)
}

/// CPU time (user + system, every thread, exited ones too) this process has
/// used so far, in seconds, from `/proc/self/stat` (10 ms steps).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields 14 and 15; the command name (field 2) may hold spaces, so count
    // from the parenthesis that closes it.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: Vec<f64> =
        after_comm.split_whitespace().skip(11).take(2).filter_map(|f| f.parse().ok()).collect();
    if ticks.len() == 2 {
        (ticks[0] + ticks[1]) / 100.0
    } else {
        f64::NAN
    }
}

struct Metric {
    def: &'static Def,
    value: f64,
    spread: Option<Summary>,
}

/// Everything one run reports: metrics by name and the operations it
/// checked.
pub struct Report {
    workload: String,
    trace: bool,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Report {
    pub fn new(args: &Args) -> Report {
        Report {
            workload: args.workload.clone(),
            trace: args.trace,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn push(&mut self, name: &str, value: f64, spread: Option<Summary>) {
        let def = metrics::find(self.trace, name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the tables of this mode"));
        assert!(
            def.on.contains(&self.workload.as_str()),
            "`{name}` is not a {} metric",
            self.workload
        );
        assert!(self.metrics.iter().all(|m| m.def.name != name), "`{name}` reported twice");
        self.metrics.push(Metric { def, value, spread });
    }

    /// Report a single measured value.
    pub fn put(&mut self, name: &str, value: f64) {
        self.push(name, value, None);
    }

    /// Report the median of `samples`, keeping their quartiles for the
    /// results file.
    pub fn put_samples(&mut self, name: &str, samples: &[f64]) {
        let s = summarize(samples);
        self.push(name, s.median, Some(s));
    }

    /// The metrics every untraced run reports, from its window: the samples
    /// (ms per job or request pair), the window's length and CPU time in
    /// seconds, one job's (or cycle's) simulated nanoseconds, and the median
    /// set-up time.
    pub fn put_window(
        &mut self,
        samples: &[f64],
        elapsed_s: f64,
        cpu_s: f64,
        sim_nanos: Option<u64>,
        setup_s: f64,
    ) {
        self.put("wall_ms_min", summarize(samples).min);
        self.put_samples("wall_ms_p50", samples);
        self.put("ops_per_s", samples.len() as f64 / elapsed_s);
        self.put("cpu_ms_per_op", cpu_s * 1e3 / samples.len() as f64);
        self.put("sim_s", sim_nanos.map_or(f64::NAN, |ns| ns as f64 / 1e9));
        self.put("setup_s", setup_s);
        self.put("peak_rss_mb", proc_status_kb("VmHWM") / 1024.0);
    }

    /// Count one checked operation; a failed one is explained on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED [{}]: {}", self.workload, what());
        }
    }

    /// Print every metric by name with its unit, write the detail file, and
    /// return the driver's result line. A metric this workload does not
    /// measure is reported as 0; one it should have measured but did not,
    /// or a value that is not finite, counts as a failed operation.
    pub fn finish(mut self, args: &Args) -> String {
        let tables: &[&[Def]] = if self.trace {
            &[metrics::PER_LAYER]
        } else {
            &[metrics::END_TO_END, metrics::UNTRACED_EXTRA]
        };
        let home = |def: &Def| def.on.contains(&args.workload.as_str());
        for def in
            tables.iter().flat_map(|t| t.iter()).filter(|d| home(d) && d.name != "fail_ratio")
        {
            let value = self.metrics.iter().find(|m| m.def.name == def.name).map(|m| m.value);
            self.check(value.is_some_and(f64::is_finite), || {
                format!("metric {} not measured: {value:?}", def.name)
            });
        }
        if !self.trace {
            self.put("fail_ratio", self.failed as f64 / self.attempted as f64);
        }
        let mut detail = String::new();
        let mut line = String::new();
        for (t, table) in tables.iter().enumerate() {
            for def in table.iter() {
                let found = self.metrics.iter().find(|m| m.def.name == def.name);
                let value = found.map_or(0.0, |m| if m.value.is_finite() { m.value } else { 0.0 });
                if home(def) {
                    print!("metric {} {} = {} {}", self.workload, def.name, value, def.unit);
                    let comma = if detail.is_empty() { "" } else { "," };
                    let _ = write!(
                        detail,
                        "{comma}\n      \"{}\": {{\"value\": {value}, \"unit\": \"{}\"",
                        def.name, def.unit
                    );
                    if let Some(s) = found.and_then(|m| m.spread).filter(|s| s.n > 0) {
                        print!("  (n={} min={} q1={} q3={})", s.n, s.min, s.q1, s.q3);
                        let _ = write!(
                            detail,
                            ", \"n\": {}, \"min\": {}, \"q1\": {}, \"q3\": {}",
                            s.n, s.min, s.q1, s.q3
                        );
                    }
                    println!();
                    detail.push('}');
                }
                // The result line carries BENCHMARK.json's metrics only.
                if self.trace || t == 0 {
                    let comma = if line.is_empty() { "" } else { ", " };
                    let _ = write!(
                        line,
                        "{comma}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                        def.name, def.unit
                    );
                }
            }
        }
        let correct = self.failed == 0;
        let head = format!(
            "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}",
            self.attempted, self.failed
        );
        let mode = if self.trace { "traced" } else { "untraced" };
        let detail = format!(
            "    {{\"workload\": \"{}\", \"mode\": \"{mode}\", \"seed\": {}, \"seconds\": {}, \
             \"smoke\": {}, {head},\n     \"metrics\": {{{detail}\n     }}}}\n",
            self.workload, args.seed, args.seconds, args.smoke
        );
        let path = args.out_dir.join(format!("{}.{mode}.json", self.workload));
        if let Err(e) =
            std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, detail))
        {
            eprintln!("cannot write {}: {e}", path.display());
        }
        format!("{{{head}, \"metrics\": {{{line}}}}}")
    }
}
