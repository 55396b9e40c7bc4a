//! Experiment harness: run one strategy on one configuration of the
//! simulated cluster, record simulated time + outcome, print paper-style
//! tables.
//!
//! Set `MATRYOSHKA_TRACE_DIR=<dir>` to have [`run_case_named`] enable the
//! engine's structured tracing and dump each case's run as
//! `<slug>-<seq>.trace.json` (events + decisions + summary) and
//! `<slug>-<seq>.chrome.json` (Chrome Trace Event Format, loadable in
//! Perfetto). See `docs/OBSERVABILITY.md`.

use std::sync::atomic::{AtomicU64, Ordering};

use matryoshka_engine::{ClusterConfig, Engine, EngineError, StatsSnapshot};

/// What happened when a strategy ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed.
    Ok,
    /// Failed with a simulated OutOfMemory (plotted as "OOM" in the paper).
    Oom,
    /// The strategy cannot express the program (DIQL + inner control flow).
    Unsupported,
}

/// One measured run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Completion status.
    pub outcome: Outcome,
    /// Simulated runtime in seconds (time until completion or failure).
    pub seconds: f64,
    /// Engine statistics delta for the run.
    pub stats: StatsSnapshot,
}

/// One row of a figure: `(series, x) -> measurement`.
#[derive(Debug, Clone)]
pub struct Row {
    /// Figure identifier, e.g. "fig3/pagerank".
    pub figure: String,
    /// Line in the plot, e.g. "matryoshka".
    pub series: String,
    /// X coordinate, e.g. the number of inner computations.
    pub x: u64,
    /// The measurement.
    pub m: Measurement,
}

/// Run `f` on a fresh engine over `cfg` and measure simulated time and
/// statistics. Simulated OOM becomes [`Outcome::Oom`]; `Unsupported` becomes
/// [`Outcome::Unsupported`]; any other engine error panics (it would be a
/// harness bug).
pub fn run_case(
    cfg: ClusterConfig,
    f: impl FnOnce(&Engine) -> matryoshka_engine::Result<()>,
) -> Measurement {
    run_case_named("case", cfg, f)
}

/// Sequence number for trace dump filenames (several cases can share a name).
static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

/// [`run_case`] with a name used for trace dumps. When the
/// `MATRYOSHKA_TRACE_DIR` environment variable is set, tracing is enabled on
/// the case's engine and the run is exported to
/// `$MATRYOSHKA_TRACE_DIR/<slug>-<seq>.trace.json` (plus a `.chrome.json`
/// Chrome trace); export failures are reported to stderr, never fail a run.
pub fn run_case_named(
    name: &str,
    cfg: ClusterConfig,
    f: impl FnOnce(&Engine) -> matryoshka_engine::Result<()>,
) -> Measurement {
    let trace_dir = std::env::var_os("MATRYOSHKA_TRACE_DIR");
    let engine = Engine::new(ClusterConfig { trace_events: trace_dir.is_some(), ..cfg });
    let t0 = engine.sim_time();
    let s0 = engine.stats();
    let outcome = match f(&engine) {
        Ok(()) => Outcome::Ok,
        Err(EngineError::OutOfMemory { .. }) => Outcome::Oom,
        Err(EngineError::Unsupported(_)) => Outcome::Unsupported,
        Err(e) => panic!("unexpected engine error in experiment: {e}"),
    };
    if let Some(dir) = trace_dir {
        dump_traces(&engine, std::path::Path::new(&dir), name);
    }
    Measurement {
        outcome,
        seconds: (engine.sim_time() - t0).as_secs_f64(),
        stats: engine.stats().since(&s0),
    }
}

/// Write `<slug>-<seq>.trace.json` and `<slug>-<seq>.chrome.json` under
/// `dir`, creating it if needed. Best-effort: failures go to stderr.
fn dump_traces(engine: &Engine, dir: &std::path::Path, name: &str) {
    let slug: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '-' })
        .collect();
    let seq = TRACE_SEQ.fetch_add(1, Ordering::Relaxed);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("trace dump: cannot create {}: {e}", dir.display());
        return;
    }
    for (suffix, contents) in
        [("trace.json", engine.trace_json()), ("chrome.json", engine.chrome_trace())]
    {
        let path = dir.join(format!("{slug}-{seq:03}.{suffix}"));
        if let Err(e) = std::fs::write(&path, contents) {
            eprintln!("trace dump: cannot write {}: {e}", path.display());
        }
    }
}

/// Format one measurement the way the paper's plots label failures.
fn fmt_measurement(m: &Measurement) -> String {
    match m.outcome {
        Outcome::Ok => format!("{:.1}", m.seconds),
        Outcome::Oom => "OOM".to_string(),
        Outcome::Unsupported => "n/a".to_string(),
    }
}

/// Print rows grouped by figure as a markdown-ish table:
/// one line per x, one column per series.
pub fn print_rows(rows: &[Row]) {
    use std::collections::BTreeMap;
    let mut by_figure: BTreeMap<&str, Vec<&Row>> = BTreeMap::new();
    for r in rows {
        by_figure.entry(r.figure.as_str()).or_default().push(r);
    }
    for (figure, rows) in by_figure {
        let mut series: Vec<&str> = Vec::new();
        for r in &rows {
            if !series.contains(&r.series.as_str()) {
                series.push(&r.series);
            }
        }
        let mut xs: Vec<u64> = rows.iter().map(|r| r.x).collect();
        xs.sort_unstable();
        xs.dedup();
        println!("\n== {figure} (simulated seconds) ==");
        println!(
            "{:>10} | {}",
            "x",
            series.iter().map(|s| format!("{s:>16}")).collect::<Vec<_>>().join(" | ")
        );
        for x in xs {
            let cells: Vec<String> = series
                .iter()
                .map(|s| {
                    rows.iter()
                        .find(|r| r.x == x && r.series == *s)
                        .map(|r| format!("{:>16}", fmt_measurement(&r.m)))
                        .unwrap_or_else(|| format!("{:>16}", "-"))
                })
                .collect();
            println!("{x:>10} | {}", cells.join(" | "));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matryoshka_engine::GB;

    #[test]
    fn run_case_measures_time_and_stats() {
        let m = run_case(ClusterConfig::local_test(), |e| {
            e.parallelize((0..100).collect::<Vec<u32>>(), 4).count()?;
            Ok(())
        });
        assert_eq!(m.outcome, Outcome::Ok);
        assert!(m.seconds > 0.0);
        assert_eq!(m.stats.jobs, 1);
    }

    #[test]
    fn run_case_captures_oom() {
        let m = run_case(ClusterConfig::local_test(), |e| {
            e.broadcast(0u8, 100 * GB)?;
            Ok(())
        });
        assert_eq!(m.outcome, Outcome::Oom);
        assert_eq!(fmt_measurement(&m), "OOM");
    }

    #[test]
    fn run_case_captures_unsupported() {
        let m = run_case(ClusterConfig::local_test(), |_| {
            Err(matryoshka_engine::EngineError::Unsupported("loops".into()))
        });
        assert_eq!(m.outcome, Outcome::Unsupported);
        assert_eq!(fmt_measurement(&m), "n/a");
    }

    #[test]
    fn trace_dir_env_dumps_json_and_chrome_traces() {
        // Workspace-relative scratch dir (tests must not write outside it).
        let dir =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/trace-dump-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("MATRYOSHKA_TRACE_DIR", &dir);
        let m = run_case_named("harness self-test", ClusterConfig::local_test(), |e| {
            e.generate(1000, 4, |i| (i % 7, 1u64)).reduce_by_key(|a, b| a + b).count()?;
            Ok(())
        });
        std::env::remove_var("MATRYOSHKA_TRACE_DIR");
        assert_eq!(m.outcome, Outcome::Ok);
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("trace dir created")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.starts_with("harness-self-test-"))
            .collect();
        assert!(names.iter().any(|n| n.ends_with(".trace.json")), "json dump missing: {names:?}");
        assert!(
            names.iter().any(|n| n.ends_with(".chrome.json")),
            "chrome dump missing: {names:?}"
        );
        let json_name = names.iter().find(|n| n.ends_with(".trace.json")).unwrap();
        let json = std::fs::read_to_string(dir.join(json_name)).unwrap();
        assert!(json.contains("\"summary\""));
        assert!(json.contains("\"shuffle\""), "the reduce_by_key shuffle must be in the trace");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
