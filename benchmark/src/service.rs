//! Workload 7: the TCP job service, in process, under a closed loop of one
//! client connection. The cycle is the 8 shipped programs as `SUBMIT` +
//! `WAIT`, in an order drawn from `--seed`, then one program the analyzer
//! must reject. Jobs are tiny (512-2,047 service-seeded records per source),
//! so the fixed cost of a request is what this workload measures.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

use matryoshka_core::MatryoshkaConfig;
use matryoshka_datagen::SmallRng;
use matryoshka_engine::{ClusterConfig, Engine};
use matryoshka_ir::{prepare_program, Dialect, RtVal, Value};
use matryoshka_service::datasets::source_bag;
use matryoshka_service::{JobOutcome, JobService, JobSpec, Server};

use crate::harness::{
    median, proc_status_kb, process_cpu_s, quantile, sample_ms, time_ms, Args, Report, SETUPS,
};
use crate::mat::{Mat, Sources};
use crate::spans::Tracer;

/// Seed of the service's datasets. Not `--seed`: the service sizes each source
/// from its seed (512 to 2,047 records), so the load itself, and with it
/// memory and request time, would differ from seed to seed by up to 4x.
const DATASET_SEED: u64 = 42;

/// The shipped programs in the order `--seed` draws (Fisher-Yates).
fn programs_in_seeded_order(args: &Args) -> Result<Mat, String> {
    let mut m = Mat::bagops(args)?;
    let mut rng = SmallRng::seed_from_u64(args.seed);
    for i in (1..m.programs.len()).rev() {
        m.programs.swap(i, rng.gen_range(0..i as u64 + 1) as usize);
    }
    Ok(m)
}

/// Unbound variable `y`: the analyzer rejects it at admission (MAT001).
const REJECTED_PROGRAM: &str = "map(source(xs), v => y)";

fn io_err(e: std::io::Error) -> String {
    format!("I/O error: {e}")
}

/// A server on its own thread and the one client connection to it.
struct Session {
    addr: SocketAddr,
    server: JoinHandle<std::io::Result<()>>,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    completed: u64,
    rejected: u64,
}

/// What one `SUBMIT` + `WAIT` pair took and returned.
struct Reply {
    submit_ms: f64,
    wait_ms: f64,
    sim_nanos: u64,
    result: String,
}

fn connect(addr: SocketAddr) -> Result<(BufReader<TcpStream>, TcpStream), String> {
    let stream = TcpStream::connect(addr).map_err(io_err)?;
    stream.set_nodelay(true).map_err(io_err)?;
    Ok((BufReader::new(stream.try_clone().map_err(io_err)?), stream))
}

impl Session {
    fn start() -> Result<Session, String> {
        let service = JobService::new(
            ClusterConfig::local_test(),
            MatryoshkaConfig::default(),
            DATASET_SEED,
        )?;
        let server = Server::bind(service, "127.0.0.1:0").map_err(io_err)?;
        let addr = server.local_addr().map_err(io_err)?;
        let server = std::thread::spawn(move || server.run());
        let (reader, writer) = connect(addr)?;
        Ok(Session { addr, server, reader, writer, completed: 0, rejected: 0 })
    }

    /// Send one request with a single `write_all`; read one reply line.
    fn request(&mut self, request: &[u8]) -> Result<String, String> {
        self.writer.write_all(request).map_err(io_err)?;
        self.read_line()
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line).map_err(io_err)? == 0 {
            return Err("server closed the connection".into());
        }
        Ok(line.trim_end().to_string())
    }

    fn submit_request(name: &str, text: &str) -> Vec<u8> {
        format!("SUBMIT {name} default {}\n{text}", text.len()).into_bytes()
    }

    /// `SUBMIT` a program and `WAIT` for it: first byte written to the
    /// `WAIT` reply line read.
    fn submit_and_wait(&mut self, name: &str, text: &str, t: &mut Tracer) -> Result<Reply, String> {
        let request = Session::submit_request(name, text);
        let (submit_ms, queued) = t.span("client.submit", || time_ms(|| self.request(&request)));
        let queued = queued?;
        let id = match queued.split(' ').collect::<Vec<_>>()[..] {
            ["OK", id, "queued"] => id.to_string(),
            _ => return Err(format!("SUBMIT {name}: unexpected reply `{queued}`")),
        };
        let (wait_ms, done) =
            t.span("client.wait", || time_ms(|| self.request(format!("WAIT {id}\n").as_bytes())));
        let done = done?;
        let mut parts = done.splitn(5, ' ');
        match (parts.next(), parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some("OK"), Some(i), Some("completed"), Some(sim), Some(result)) if i == id => {
                self.completed += 1;
                let sim_nanos =
                    sim.parse().map_err(|_| format!("WAIT {id}: bad sim_nanos `{sim}`"))?;
                Ok(Reply { submit_ms, wait_ms, sim_nanos, result: result.to_string() })
            }
            _ => Err(format!("WAIT {id} ({name}): unexpected reply `{done}`")),
        }
    }

    /// `SUBMIT` the invalid program: `DIAG` lines, then `ERR rejected`.
    fn submit_rejected(&mut self, t: &mut Tracer) -> Result<f64, String> {
        let request = Session::submit_request("invalid", REJECTED_PROGRAM);
        let (ms, reply) = t.span("client.reject", || {
            time_ms(|| {
                let mut line = self.request(&request)?;
                let mut diagnostics = 0;
                while line.starts_with("DIAG ") {
                    diagnostics += 1;
                    line = self.read_line()?;
                }
                Ok::<_, String>((diagnostics, line))
            })
        });
        let (diagnostics, line) = reply?;
        if diagnostics == 0 || !line.starts_with("ERR rejected") {
            return Err(format!("invalid program: {diagnostics} DIAG lines, then `{line}`"));
        }
        self.rejected += 1;
        Ok(ms)
    }

    /// Check `STATS` against the client's own tallies, shut the server down
    /// and wait for its threads.
    fn finish(mut self, rep: &mut Report) -> (u64, u64) {
        let stats = self.request(b"STATS\n").unwrap_or_else(|e| e);
        let field = |name: &str| -> Option<u64> {
            stats.split(' ').find_map(|kv| kv.strip_prefix(name)?.strip_prefix('=')?.parse().ok())
        };
        let (completed, rejected) = (field("jobs_completed"), field("jobs_rejected"));
        rep.check(completed == Some(self.completed) && rejected == Some(self.rejected), || {
            format!("STATS `{stats}` vs client tallies {} / {}", self.completed, self.rejected)
        });
        let bye = self.request(b"SHUTDOWN\n");
        rep.check(bye.as_deref() == Ok("OK shutting down"), || format!("SHUTDOWN: {bye:?}"));
        drop((self.reader, self.writer));
        let joined = self.server.join();
        rep.check(matches!(joined, Ok(Ok(()))), || "server thread did not end cleanly".into());
        (self.completed, self.rejected)
    }
}

/// What the service must answer for one program.
struct Expected {
    sim_nanos: u64,
    result: String,
}

/// The oracle: each program run directly (`PreparedProgram::run` on a fresh
/// engine over `datasets::source_bag`, then the count the service takes of a
/// bag result) for the simulated time, and the hand-written reference over
/// the same rows for the result summary.
fn expectations(m: &Mat) -> Result<Vec<Expected>, String> {
    m.programs
        .iter()
        .map(|p| {
            let prepared =
                prepare_program(&p.text, Dialect::Matryoshka).map_err(|e| e.to_string())?;
            let engine = Engine::new(ClusterConfig::local_test());
            // Collecting the rows is a job: it runs on an engine of its own
            // so that it costs the measured one no simulated time.
            let scratch = Engine::new(ClusterConfig::local_test());
            let mut inputs = HashMap::new();
            let mut sources: Sources = Vec::new();
            for name in p.source_names() {
                inputs.insert(name.to_string(), source_bag(&engine, DATASET_SEED, name));
                let rows = source_bag(&scratch, DATASET_SEED, name)
                    .collect()
                    .map_err(|e| e.to_string())?;
                let rows = rows
                    .iter()
                    .map(|v| match (v.proj_ref(0), v.proj_ref(1)) {
                        (Ok(Value::Long(k)), Ok(Value::Long(x))) => Ok((*k, *x)),
                        _ => Err(format!("source {name}: not a (Long, Long) pair: {v}")),
                    })
                    .collect::<Result<_, String>>()?;
                sources.push((name, rows));
            }
            let want = (p.reference)(&sources);
            let out = prepared
                .run(engine.clone(), MatryoshkaConfig::default(), &inputs)
                .map_err(|e| e.to_string())?;
            let result = match out {
                RtVal::Bag(b) => {
                    b.count().map_err(|e| e.to_string())?;
                    format!("bag with {} records", want.len())
                }
                _ => format!("scalar {}", want[0]),
            };
            Ok(Expected { sim_nanos: engine.sim_time().as_nanos(), result })
        })
        .collect()
}

/// One cycle: every program, then the rejected one. Each reply is checked
/// for kind, simulated time and result. Returns the cycle's simulated
/// nanoseconds.
fn cycle(
    s: &mut Session,
    m: &Mat,
    want: &[Expected],
    rep: &mut Report,
    t: &mut Tracer,
    samples: &mut Samples,
) -> u64 {
    let mut sim = 0;
    for (p, want) in m.programs.iter().zip(want) {
        t.next_job();
        let job = t.begin("job.request");
        let reply = s.submit_and_wait(p.name, &p.text, t);
        t.end(job);
        match reply {
            Err(e) => rep.check(false, || e),
            Ok(r) => {
                rep.check(r.sim_nanos == want.sim_nanos && r.result == want.result, || {
                    format!(
                        "{}: got {} ns `{}`, want {} ns `{}`",
                        p.name, r.sim_nanos, r.result, want.sim_nanos, want.result
                    )
                });
                sim += r.sim_nanos;
                samples.submit.push(r.submit_ms);
                samples.wait.push(r.wait_ms);
                samples.request.push(r.submit_ms + r.wait_ms);
            }
        }
    }
    t.next_job();
    match s.submit_rejected(t) {
        Err(e) => rep.check(false, || e),
        Ok(ms) => {
            rep.check(true, String::new);
            samples.reject.push(ms);
        }
    }
    sim
}

#[derive(Default)]
struct Samples {
    submit: Vec<f64>,
    wait: Vec<f64>,
    request: Vec<f64>,
    reject: Vec<f64>,
}

/// Run whole cycles for `seconds`; returns the samples, the first cycle's
/// simulated nanoseconds and the window's length in seconds.
fn window(
    s: &mut Session,
    m: &Mat,
    want: &[Expected],
    seconds: f64,
    rep: &mut Report,
    t: &mut Tracer,
) -> (Samples, u64, f64) {
    let mut samples = Samples::default();
    let mut first_sim = None;
    let started = Instant::now();
    loop {
        let sim = cycle(s, m, want, rep, t, &mut samples);
        let first = *first_sim.get_or_insert(sim);
        rep.check(sim == first, || format!("cycle simulated {sim} ns, the first {first} ns"));
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    (samples, first_sim.unwrap_or(0), started.elapsed().as_secs_f64())
}

/// Set up [`SETUPS`] times (service, bind, connect, one warm-up cycle); the
/// last session stays open for the measurement.
fn sessions(m: &Mat, want: &[Expected], rep: &mut Report) -> Result<(Session, f64), String> {
    let mut setups = Vec::new();
    let mut open: Option<Session> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = open.take() {
            previous.finish(rep);
        }
        let t0 = Instant::now();
        let mut s = Session::start()?;
        cycle(&mut s, m, want, rep, &mut Tracer::new(false), &mut Samples::default());
        setups.push(t0.elapsed().as_secs_f64());
        open = Some(s);
    }
    Ok((open.expect("SETUPS > 0"), median(&setups)))
}

pub fn run_untraced(args: &Args, rep: &mut Report) -> Result<(), String> {
    let m = programs_in_seeded_order(args)?;
    let want = expectations(&m)?;
    let (mut s, setup_s) = sessions(&m, &want, rep)?;
    let cpu_start = process_cpu_s();
    let (samples, sim, elapsed) =
        window(&mut s, &m, &want, args.seconds, rep, &mut Tracer::new(false));
    let cpu_s = process_cpu_s() - cpu_start;
    s.finish(rep);
    rep.put_window(&samples.request, elapsed, cpu_s, Some(sim), setup_s);
    rep.put("req_ms_p95", p95(&samples.request));
    rep.put_samples("reject_ms_p50", &samples.reject);
    Ok(())
}

fn p95(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    println!("note: p95 over {} requests (fewer than 200 leave under 10 beyond it)", sorted.len());
    if sorted.is_empty() {
        f64::NAN
    } else {
        quantile(&sorted, 0.95)
    }
}

/// The per-layer run: the same window with client-side spans, the same cycle
/// in process (no sockets), then each piece of a request on its own.
pub fn run_traced(args: &Args, rep: &mut Report, t: &mut Tracer) -> Result<(), String> {
    let m = programs_in_seeded_order(args)?;
    let want = expectations(&m)?;
    let (mut s, _) = sessions(&m, &want, rep)?;
    let rss_before = proc_status_kb("VmRSS");
    let (samples, sim, _) = window(&mut s, &m, &want, args.seconds / 2.0, rep, t);
    let rss_after = proc_status_kb("VmRSS");
    let requests = samples.request.len() + samples.reject.len();
    rep.put("engine.sim_s", sim as f64 / 1e9);
    rep.put("service.req_ms_p95", p95(&samples.request));
    rep.put_samples("service.reject_ms_p50", &samples.reject);
    rep.put_samples("service.submit_ms_p50", &samples.submit);
    rep.put_samples("service.wait_ms_p50", &samples.wait);
    rep.put("service.rss_kb_per_kreq", (rss_after - rss_before) / requests as f64 * 1e3);

    let pings = sample_ms(args.size(200, 5), true, || s.request(b"PING\n"));
    rep.put_samples("service.ping_ms_p50", &pings);
    let addr = s.addr;
    let connects = sample_ms(args.size(50, 3), true, || {
        let (mut reader, mut writer) = connect(addr)?;
        writer.write_all(b"PING\n").map_err(io_err)?;
        let mut line = String::new();
        reader.read_line(&mut line).map_err(io_err)?;
        Ok::<_, String>(line)
    });
    rep.put_samples("service.connect_ms_p50", &connects);
    let (completed, rejected) = s.finish(rep);
    rep.put("service.jobs_completed", completed as f64);
    rep.put("service.jobs_rejected", rejected as f64);

    // The same cycle through the service's own API: no sockets, no server
    // threads, the caller drives the event loop.
    let service =
        JobService::new(ClusterConfig::local_test(), MatryoshkaConfig::default(), DATASET_SEED)?;
    let mut inproc = Vec::new();
    for round in 0..args.size(20, 2) {
        for (p, want) in m.programs.iter().zip(&want) {
            t.next_job();
            let job = t.begin("job.inproc");
            let (ms, outcome) = time_ms(|| {
                let id = t.span("service.submit", || {
                    service.submit(JobSpec::program(p.name, p.text.clone()))
                });
                t.span("service.run_until_idle", || service.run_until_idle());
                id.ok().and_then(|id| t.span("service.wait", || service.wait(id)))
            });
            t.end(job);
            let ok = matches!(&outcome, Some(JobOutcome::Completed { sim_nanos, result })
                if *sim_nanos == want.sim_nanos && *result == want.result);
            rep.check(ok, || format!("in-process {}: {outcome:?}", p.name));
            if round > 0 {
                inproc.push(ms);
            }
        }
        let rejected = service.submit(JobSpec::program("invalid", REJECTED_PROGRAM));
        rep.check(rejected.is_err(), || "in-process: invalid program admitted".into());
    }
    rep.put_samples("service.inproc_ms_p50", &inproc);
    rep.put("service.wire_overhead_ms", median(&samples.request) - median(&inproc));

    // The pieces of one job, each over the cycle's mix of programs.
    let runs = args.size(20, 2);
    let (mut prepare_ms, mut dataset_ms, mut run_ms) = (Vec::new(), Vec::new(), Vec::new());
    let local = || Engine::new(ClusterConfig::local_test());
    for p in &m.programs {
        let prepare =
            || prepare_program(&p.text, Dialect::Matryoshka).expect("shipped program prepares");
        prepare_ms.extend(sample_ms(runs, true, prepare));
        let prepared = prepare();
        let bind = |engine: &Engine| -> HashMap<_, _> {
            prepared
                .sources
                .iter()
                .map(|n| (n.clone(), source_bag(engine, DATASET_SEED, n)))
                .collect()
        };
        dataset_ms.extend(sample_ms(runs, true, || bind(&local())));
        for _ in 0..runs {
            let engine = local();
            let inputs = bind(&engine);
            let run = || match prepared.run(engine.clone(), MatryoshkaConfig::default(), &inputs) {
                Ok(RtVal::Bag(b)) => b.count().is_ok(),
                other => other.is_ok(),
            };
            run_ms.push(time_ms(run).0);
        }
    }
    let us = |ms: &[f64]| ms.iter().map(|ms| ms * 1e3).collect::<Vec<_>>();
    rep.put_samples("service.prepare_us", &us(&prepare_ms));
    rep.put_samples("service.dataset_us", &us(&dataset_ms));
    rep.put_samples("service.run_ms_p50", &run_ms);
    Ok(())
}
