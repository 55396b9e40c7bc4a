//! `matryoshka-serve`: the std-only multi-tenant job server.
//!
//! Binds a TCP listener, prints `LISTENING <addr>` on stdout (so scripts
//! can discover an ephemeral port), and serves the wire protocol of
//! `docs/SERVICE.md` until a client sends `SHUTDOWN`.
//!
//! ```text
//! matryoshka-serve [OPTIONS]
//!
//!   --addr HOST:PORT       bind address (default 127.0.0.1:0 = ephemeral)
//!   --policy fifo|fair     scheduling policy (default fifo)
//!   --pools SPEC           comma-separated name:weight[:max_concurrent]
//!                          (default: the single pool `default:1`)
//!   --queue-capacity N     admission queue bound (default 64)
//!   --slots N              total simulated core slots (default 8)
//!   --default-slots N      slots per job when the client asks for 0
//!   --seed N               dataset seed (default 42)
//!   -h, --help             print usage
//! ```
//!
//! Exit status: 0 on graceful shutdown, 2 on usage or bind errors.

use std::process::ExitCode;

use matryoshka::core::MatryoshkaConfig;
use matryoshka::engine::ClusterConfig;
use matryoshka::service::{JobService, PoolConfig, SchedulerConfig, SchedulingPolicy, Server};

const USAGE: &str = "usage: matryoshka-serve [--addr HOST:PORT] [--policy fifo|fair] \
[--pools name:weight[:cap],...] [--queue-capacity N] [--slots N] [--default-slots N] [--seed N]";

/// Parse a `name:weight[:max_concurrent]` pool spec.
fn parse_pool(spec: &str) -> Result<PoolConfig, String> {
    let mut parts = spec.split(':');
    let name = parts.next().filter(|s| !s.is_empty()).ok_or("pool spec needs a name")?;
    let weight: u64 = parts
        .next()
        .ok_or_else(|| format!("pool `{name}`: missing weight"))?
        .parse()
        .map_err(|_| format!("pool `{name}`: weight must be an integer"))?;
    let mut pool = PoolConfig::new(name, weight);
    if let Some(cap) = parts.next() {
        let cap: usize =
            cap.parse().map_err(|_| format!("pool `{name}`: cap must be an integer"))?;
        pool = pool.with_max_concurrent(cap);
    }
    if parts.next().is_some() {
        return Err(format!("pool spec `{spec}` has too many fields"));
    }
    Ok(pool)
}

fn run() -> Result<(), String> {
    let mut addr = "127.0.0.1:0".to_string();
    let mut scheduler = SchedulerConfig::default();
    let mut seed = 42u64;
    let mut args = std::env::args().skip(1);
    let next = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} requires a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = next(&mut args, "--addr")?,
            "--policy" => {
                scheduler.policy = match next(&mut args, "--policy")?.as_str() {
                    "fifo" => SchedulingPolicy::Fifo,
                    "fair" => SchedulingPolicy::FairShare,
                    other => return Err(format!("unknown policy `{other}`")),
                };
            }
            "--pools" => {
                scheduler.pools = next(&mut args, "--pools")?
                    .split(',')
                    .map(parse_pool)
                    .collect::<Result<_, _>>()?;
            }
            "--queue-capacity" => {
                scheduler.queue_capacity = next(&mut args, "--queue-capacity")?
                    .parse()
                    .map_err(|_| "--queue-capacity must be an integer".to_string())?;
            }
            "--slots" => {
                scheduler.total_slots = next(&mut args, "--slots")?
                    .parse()
                    .map_err(|_| "--slots must be an integer".to_string())?;
            }
            "--default-slots" => {
                scheduler.default_slots = next(&mut args, "--default-slots")?
                    .parse()
                    .map_err(|_| "--default-slots must be an integer".to_string())?;
            }
            "--seed" => {
                seed = next(&mut args, "--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?;
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let service = JobService::with_scheduler(
        ClusterConfig::local_test(),
        MatryoshkaConfig::optimized(),
        scheduler,
        seed,
    )?;
    let server = Server::bind(service, &addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    println!("LISTENING {bound}");
    server.run().map_err(|e| format!("serve: {e}"))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("matryoshka-serve: {e}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
