//! `matryoshka-submit`: submit `.mat` programs to a running
//! `matryoshka-serve` and wait for their outcomes.
//!
//! Each file becomes one job (named after its file stem). The client
//! submits everything first, then waits for each job and prints a line per
//! outcome, so concurrent jobs actually overlap on the service.
//!
//! ```text
//! matryoshka-submit --addr HOST:PORT [OPTIONS] FILE...
//!
//!   --addr HOST:PORT     server address (required)
//!   --pool NAME          target pool (default `default`)
//!   --slots N            simulated core slots per job (0 = server default)
//!   --deadline-ms N      per-job virtual deadline in milliseconds
//!   --no-wait            submit only; don't wait for outcomes
//!   --expect-reject      invert: exit 0 only if every submission is
//!                        rejected at admission (for CI negative tests)
//!   -h, --help           print usage
//! ```
//!
//! Exit status: 0 if every job completed (or, with `--expect-reject`,
//! every submission was rejected), 1 if any job failed, was cancelled, or
//! was unexpectedly (not) rejected, 2 on usage, I/O, or protocol errors.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::ExitCode;

struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    fn open(addr: &str) -> Result<Connection, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| format!("connect {addr}: {e}"))?;
        let reader =
            BufReader::new(writer.try_clone().map_err(|e| format!("connect {addr}: {e}"))?);
        Ok(Connection { reader, writer })
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        Ok(line.trim_end().to_string())
    }

    /// Read `DIAG` continuations (printing them) until the final reply.
    fn recv_final(&mut self) -> Result<String, String> {
        loop {
            let line = self.recv()?;
            if let Some(diag) = line.strip_prefix("DIAG ") {
                eprintln!("  {diag}");
            } else {
                return Ok(line);
            }
        }
    }

    /// Send one request, header line and (for `SUBMIT`) body, in one write:
    /// a request split over several small segments waits on the server's
    /// delayed ACK (`docs/SERVICE.md`, "Framing and latency").
    fn send(&mut self, header: &str, body: &str) -> Result<(), String> {
        let request = format!("{header}\n{body}");
        self.writer.write_all(request.as_bytes()).map_err(|e| format!("write: {e}"))
    }
}

struct Options {
    addr: String,
    pool: String,
    slots: usize,
    deadline_ms: Option<u64>,
    wait: bool,
    expect_reject: bool,
    files: Vec<String>,
}

const USAGE: &str = "usage: matryoshka-submit --addr HOST:PORT [--pool NAME] [--slots N] \
[--deadline-ms N] [--no-wait] [--expect-reject] FILE...";

fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        addr: String::new(),
        pool: "default".to_string(),
        slots: 0,
        deadline_ms: None,
        wait: true,
        expect_reject: false,
        files: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    let next = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} requires a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => opts.addr = next(&mut args, "--addr")?,
            "--pool" => opts.pool = next(&mut args, "--pool")?,
            "--slots" => {
                opts.slots = next(&mut args, "--slots")?
                    .parse()
                    .map_err(|_| "--slots must be an integer".to_string())?;
            }
            "--deadline-ms" => {
                opts.deadline_ms = Some(
                    next(&mut args, "--deadline-ms")?
                        .parse()
                        .map_err(|_| "--deadline-ms must be an integer".to_string())?,
                );
            }
            "--no-wait" => opts.wait = false,
            "--expect-reject" => opts.expect_reject = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => opts.files.push(other.to_string()),
        }
    }
    if opts.addr.is_empty() {
        return Err("--addr is required".to_string());
    }
    if opts.files.is_empty() {
        return Err("no program files given".to_string());
    }
    Ok(Some(opts))
}

fn job_name(file: &str) -> String {
    Path::new(file)
        .file_stem()
        .map(|s| s.to_string_lossy().replace(char::is_whitespace, "_"))
        .unwrap_or_else(|| "job".to_string())
}

fn run(opts: &Options) -> Result<bool, String> {
    let mut conn = Connection::open(&opts.addr)?;
    let mut submitted: Vec<(String, u64)> = Vec::new();
    let mut all_ok = true;
    for file in &opts.files {
        let program = std::fs::read_to_string(file).map_err(|e| format!("read {file}: {e}"))?;
        let name = job_name(file);
        let mut header = format!("SUBMIT {name} {} {}", opts.pool, program.len());
        if opts.slots != 0 {
            header.push_str(&format!(" slots={}", opts.slots));
        }
        if let Some(d) = opts.deadline_ms {
            header.push_str(&format!(" deadline_ms={d}"));
        }
        conn.send(&header, &program)?;
        let reply = conn.recv_final()?;
        if let Some(rest) = reply.strip_prefix("OK ") {
            let id: u64 = rest
                .split_whitespace()
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| format!("malformed reply `{reply}`"))?;
            println!("{name}: submitted as job {id}");
            if opts.expect_reject {
                eprintln!("{name}: expected rejection but was admitted");
                all_ok = false;
            }
            submitted.push((name, id));
        } else {
            println!("{name}: {reply}");
            if !opts.expect_reject {
                all_ok = false;
            }
        }
    }
    if opts.wait {
        for (name, id) in &submitted {
            conn.send(&format!("WAIT {id}"), "")?;
            let reply = conn.recv_final()?;
            println!("{name}: {reply}");
            let completed = reply
                .strip_prefix(&format!("OK {id} "))
                .is_some_and(|r| r.starts_with("completed"));
            if !completed {
                all_ok = false;
            }
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(opts)) => opts,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("matryoshka-submit: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("matryoshka-submit: {e}");
            ExitCode::from(2)
        }
    }
}
