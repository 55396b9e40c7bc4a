//! The std-only TCP server behind `matryoshka-serve`.
//!
//! One thread per connection speaks the [`wire`](crate::wire) protocol; a
//! dedicated driver thread runs the service's virtual-time event loop so
//! submissions from any connection are scheduled by the single
//! deterministic driver. `SHUTDOWN` stops accepting, drains running work,
//! and returns from [`Server::run`].
//!
//! The acceptor blocks in `accept`: an idle server costs nothing and a new
//! connection is served after a thread spawn, not after a poll interval.
//! Nothing but a connection wakes a blocked `accept`, so the connection
//! that reads `SHUTDOWN` sets the shutdown flag and then connects to the
//! listener's own address; the acceptor sees the flag, drops that
//! connection unanswered and closes the listener.
//!
//! Every reply group (`DIAG` lines plus the final `OK`/`ERR` line) is
//! assembled in one buffer and leaves in one `write_all`, on a socket with
//! `TCP_NODELAY` set. A reply written piecewise is several small segments,
//! and Nagle's algorithm holds every segment after the first until the
//! client's delayed ACK (40 ms on Linux) arrives: see `docs/SERVICE.md`,
//! "Framing and latency".

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use matryoshka_engine::sim::SimTime;

use crate::job::{JobOutcome, JobSpec, JobStatus};
use crate::service::JobService;
use crate::wire::{parse_command, Command, MAX_LINE_BYTES};

/// A bound, not-yet-running submission server.
pub struct Server {
    service: JobService,
    listener: TcpListener,
}

/// Replace newlines so multi-line payloads fit the one-line reply grammar.
fn one_line(s: &str) -> String {
    s.replace(['\n', '\r'], "; ")
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port; the bound address
    /// is available via [`Server::local_addr`]).
    pub fn bind(service: JobService, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server { service, listener })
    }

    /// The actually-bound socket address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The served job service (for in-process tests).
    pub fn service(&self) -> &JobService {
        &self.service
    }

    /// Accept and serve connections until a client sends `SHUTDOWN`.
    /// Returns once queued and running jobs have drained; the listener is
    /// closed by then, so new connections are refused.
    pub fn run(self) -> io::Result<()> {
        let Server { service, listener } = self;
        // Where a connection thread reaches this listener from: the bound
        // address, or loopback when bound to the wildcard address.
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        let driver = {
            let service = service.clone();
            let shutdown = Arc::clone(&shutdown);
            thread::spawn(move || loop {
                service.wait_for_work(Duration::from_millis(25));
                service.run_until_idle();
                if shutdown.load(Ordering::SeqCst) && service.is_idle() {
                    return;
                }
            })
        };
        loop {
            let (stream, _peer) = listener.accept()?;
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let service = service.clone();
            let shutdown = Arc::clone(&shutdown);
            // Detached: a thread parked in `read` on an idle client must
            // not keep `run` from returning.
            thread::spawn(move || {
                // A broken connection only ends that connection.
                if let Ok(true) = handle_connection(stream, &service) {
                    shutdown.store(true, Ordering::SeqCst);
                    // Failing to connect leaves the acceptor parked until
                    // the next client connects; there is nobody to tell.
                    let _ = TcpStream::connect(wake);
                }
            });
        }
        drop(listener);
        driver.join().expect("driver thread panicked");
        Ok(())
    }
}

/// Serve one client over its socket; `Ok(true)` if it sent `SHUTDOWN`.
fn handle_connection(stream: TcpStream, service: &JobService) -> io::Result<bool> {
    stream.set_nodelay(true)?;
    serve(BufReader::new(stream.try_clone()?), stream, service)
}

/// What a connection does once the reply to a request has left.
enum Next {
    /// Read the next request.
    Continue,
    /// Close: what follows on the stream cannot be told from a request.
    Close,
    /// Close, and shut the server down.
    Shutdown,
}

/// Serve one client until it disconnects, sends `SHUTDOWN` (the only case
/// that returns `Ok(true)`) or sends something that cannot be framed.
/// Each request's whole reply group leaves in one `write_all` on `out`,
/// which must not buffer.
fn serve<R: BufRead, W: Write>(
    mut reader: R,
    mut out: W,
    service: &JobService,
) -> io::Result<bool> {
    let mut line = Vec::new();
    let mut reply = Vec::new();
    loop {
        line.clear();
        if reader.by_ref().take(MAX_LINE_BYTES as u64).read_until(b'\n', &mut line)? == 0 {
            return Ok(false); // client closed
        }
        reply.clear();
        let next = respond(&line, &mut reader, service, &mut reply)?;
        // The only write to the client.
        let sent = out.write_all(&reply);
        match next {
            Next::Continue => sent?,
            Next::Close => return sent.map(|()| false),
            // Even if the client left without reading the acknowledgement.
            Next::Shutdown => return Ok(true),
        }
    }
}

/// Append the reply group for the request that starts with `line` to
/// `reply` (nothing for a blank line); a `SUBMIT` body is read from
/// `reader`. Writing to a `Vec` cannot fail: the errors are `reader`'s.
fn respond(
    line: &[u8],
    reader: &mut impl Read,
    service: &JobService,
    reply: &mut Vec<u8>,
) -> io::Result<Next> {
    if line.len() == MAX_LINE_BYTES && !line.ends_with(b"\n") {
        writeln!(reply, "ERR request line longer than {MAX_LINE_BYTES} bytes")?;
        return Ok(Next::Close);
    }
    let Ok(text) = std::str::from_utf8(line) else {
        writeln!(reply, "ERR request line is not valid UTF-8")?;
        return Ok(Next::Continue);
    };
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Ok(Next::Continue);
    }
    let cmd = match parse_command(trimmed) {
        Ok(cmd) => cmd,
        Err(e) => {
            writeln!(reply, "ERR {e}")?;
            // A `SUBMIT` header that does not parse (over-long body
            // included) is followed by a body of unknown length.
            let submit = trimmed.split_whitespace().next() == Some("SUBMIT");
            return Ok(if submit { Next::Close } else { Next::Continue });
        }
    };
    match cmd {
        Command::Submit { name, pool, len, slots, deadline_ms } => {
            // `parse_command` bounds `len` by `MAX_PROGRAM_BYTES`.
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body)?;
            let Ok(source) = String::from_utf8(body) else {
                writeln!(reply, "ERR program body is not valid UTF-8")?;
                return Ok(Next::Continue);
            };
            let mut spec = JobSpec::program(name, source).in_pool(pool).with_slots(slots);
            if let Some(ms) = deadline_ms {
                spec = spec.with_deadline(SimTime::from_millis(ms));
            }
            match service.submit(spec) {
                Ok(id) => writeln!(reply, "OK {id} queued")?,
                Err(rej) => {
                    for d in &rej.diagnostics {
                        writeln!(reply, "DIAG {}", one_line(d))?;
                    }
                    writeln!(reply, "ERR rejected: {}", one_line(&rej.reason))?;
                }
            }
        }
        Command::Wait(id) => match service.wait(id) {
            None => writeln!(reply, "ERR unknown job {id}")?,
            Some(JobOutcome::Completed { result, sim_nanos }) => {
                writeln!(reply, "OK {id} completed {sim_nanos} {}", one_line(&result))?;
            }
            Some(JobOutcome::Failed { error, sim_nanos }) => {
                writeln!(reply, "OK {id} failed {sim_nanos} {}", one_line(&error))?;
            }
            Some(JobOutcome::Cancelled { reason }) => {
                writeln!(reply, "OK {id} cancelled {}", one_line(&reason))?;
            }
        },
        Command::Status(id) => match service.status(id) {
            None => writeln!(reply, "ERR unknown job {id}")?,
            Some(JobStatus::Queued) => writeln!(reply, "OK {id} queued")?,
            Some(JobStatus::Running) => writeln!(reply, "OK {id} running")?,
            Some(JobStatus::Done(JobOutcome::Completed { .. })) => {
                writeln!(reply, "OK {id} completed")?;
            }
            Some(JobStatus::Done(JobOutcome::Failed { .. })) => {
                writeln!(reply, "OK {id} failed")?;
            }
            Some(JobStatus::Done(JobOutcome::Cancelled { .. })) => {
                writeln!(reply, "OK {id} cancelled")?;
            }
        },
        Command::Cancel(id) => {
            if service.cancel(id) {
                writeln!(reply, "OK {id} cancel requested")?;
            } else {
                writeln!(reply, "ERR cannot cancel job {id}")?;
            }
        }
        Command::Stats => {
            let s = service.stats();
            writeln!(
                reply,
                "OK jobs_completed={} jobs_cancelled={} jobs_rejected={} \
                 queue_wait_nanos={} vt_nanos={}",
                s.jobs_completed,
                s.jobs_cancelled,
                s.jobs_rejected,
                s.queue_wait_nanos,
                service.virtual_time().as_nanos()
            )?;
        }
        Command::Ping => writeln!(reply, "OK pong")?,
        Command::Shutdown => {
            writeln!(reply, "OK shutting down")?;
            return Ok(Next::Shutdown);
        }
    }
    Ok(Next::Continue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MAX_PROGRAM_BYTES;

    /// A sink that keeps every `write` call apart.
    #[derive(Default)]
    struct Writes(Vec<String>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(String::from_utf8(buf.to_vec()).expect("replies are UTF-8"));
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Serve `input` as one connection: the writes it caused, and whether
    /// it asked for shutdown.
    fn exchange(service: &JobService, input: &[u8]) -> (Vec<String>, bool) {
        let mut writes = Writes::default();
        let shutdown = serve(input, &mut writes, service).expect("in-memory I/O cannot fail");
        (writes.0, shutdown)
    }

    /// The single write a single request must cause.
    fn reply(service: &JobService, request: &[u8]) -> String {
        let (mut writes, shutdown) = exchange(service, request);
        assert_eq!(writes.len(), 1, "one reply group, one write: {writes:?}");
        assert!(!shutdown);
        writes.remove(0)
    }

    fn submit(name: &str, program: &str) -> Vec<u8> {
        format!("SUBMIT {name} default {}\n{program}", program.len()).into_bytes()
    }

    const GOOD: &str = "map(groupByKey(source(visits)), g => (g.0, count(g.1)))";

    #[test]
    fn every_reply_group_is_one_write_with_the_promised_bytes() {
        let service = JobService::local_test(11);
        assert_eq!(reply(&service, &submit("a", GOOD)), "OK 0 queued\n");
        let rejected = reply(&service, &submit("bad", "map(source(xs), v => y)"));
        let lines: Vec<&str> = rejected.lines().collect();
        let (last, diags) = lines.split_last().expect("a reply");
        assert!(!diags.is_empty() && diags.iter().all(|d| d.starts_with("DIAG ")), "{rejected}");
        assert!(last.starts_with("ERR rejected: ") && rejected.ends_with('\n'), "{rejected}");
        assert_eq!(reply(&service, b"STATUS 0\n"), "OK 0 queued\n");
        assert_eq!(reply(&service, &submit("b", GOOD)), "OK 2 queued\n");
        assert_eq!(reply(&service, b"CANCEL 2\n"), "OK 2 cancel requested\n");
        assert_eq!(reply(&service, b"CANCEL 2\n"), "ERR cannot cancel job 2\n");

        service.run_until_idle();
        let done = reply(&service, b"WAIT 0\n");
        assert!(done.starts_with("OK 0 completed ") && done.ends_with(" records\n"), "{done}");
        assert_eq!(done.lines().count(), 1);
        assert_eq!(reply(&service, b"STATUS 0\n"), "OK 0 completed\n");
        assert_eq!(reply(&service, b"WAIT 2\n"), "OK 2 cancelled cancelled by client\n");
        assert_eq!(reply(&service, b"WAIT 9\n"), "ERR unknown job 9\n");
        let stats = reply(&service, b"STATS\n");
        let counters = "OK jobs_completed=1 jobs_cancelled=1 jobs_rejected=1 queue_wait_nanos=0 ";
        assert!(stats.starts_with(counters) && stats.ends_with('\n'), "{stats}");
        assert_eq!(reply(&service, b"PING\n"), "OK pong\n");
        assert_eq!(reply(&service, b"FROBNICATE\n"), "ERR unknown command `FROBNICATE`\n");
        assert_eq!(reply(&service, b"PING \xff\n"), "ERR request line is not valid UTF-8\n");
        assert_eq!(exchange(&service, b"\n  \n"), (vec![], false));
    }

    #[test]
    fn pipelined_requests_get_their_replies_in_order() {
        let service = JobService::local_test(11);
        let mut input = submit("a", GOOD);
        input.extend_from_slice(b"PING\nSTATUS 0\n");
        let (writes, shutdown) = exchange(&service, &input);
        assert_eq!(writes, ["OK 0 queued\n", "OK pong\n", "OK 0 queued\n"]);
        assert!(!shutdown);
    }

    #[test]
    fn a_non_utf8_body_is_refused_and_the_connection_goes_on() {
        let service = JobService::local_test(11);
        let (writes, _) = exchange(&service, b"SUBMIT x default 2\n\xff\xfePING\n");
        assert_eq!(writes, ["ERR program body is not valid UTF-8\n", "OK pong\n"]);
    }

    #[test]
    fn shutdown_is_acknowledged_and_ends_the_connection() {
        let service = JobService::local_test(11);
        let (writes, shutdown) = exchange(&service, b"SHUTDOWN\nPING\n");
        assert_eq!(writes, ["OK shutting down\n"]);
        assert!(shutdown);
    }

    #[test]
    fn an_over_long_request_line_gets_one_err_and_the_connection_closes() {
        let service = JobService::local_test(11);
        // A line that fills the limit exactly, newline included, is served.
        let mut fits = format!("PING{}", " ".repeat(MAX_LINE_BYTES - 5)).into_bytes();
        fits.extend_from_slice(b"\nPING\n");
        assert_eq!(exchange(&service, &fits).0, ["OK pong\n", "OK pong\n"]);
        let mut long = vec![b'A'; MAX_LINE_BYTES + 1];
        long.extend_from_slice(b"\nPING\n");
        let (writes, shutdown) = exchange(&service, &long);
        assert_eq!(writes, [format!("ERR request line longer than {MAX_LINE_BYTES} bytes\n")]);
        assert!(!shutdown);
    }

    #[test]
    fn an_unparseable_submit_header_gets_one_err_and_the_connection_closes() {
        let service = JobService::local_test(11);
        for len in [(MAX_PROGRAM_BYTES + 1).to_string(), u64::MAX.to_string(), "many".into()] {
            let (writes, _) =
                exchange(&service, format!("SUBMIT x default {len}\nPING\n").as_bytes());
            assert_eq!(writes.len(), 1, "{writes:?}");
            assert!(writes[0].starts_with("ERR SUBMIT: ") && writes[0].ends_with('\n'));
        }
        // Nothing was allocated, queued or counted for them.
        assert_eq!(reply(&service, b"STATUS 0\n"), "ERR unknown job 0\n");
    }
}
