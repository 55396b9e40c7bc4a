//! The line protocol spoken between `matryoshka-submit` and
//! `matryoshka-serve`.
//!
//! Requests are single ASCII lines; `SUBMIT` is followed by a
//! length-prefixed program body (raw bytes, so programs may contain
//! anything including newlines). Replies are one `OK ...` or `ERR ...`
//! line, optionally preceded by `DIAG <text>` continuation lines carrying
//! analyzer diagnostics. See `docs/SERVICE.md` for the full grammar.
//!
//! ```text
//! SUBMIT <name> <pool> <len> [slots=N] [deadline_ms=N]\n<len bytes>
//! WAIT <id> | STATUS <id> | CANCEL <id> | STATS | PING | SHUTDOWN
//! ```
//!
//! A request line is at most [`MAX_LINE_BYTES`] long, a `SUBMIT` body at
//! most [`MAX_PROGRAM_BYTES`]; over either, the server replies `ERR ...`
//! and closes the connection.

use std::fmt;

use crate::job::JobId;

/// A parsed request line. For [`Command::Submit`], `len` bytes of program
/// text follow the newline on the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Submit a program of `len` bytes into `pool`.
    Submit {
        /// Display name (no whitespace).
        name: String,
        /// Target pool (no whitespace).
        pool: String,
        /// Byte length of the program body that follows.
        len: usize,
        /// Requested core slots (`0` = service default).
        slots: usize,
        /// Virtual deadline in milliseconds from submission.
        deadline_ms: Option<u64>,
    },
    /// Block until the job finishes; reply with its outcome.
    Wait(JobId),
    /// Report the job's lifecycle state.
    Status(JobId),
    /// Request cancellation.
    Cancel(JobId),
    /// Report service counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Stop accepting work and shut the server down.
    Shutdown,
}

/// Upper bound on `SUBMIT` body size (1 MiB) — keeps a misbehaving client
/// from ballooning server memory.
pub const MAX_PROGRAM_BYTES: usize = 1 << 20;

/// Upper bound on a request line, newline included (4 KiB): the server
/// buffers no more than this while it looks for the end of a line.
pub const MAX_LINE_BYTES: usize = 4096;

fn parse_id(tok: Option<&str>, what: &str) -> Result<JobId, String> {
    tok.ok_or_else(|| format!("{what} requires a job id"))?
        .parse::<JobId>()
        .map_err(|_| format!("{what}: job id must be a non-negative integer"))
}

/// Parse one request line (without its trailing newline).
pub fn parse_command(line: &str) -> Result<Command, String> {
    let mut toks = line.split_whitespace();
    let verb = toks.next().ok_or_else(|| "empty request".to_string())?;
    match verb {
        "SUBMIT" => {
            let name = toks.next().ok_or("SUBMIT requires <name> <pool> <len>")?.to_string();
            let pool = toks.next().ok_or("SUBMIT requires <name> <pool> <len>")?.to_string();
            let len: usize = toks
                .next()
                .ok_or("SUBMIT requires <name> <pool> <len>")?
                .parse()
                .map_err(|_| "SUBMIT: <len> must be a non-negative integer".to_string())?;
            if len > MAX_PROGRAM_BYTES {
                return Err(format!("SUBMIT: program too large ({len} > {MAX_PROGRAM_BYTES})"));
            }
            let mut slots = 0usize;
            let mut deadline_ms = None;
            for opt in toks {
                match opt.split_once('=') {
                    Some(("slots", v)) => {
                        slots = v
                            .parse()
                            .map_err(|_| "SUBMIT: slots must be an integer".to_string())?;
                    }
                    Some(("deadline_ms", v)) => {
                        deadline_ms =
                            Some(v.parse().map_err(|_| {
                                "SUBMIT: deadline_ms must be an integer".to_string()
                            })?);
                    }
                    _ => return Err(format!("SUBMIT: unknown option `{opt}`")),
                }
            }
            Ok(Command::Submit { name, pool, len, slots, deadline_ms })
        }
        "WAIT" => Ok(Command::Wait(parse_id(toks.next(), "WAIT")?)),
        "STATUS" => Ok(Command::Status(parse_id(toks.next(), "STATUS")?)),
        "CANCEL" => Ok(Command::Cancel(parse_id(toks.next(), "CANCEL")?)),
        "STATS" => Ok(Command::Stats),
        "PING" => Ok(Command::Ping),
        "SHUTDOWN" => Ok(Command::Shutdown),
        other => Err(format!("unknown command `{other}`")),
    }
}

impl fmt::Display for Command {
    /// Render the request line (what a client sends; no trailing newline).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Command::Submit { name, pool, len, slots, deadline_ms } => {
                write!(f, "SUBMIT {name} {pool} {len}")?;
                if *slots != 0 {
                    write!(f, " slots={slots}")?;
                }
                if let Some(d) = deadline_ms {
                    write!(f, " deadline_ms={d}")?;
                }
                Ok(())
            }
            Command::Wait(id) => write!(f, "WAIT {id}"),
            Command::Status(id) => write!(f, "STATUS {id}"),
            Command::Cancel(id) => write!(f, "CANCEL {id}"),
            Command::Stats => f.write_str("STATS"),
            Command::Ping => f.write_str("PING"),
            Command::Shutdown => f.write_str("SHUTDOWN"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips_with_options() {
        let c = Command::Submit {
            name: "wordcount".to_string(),
            pool: "batch".to_string(),
            len: 123,
            slots: 4,
            deadline_ms: Some(250),
        };
        let line = c.to_string();
        assert_eq!(line, "SUBMIT wordcount batch 123 slots=4 deadline_ms=250");
        assert_eq!(parse_command(&line).unwrap(), c);
    }

    #[test]
    fn simple_commands_parse() {
        assert_eq!(parse_command("WAIT 7").unwrap(), Command::Wait(7));
        assert_eq!(parse_command("STATUS 0").unwrap(), Command::Status(0));
        assert_eq!(parse_command("CANCEL 3").unwrap(), Command::Cancel(3));
        assert_eq!(parse_command("STATS").unwrap(), Command::Stats);
        assert_eq!(parse_command("PING").unwrap(), Command::Ping);
        assert_eq!(parse_command("SHUTDOWN").unwrap(), Command::Shutdown);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse_command("").is_err());
        assert!(parse_command("SUBMIT onlyname").is_err());
        assert!(parse_command("SUBMIT a b notanumber").is_err());
        assert!(parse_command("SUBMIT a b 10 frobnicate=1").is_err());
        assert!(parse_command("WAIT notanid").is_err());
        assert!(parse_command("FROBNICATE").is_err());
        let too_big = format!("SUBMIT a b {}", MAX_PROGRAM_BYTES + 1);
        assert!(parse_command(&too_big).is_err());
    }
}
