//! A server that stays up (ROADMAP item 1), over a real socket: a job that
//! panics takes nothing else down, and finished jobs are forgotten oldest
//! first, so the memory of a long-lived server is bounded.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::{self, JoinHandle};

use matryoshka_engine::Engine;
use matryoshka_service::service::RETAINED_JOBS;
use matryoshka_service::{JobService, JobSpec, Server};

/// Serve `service` on an ephemeral loopback port.
fn serve(service: JobService) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(service, "127.0.0.1:0").unwrap();
    (server.local_addr().unwrap(), thread::spawn(move || server.run()))
}

/// One request line, one reply line.
fn ask(stream: &mut BufReader<TcpStream>, request: &str) -> String {
    stream.get_mut().write_all(format!("{request}\n").as_bytes()).unwrap();
    let mut reply = String::new();
    stream.read_line(&mut reply).unwrap();
    reply.trim_end().to_string()
}

fn tiny(name: &str) -> JobSpec {
    JobSpec::native(name, |e: &Engine| Ok(format!("{} records", e.generate(8, 1, |i| i).count()?)))
}

#[test]
fn a_panicking_job_does_not_take_the_server_down() {
    let service = JobService::local_test(11);
    let (addr, server) = serve(service.clone());
    let mut c = BufReader::new(TcpStream::connect(addr).unwrap());

    let before = service.submit(tiny("before")).unwrap();
    let panics = service
        .submit(JobSpec::native("panics", |e: &Engine| {
            e.generate(8, 1, |i| i).count()?;
            panic!("boom")
        }))
        .unwrap();
    let after = service.submit(tiny("after")).unwrap();

    assert!(ask(&mut c, &format!("WAIT {before}")).starts_with("OK 0 completed "));
    let failed = ask(&mut c, &format!("WAIT {panics}"));
    assert!(
        failed.starts_with("OK 1 failed ") && failed.ends_with(" job panicked: boom"),
        "{failed}"
    );
    // The single driver thread survived: a later job runs, the server answers.
    assert!(ask(&mut c, &format!("WAIT {after}")).starts_with("OK 2 completed "));
    assert_eq!(ask(&mut c, &format!("STATUS {panics}")), "OK 1 failed");
    assert_eq!(ask(&mut c, "PING"), "OK pong");
    assert!(ask(&mut c, "STATS").starts_with("OK jobs_completed=3 jobs_cancelled=0 "));

    // `run` ends in `driver.join().expect(..)`: it returns only if the
    // driver did not panic.
    assert_eq!(ask(&mut c, "SHUTDOWN"), "OK shutting down");
    server.join().expect("the driver thread did not panic").unwrap();
}

#[test]
fn a_long_lived_server_forgets_its_oldest_jobs() {
    let service = JobService::local_test(11);
    let (addr, server) = serve(service.clone());
    let mut c = BufReader::new(TcpStream::connect(addr).unwrap());

    let total = RETAINED_JOBS as u64 + 40;
    let mut submitted = 0;
    while submitted < total {
        // Batches that fit the admission queue (64).
        let batch: Vec<u64> = (submitted..total.min(submitted + 37))
            .map(|_| service.submit(tiny("tiny")).unwrap())
            .collect();
        for id in &batch {
            let done = ask(&mut c, &format!("WAIT {id}"));
            assert!(
                done.starts_with(&format!("OK {id} completed ")) && done.ends_with(" 8 records")
            );
        }
        submitted += batch.len() as u64;
    }

    // The oldest 40 answer as ids that were never assigned ...
    for id in [0, 1, 39] {
        assert_eq!(ask(&mut c, &format!("STATUS {id}")), format!("ERR unknown job {id}"));
        assert_eq!(ask(&mut c, &format!("WAIT {id}")), format!("ERR unknown job {id}"));
        assert_eq!(ask(&mut c, &format!("CANCEL {id}")), format!("ERR cannot cancel job {id}"));
    }
    // ... the newest RETAINED_JOBS as before, and the counters forget nothing.
    for id in [40, 41, total - 1] {
        assert_eq!(ask(&mut c, &format!("STATUS {id}")), format!("OK {id} completed"));
        assert!(ask(&mut c, &format!("WAIT {id}")).starts_with(&format!("OK {id} completed ")));
    }
    assert!(ask(&mut c, "STATS").starts_with(&format!("OK jobs_completed={total} ")));

    assert_eq!(ask(&mut c, "SHUTDOWN"), "OK shutting down");
    server.join().unwrap().unwrap();
}
