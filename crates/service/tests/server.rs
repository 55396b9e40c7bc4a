//! End-to-end test of the TCP submission server: a real socket, the wire
//! protocol, and graceful shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use matryoshka_core::MatryoshkaConfig;
use matryoshka_engine::ClusterConfig;
use matryoshka_service::{JobService, Server};

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Client { reader, writer }
    }

    /// One request, one write (`docs/SERVICE.md`, "Framing and latency").
    fn send(&mut self, line: &str) {
        self.writer.write_all(format!("{line}\n").as_bytes()).unwrap();
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    fn submit(&mut self, name: &str, pool: &str, program: &str) -> String {
        self.send(&format!("SUBMIT {name} {pool} {}\n{program}", program.len()));
        self.recv()
    }
}

#[test]
fn server_round_trip_over_tcp() {
    let service =
        JobService::new(ClusterConfig::local_test(), MatryoshkaConfig::default(), 11).unwrap();
    let server = Server::bind(service, "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let (returned, run_returned) = mpsc::channel();
    let handle = thread::spawn(move || {
        server.run().unwrap();
        returned.send(()).unwrap();
    });

    let mut c = Client::connect(addr);
    c.send("PING");
    assert_eq!(c.recv(), "OK pong");

    // A good program: admitted, runs, completes.
    let reply = c.submit(
        "visit_counts",
        "default",
        "map(groupByKey(source(visits)), g => (g.0, count(g.1)))",
    );
    assert_eq!(reply, "OK 0 queued", "first submission gets id 0");
    c.send("WAIT 0");
    let done = c.recv();
    assert!(done.starts_with("OK 0 completed "), "{done}");
    c.send("STATUS 0");
    assert_eq!(c.recv(), "OK 0 completed");

    // A bad program: analyzer diagnostics stream back before the ERR line.
    let reply = c.submit("bad", "default", "map(source(xs), v => y)");
    assert!(reply.starts_with("DIAG "), "{reply}");
    let mut last = reply;
    while last.starts_with("DIAG ") {
        last = c.recv();
    }
    assert!(last.starts_with("ERR rejected: "), "{last}");

    // Unknown pool is an admission error too.
    let reply = c.submit("lost", "nope", "count(source(xs))");
    assert!(last.starts_with("ERR "), "{reply}");

    // Protocol-level errors don't kill the connection.
    c.send("FROBNICATE");
    assert!(c.recv().starts_with("ERR unknown command"));
    c.send("WAIT 999");
    assert_eq!(c.recv(), "ERR unknown job 999");

    c.send("STATS");
    let stats = c.recv();
    assert!(stats.contains("jobs_completed=1"), "{stats}");
    assert!(stats.contains("jobs_rejected=2"), "{stats}");

    // A second connection sees the same service.
    let mut c2 = Client::connect(addr);
    c2.send("STATUS 0");
    assert_eq!(c2.recv(), "OK 0 completed");

    // Over a limit the reply is one ERR line, then the server hangs up: it
    // cannot tell where the next request would start.
    let mut c3 = Client::connect(addr);
    c3.send(&format!("SUBMIT big default {}", usize::MAX));
    assert!(c3.recv().starts_with("ERR SUBMIT: program too large"));
    assert_eq!(c3.recv(), "", "connection closed after an over-long body");
    // (Exactly the limit and no newline: the server has read all of it, so
    // its close is a FIN, not the reset that unread input would cause.)
    let mut c4 = Client::connect(addr);
    c4.writer.write_all(&[b'A'; 4096]).unwrap();
    assert_eq!(c4.recv(), "ERR request line longer than 4096 bytes");
    assert_eq!(c4.recv(), "", "connection closed after an over-long line");

    // SHUTDOWN wakes the acceptor out of its blocking `accept`: `run`
    // returns with no further client connecting and with `c2` still open
    // and idle. The timeout only turns a hang into a failure.
    c.send("SHUTDOWN");
    assert_eq!(c.recv(), "OK shutting down");
    run_returned.recv_timeout(Duration::from_secs(60)).expect("run() returned after SHUTDOWN");
    handle.join().expect("server thread");
    // The listener is gone: a fresh connection is refused, not queued.
    assert!(TcpStream::connect(addr).is_err());
    drop(c2);
}
