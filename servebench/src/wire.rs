//! The client side of the `tlc-serve` line protocol: one request per
//! line, replies framed as `OK <len>\n<payload>\n` or `ERR <message>\n`.
//! Also parses the two kinds of text reply the benchmark reads numbers
//! from: the `.metrics` report and the reply to a write.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a one-connection client busy-polls for a reply before it
/// sleeps. With one connection the server runs one request at a time and
/// a core is otherwise idle, so the poll costs the server nothing, while
/// waking a sleeping client adds a scheduling delay to every round trip
/// that on a shared host swings by a factor of two from run to run. The
/// budget covers the round trip of the median `fig15_scan` query (5 to
/// 12 ms on a 2-core VM) with room to spare; longer queries sleep after
/// it, leaving the core to the server.
pub const SPIN: Duration = Duration::from_millis(20);

/// One reply frame. The payload borrows the connection's buffer.
#[derive(Debug)]
pub enum Reply<'a> {
    /// `OK` with its payload bytes.
    Ok(&'a [u8]),
    /// `ERR` with its message.
    Err(String),
}

/// How a reply compared with the expected payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `OK` with exactly the expected bytes.
    Match,
    /// `OK` with other bytes.
    Mismatch,
    /// An `ERR` frame.
    Error,
}

/// Compares a reply with the expected payload, byte for byte.
pub fn verdict(reply: &Reply<'_>, expected: &[u8]) -> Verdict {
    match reply {
        Reply::Ok(payload) if *payload == expected => Verdict::Match,
        Reply::Ok(_) => Verdict::Mismatch,
        Reply::Err(_) => Verdict::Error,
    }
}

/// Reads one frame into `header`/`payload` (reused across calls).
pub fn read_frame<'a>(
    r: &mut impl BufRead,
    header: &mut String,
    payload: &'a mut Vec<u8>,
) -> io::Result<Reply<'a>> {
    header.clear();
    if r.read_line(header)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
    }
    let line = header.trim_end_matches(['\n', '\r']);
    if let Some(len) = line.strip_prefix("OK ") {
        let len: usize = len.parse().map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad header {line:?}"))
        })?;
        payload.resize(len + 1, 0); // payload + trailing newline
        r.read_exact(payload)?;
        if payload.pop() != Some(b'\n') {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "frame not newline-terminated"));
        }
        Ok(Reply::Ok(payload))
    } else if let Some(msg) = line.strip_prefix("ERR ") {
        Ok(Reply::Err(msg.to_string()))
    } else {
        Err(io::Error::new(io::ErrorKind::InvalidData, format!("bad header {line:?}")))
    }
}

/// One end of a client socket. With a spin budget the socket is
/// non-blocking and a read polls it for up to that long before it sleeps
/// in the kernel, so a reply that comes within the budget is seen without
/// the client thread being woken from sleep. Between polls the thread
/// yields, so a server thread woken on the same core runs at once.
struct Sock {
    stream: TcpStream,
    spin: Duration,
}

impl Sock {
    /// Runs `op` on the socket in blocking mode.
    fn blocking<T>(&self, op: impl FnOnce(&TcpStream) -> io::Result<T>) -> io::Result<T> {
        self.stream.set_nonblocking(false)?;
        let result = op(&self.stream);
        self.stream.set_nonblocking(true)?;
        result
    }
}

impl Read for Sock {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.spin.is_zero() {
            return (&self.stream).read(buf);
        }
        let begun = Instant::now();
        loop {
            match (&self.stream).read(buf) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if begun.elapsed() >= self.spin {
                        return self.blocking(|mut s| s.read(buf));
                    }
                    std::thread::yield_now();
                }
                result => return result,
            }
        }
    }
}

impl Write for Sock {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match (&self.stream).write(buf) {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => self.blocking(|mut s| s.write(buf)),
            result => result,
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One client connection with Nagle off and reusable receive buffers.
pub struct Conn {
    reader: BufReader<Sock>,
    writer: Sock,
    header: String,
    payload: Vec<u8>,
}

impl Conn {
    /// Connects to `addr` and disables Nagle's algorithm; reads sleep in
    /// the kernel until the reply comes.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        Self::connect_spinning(addr, Duration::ZERO)
    }

    /// Like [`Conn::connect`], but each read busy-polls the socket for up
    /// to `spin` before it sleeps (see [`SPIN`]).
    pub fn connect_spinning(addr: SocketAddr, spin: Duration) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A hung server must not hang the benchmark.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nonblocking(!spin.is_zero())?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, Sock { stream: stream.try_clone()?, spin }),
            writer: Sock { stream, spin },
            header: String::new(),
            payload: Vec::new(),
        })
    }

    /// Sends one request line (which must end in `\n`) in a single write
    /// and reads its reply.
    pub fn request(&mut self, line: &[u8]) -> io::Result<Reply<'_>> {
        debug_assert!(line.ends_with(b"\n"));
        self.writer.write_all(line)?;
        read_frame(&mut self.reader, &mut self.header, &mut self.payload)
    }

    /// Sends a request that must answer `OK` and returns its payload as text.
    pub fn request_text(&mut self, line: &str) -> io::Result<String> {
        match self.request(format!("{line}\n").as_bytes())? {
            Reply::Ok(p) => String::from_utf8(p.to_vec())
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "payload not UTF-8")),
            Reply::Err(msg) => Err(io::Error::other(format!("{line}: ERR {msg}"))),
        }
    }
}

/// The `.metrics` counters the benchmark reports, all cumulative since the
/// server started.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerCounters {
    /// Queries answered `OK`.
    pub ok: u64,
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache lookups.
    pub plan_lookups: u64,
    /// Match-cache hits.
    pub match_hits: u64,
    /// Match-cache lookups.
    pub match_lookups: u64,
    /// Match-cache evictions.
    pub match_evictions: u64,
    /// Bytes resident in the match cache.
    pub match_bytes: u64,
    /// Median queue wait in µs (histogram bucket bound).
    pub queue_wait_p50_us: f64,
    /// 95th-percentile queue wait in µs (histogram bucket bound).
    pub queue_wait_p95_us: f64,
    /// Batches dispatched by the worker pool.
    pub batches: u64,
    /// Jobs those batches carried.
    pub batch_jobs: u64,
    /// Executor: nodes inspected.
    pub nodes_inspected: u64,
    /// Executor: candidate fetches.
    pub candidate_fetches: u64,
    /// Executor: structural-join comparisons.
    pub struct_cmps: u64,
    /// Executor: trees built.
    pub trees_built: u64,
    /// Executor: join steps.
    pub join_steps: u64,
}

/// The report line starting with `prefix`; an error names the missing line,
/// so a wording change in the server fails the run instead of zeroing a
/// metric.
fn report_line<'a>(report: &'a str, prefix: &str) -> Result<&'a str, String> {
    report
        .lines()
        .find(|l| l.starts_with(prefix))
        .ok_or_else(|| format!(".metrics has no line starting with {prefix:?}"))
}

/// The whitespace-delimited word right before the first `label` in `line`.
fn word_before<'a>(line: &'a str, label: &str) -> Result<&'a str, String> {
    let at = line.find(label).ok_or_else(|| format!("no {label:?} in {line:?}"))?;
    line[..at].split_whitespace().last().ok_or_else(|| format!("nothing before {label:?}"))
}

fn count_before(line: &str, label: &str) -> Result<u64, String> {
    let word = word_before(line, label)?;
    word.parse().map_err(|_| format!("{word:?} before {label:?} is not a count in {line:?}"))
}

/// Parses a `Duration` printed with `{:?}` (`0ns`, `870µs`, `1.024ms`,
/// `2.5s`) into microseconds.
pub fn parse_debug_duration_us(text: &str) -> Result<f64, String> {
    let units = [("ns", 1e-3), ("µs", 1.0), ("ms", 1e3), ("s", 1e6)];
    for (suffix, scale) in units {
        if let Some(number) = text.strip_suffix(suffix) {
            if let Ok(v) = number.parse::<f64>() {
                return Ok(v * scale);
            }
        }
    }
    Err(format!("{text:?} is not a duration"))
}

fn duration_field(line: &str, key: &str) -> Result<f64, String> {
    let at = line.find(key).ok_or_else(|| format!("no {key:?} in {line:?}"))?;
    let value = line[at + key.len()..].split_whitespace().next().unwrap_or("");
    parse_debug_duration_us(value)
}

/// Parses a `.metrics` report. Every expected line and field must be
/// present.
pub fn parse_metrics(report: &str) -> Result<ServerCounters, String> {
    let requests = report_line(report, "requests: ")?;
    let plan = report_line(report, "plan cache: ")?;
    let queue = report_line(report, "queue wait: ")?;
    let exec = report_line(report, "executor: ")?;
    let matches = report_line(report, "match cache: ")?;
    let batch = report_line(report, "batch dispatch: ")?;
    let bytes = word_before(matches, " bytes")?;
    let match_bytes = bytes
        .split_once('/')
        .and_then(|(used, _budget)| used.parse().ok())
        .ok_or_else(|| format!("match cache bytes {bytes:?} not <used>/<budget>"))?;
    Ok(ServerCounters {
        ok: count_before(requests, " ok,")?,
        plan_hits: count_before(plan, " hits /")?,
        plan_lookups: count_before(plan, " lookups")?,
        match_hits: count_before(matches, " hits /")?,
        match_lookups: count_before(matches, " lookups")?,
        match_evictions: count_before(matches, " evictions")?,
        match_bytes,
        queue_wait_p50_us: duration_field(queue, "p50=")?,
        queue_wait_p95_us: duration_field(queue, "p95=")?,
        batches: count_before(batch, " batch(es)")?,
        batch_jobs: count_before(batch, " job(s)")?,
        nodes_inspected: count_before(exec, " nodes inspected")?,
        candidate_fetches: count_before(exec, " candidate fetches")?,
        struct_cmps: count_before(exec, " structural-join comparisons")?,
        trees_built: count_before(exec, " trees built")?,
        join_steps: count_before(exec, " join steps")?,
    })
}

/// The deterministic head of a write's reply: everything up to the cache
/// carry counts, which depend on the server's cache state.
pub fn write_reply_head(
    db: &str,
    epoch: u64,
    added: usize,
    removed: usize,
    renumbered: usize,
) -> String {
    let renumbered =
        if renumbered > 0 { format!(", {renumbered} node(s) renumbered") } else { String::new() };
    format!("updated {db}: epoch {epoch}, +{added}/-{removed} node(s){renumbered}, ")
}

/// Checks a write's reply against its expected head and returns the plan
/// and match-entry carry counts it reports. `None` when any byte differs
/// from the reply the server must send.
pub fn parse_write_reply(reply: &[u8], head: &str) -> Option<(u64, u64)> {
    let tail = std::str::from_utf8(reply.strip_prefix(head.as_bytes())?).ok()?;
    let plans: u64 = word_before(tail, " plan(s) and ").ok()?.parse().ok()?;
    let matches: u64 = word_before(tail, " match entr(ies) carried").ok()?.parse().ok()?;
    let rebuilt = format!("{plans} plan(s) and {matches} match entr(ies) carried");
    (rebuilt == tail).then_some((plans, matches))
}

#[cfg(test)]
mod tests {
    use super::*;
    use service::{protocol, Service, ServiceConfig};
    use std::net::TcpListener;
    use std::sync::Arc;

    fn frames(payloads: &[&str]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut frame = protocol::FrameBuf::new();
        for p in payloads {
            frame.write_ok(&mut buf, p).unwrap();
        }
        buf
    }

    #[test]
    fn intact_reply_matches() {
        let wire = frames(&["<name>Ann</name>"]);
        let (mut header, mut payload) = (String::new(), Vec::new());
        let reply = read_frame(&mut &wire[..], &mut header, &mut payload).unwrap();
        assert_eq!(verdict(&reply, b"<name>Ann</name>"), Verdict::Match);
    }

    #[test]
    fn corrupted_reply_is_a_mismatch() {
        let mut wire = frames(&["<name>Ann</name>", "<name>Bo</name>"]);
        // Flip one payload byte of the first frame ("OK 16\n" is 6 bytes).
        wire[6 + 7] ^= 0x20;
        let (mut header, mut payload) = (String::new(), Vec::new());
        let mut r = &wire[..];
        let reply = read_frame(&mut r, &mut header, &mut payload).unwrap();
        assert_eq!(verdict(&reply, b"<name>Ann</name>"), Verdict::Mismatch);
        // The framing survives, so the next reply still checks.
        let reply = read_frame(&mut r, &mut header, &mut payload).unwrap();
        assert_eq!(verdict(&reply, b"<name>Bo</name>"), Verdict::Match);
        // A truncated frame is an I/O error, an ERR frame an error verdict.
        assert!(read_frame(&mut &b"OK 9\nabc\n"[..], &mut header, &mut payload).is_err());
        let reply = read_frame(&mut &b"ERR boom\n"[..], &mut header, &mut payload).unwrap();
        assert_eq!(verdict(&reply, b""), Verdict::Error);
    }

    #[test]
    fn debug_durations_parse() {
        assert_eq!(parse_debug_duration_us("0ns").unwrap(), 0.0);
        assert_eq!(parse_debug_duration_us("870µs").unwrap(), 870.0);
        assert_eq!(parse_debug_duration_us("1.024ms").unwrap(), 1024.0);
        assert_eq!(parse_debug_duration_us("2.5s").unwrap(), 2_500_000.0);
        assert!(parse_debug_duration_us("fast").is_err());
    }

    #[test]
    fn metrics_report_of_a_real_service_parses() {
        let db = Arc::new(xmark::auction_database(0.0005));
        let svc = Service::new(db, ServiceConfig::default());
        let q = r#"FOR $p IN document("auction.xml")//person RETURN $p/name"#;
        svc.execute(q).unwrap();
        svc.execute(q).unwrap();
        let c = parse_metrics(&svc.metrics_report()).unwrap();
        assert_eq!((c.ok, c.plan_hits, c.plan_lookups), (2, 1, 2));
        assert!(c.match_lookups > 0 && c.match_hits > 0 && c.match_bytes > 0, "{c:?}");
        assert!(c.batch_jobs >= 2 && c.batches >= 1, "{c:?}");
        assert!(c.nodes_inspected > 0 && c.trees_built > 0, "{c:?}");
    }

    #[test]
    fn a_missing_report_line_fails_loudly() {
        let db = Arc::new(xmark::auction_database(0.0005));
        let svc = Service::new(db, ServiceConfig::default());
        let report = svc.metrics_report();
        let without: String = report
            .lines()
            .filter(|l| !l.starts_with("batch dispatch"))
            .map(|l| l.to_string() + "\n")
            .collect();
        let err = parse_metrics(&without).unwrap_err();
        assert!(err.contains("batch dispatch"), "{err}");
    }

    #[test]
    fn write_replies_check_byte_for_byte() {
        let head = write_reply_head("main", 3, 2, 0, 0);
        let good = format!("{head}4 plan(s) and 7 match entr(ies) carried");
        assert_eq!(parse_write_reply(good.as_bytes(), &head), Some((4, 7)));
        let bad_epoch = good.replace("epoch 3", "epoch 4");
        assert_eq!(parse_write_reply(bad_epoch.as_bytes(), &head), None);
        let trailing = format!("{good} ");
        assert_eq!(parse_write_reply(trailing.as_bytes(), &head), None);
        let renumbered = write_reply_head("main", 1, 1, 0, 12);
        assert!(renumbered.ends_with("+1/-0 node(s), 12 node(s) renumbered, "), "{renumbered}");
    }

    /// A one-request server that answers after `delay`.
    fn answer_after(delay: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut line = String::new();
            BufReader::new(stream.try_clone().unwrap()).read_line(&mut line).unwrap();
            std::thread::sleep(delay);
            (&stream).write_all(format!("OK {}\n{line}", line.len() - 1).as_bytes()).unwrap();
        });
        addr
    }

    #[test]
    fn spinning_reads_see_fast_and_slow_replies() {
        for (delay, spin) in [(Duration::ZERO, SPIN), (Duration::from_millis(30), SPIN / 10)] {
            let mut conn = Conn::connect_spinning(answer_after(delay), spin).unwrap();
            assert_eq!(conn.request_text("ping").unwrap(), "ping");
        }
    }
}
