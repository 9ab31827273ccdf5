//! The timed phase: closed-loop clients on loopback TCP, every reply
//! checked byte for byte. The phase is cut into [`SEGMENTS`] equal
//! segments, each with its replies, round trips and server CPU time, so
//! throughput, median and tail latency and CPU per request can be reported as
//! medians over segments: a burst of interference from outside the
//! benchmark moves one segment, not the result. `fig15_scan` takes its
//! median latency over passes instead (see [`Timed::p50_ms`]).

use crate::server::Server;
use crate::stats::{median, quantile};
use crate::wire::{self, parse_write_reply, verdict, Conn, Reply, Verdict};
use crate::workload::{self, HotClient, Op, Query, RwStream};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Segments per timed phase.
pub const SEGMENTS: u32 = 10;

/// `rw_mix` operations prepared (untimed) per chunk.
const RW_CHUNK: usize = 256;

/// Requests attempted and how they failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Requests sent (and checks made).
    pub attempted: u64,
    /// `OK` replies with other bytes than expected.
    pub mismatches: u64,
    /// `ERR` replies.
    pub errors: u64,
    /// Connection failures.
    pub io_errors: u64,
}

impl Tally {
    /// Every failure counted.
    pub fn failed(&self) -> u64 {
        self.mismatches + self.errors + self.io_errors
    }

    fn record(&mut self, v: Verdict) {
        match v {
            Verdict::Match => {}
            Verdict::Mismatch => self.mismatches += 1,
            Verdict::Error => self.errors += 1,
        }
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.mismatches += o.mismatches;
        self.errors += o.errors;
        self.io_errors += o.io_errors;
    }
}

/// One segment of the timed phase.
#[derive(Debug, Default)]
struct Segment {
    replies: u64,
    secs: f64,
    cpu_ms: f64,
    read_ms: Vec<f64>,
}

/// What the timed phase observed.
#[derive(Default)]
pub struct Timed {
    segments: Vec<Segment>,
    /// Median read round trip of each whole pass, ms (`fig15_scan` only).
    pass_p50_ms: Vec<f64>,
    /// Round trips of every read, ms.
    pub read_ms: Vec<f64>,
    /// Round trips of every write, ms.
    pub write_ms: Vec<f64>,
    /// Replies received.
    pub replies: u64,
    /// Measured time, s.
    pub secs: f64,
    /// Requests and failures.
    pub tally: Tally,
    /// Plan carry counts summed over the write replies.
    pub plans_carried: u64,
    /// Match-entry carry counts summed over the write replies.
    pub matches_carried: u64,
    /// Nodes renumbered, summed over the writes.
    pub renumbered: u64,
}

impl Timed {
    /// Median over segments of replies per second.
    pub fn qps(&self) -> f64 {
        median(&mut self.segments.iter().map(|s| s.replies as f64 / s.secs).collect::<Vec<_>>())
    }

    /// Median read round trip, ms: the median over segments of each
    /// segment's median, or for `fig15_scan` the median over passes of
    /// each pass's median. A `fig15_scan` segment holds only a few passes
    /// of 23 queries of very different cost, so its median is the round
    /// trip of one mid-cost query in two or three samples; the median of
    /// a pass is the middle request of one full sweep, and a run holds
    /// dozens of passes.
    pub fn p50_ms(&self) -> f64 {
        if !self.pass_p50_ms.is_empty() {
            return median(&mut self.pass_p50_ms.clone());
        }
        median(
            &mut self
                .segments
                .iter()
                .map(|s| quantile(&mut s.read_ms.clone(), 0.5))
                .collect::<Vec<_>>(),
        )
    }

    /// Median over segments of the segment's 99th-percentile read round
    /// trip, ms: a stall of the host lifts the tail of one segment, not
    /// the result.
    pub fn p99_ms(&self) -> f64 {
        median(
            &mut self
                .segments
                .iter()
                .map(|s| quantile(&mut s.read_ms.clone(), 0.99))
                .collect::<Vec<_>>(),
        )
    }

    /// Median over segments of server CPU ms per reply.
    pub fn cpu_ms_per_req(&self) -> f64 {
        median(
            &mut self
                .segments
                .iter()
                .filter(|s| s.replies > 0)
                .map(|s| s.cpu_ms / s.replies as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// Segments measured.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }
}

/// Cuts a single-connection phase into segments. With one connection in
/// a closed loop the server is idle between requests, so its CPU time is
/// read exactly at each segment boundary.
struct Cutter<'a> {
    server: &'a Server,
    len: Duration,
    opened: Duration,
    cpu_at_open: f64,
    current: Segment,
}

impl<'a> Cutter<'a> {
    fn new(server: &'a Server, dur: Duration) -> io::Result<Cutter<'a>> {
        Ok(Cutter {
            server,
            len: dur / SEGMENTS,
            opened: Duration::ZERO,
            cpu_at_open: server.cpu_ms()?,
            current: Segment::default(),
        })
    }

    fn reply(&mut self, read_ms: Option<f64>) {
        self.current.replies += 1;
        self.current.read_ms.extend(read_ms);
    }

    /// Closes the segment once `measured` (time into the phase) has
    /// passed its end, or unconditionally with `last`.
    fn cut(&mut self, measured: Duration, timed: &mut Timed, last: bool) -> io::Result<()> {
        let elapsed = measured.saturating_sub(self.opened);
        if elapsed < self.len && !(last && self.current.replies > 0) {
            return Ok(());
        }
        // A short tail segment carries too little to stand as a median
        // sample; its replies still count in the totals.
        if elapsed >= self.len / 2 || timed.segments.is_empty() {
            let cpu = self.server.cpu_ms()?;
            let mut seg = std::mem::take(&mut self.current);
            seg.secs = elapsed.as_secs_f64();
            seg.cpu_ms = cpu - self.cpu_at_open;
            self.cpu_at_open = cpu;
            timed.segments.push(seg);
        }
        self.current = Segment::default();
        self.opened = measured;
        Ok(())
    }
}

/// Sends one read and checks its reply; returns the round trip in ms, or
/// `None` after an I/O error (the connection is then unusable).
pub fn checked_read(conn: &mut Conn, q: &Query, expected: &[u8], tally: &mut Tally) -> Option<f64> {
    tally.attempted += 1;
    let begun = Instant::now();
    match conn.request(&q.wire) {
        Ok(reply) => {
            let ms = begun.elapsed().as_secs_f64() * 1e3;
            tally.record(verdict(&reply, expected));
            Some(ms)
        }
        Err(e) => {
            eprintln!("servebench: {}: {e}", q.name);
            tally.io_errors += 1;
            None
        }
    }
}

/// One pass over every query in table order, checked: fills the plan and
/// match caches before timing.
pub fn warm(conn: &mut Conn, qs: &[Query], refs: &[String], tally: &mut Tally) {
    for (q, r) in qs.iter().zip(refs) {
        if checked_read(conn, q, r.as_bytes(), tally).is_none() {
            return;
        }
    }
}

/// `serve_hot`: one closed-loop client thread per connection. Replies
/// fall into segments by completion time; this thread reads the server's
/// CPU time at each segment boundary.
pub fn serve_hot(
    server: &Server,
    qs: &[Query],
    refs: &[String],
    seed: u64,
    dur: Duration,
    conns: usize,
) -> io::Result<Timed> {
    let clients: Vec<Conn> =
        (0..conns).map(|_| Conn::connect(server.addr)).collect::<io::Result<_>>()?;
    let len = dur / SEGMENTS;
    let start = Instant::now();
    let end = start + dur;
    let mut cpu_marks = vec![server.cpu_ms()?];
    let results: Vec<(Vec<(f64, f64)>, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                s.spawn(move || {
                    let mut hot = HotClient::new(seed, c, qs.len());
                    let mut replies = Vec::with_capacity(1 << 17);
                    let mut tally = Tally::default();
                    while Instant::now() < end {
                        let i = hot.next_query();
                        match checked_read(&mut conn, &qs[i], refs[i].as_bytes(), &mut tally) {
                            Some(ms) => replies.push((start.elapsed().as_secs_f64(), ms)),
                            None => break,
                        }
                    }
                    (replies, tally)
                })
            })
            .collect();
        for k in 1..=SEGMENTS {
            std::thread::sleep((start + len * k).saturating_duration_since(Instant::now()));
            cpu_marks.push(server.cpu_ms().unwrap_or(f64::NAN));
        }
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut timed = Timed {
        segments: (0..SEGMENTS as usize)
            .map(|k| Segment {
                secs: len.as_secs_f64(),
                cpu_ms: cpu_marks[k + 1] - cpu_marks[k],
                ..Segment::default()
            })
            .collect(),
        ..Timed::default()
    };
    let mut last = 0.0f64;
    for (replies, tally) in results {
        timed.tally.absorb(&tally);
        for (at, ms) in replies {
            // Replies completing after the end belong to the last segment.
            let k = ((at / len.as_secs_f64()) as usize).min(SEGMENTS as usize - 1);
            timed.segments[k].replies += 1;
            timed.segments[k].read_ms.push(ms);
            timed.read_ms.push(ms);
            last = last.max(at);
        }
    }
    timed.replies = timed.read_ms.len() as u64;
    timed.secs = last;
    Ok(timed)
}

/// `fig15_scan`: whole seeded passes over one connection until the time
/// is up; segments end on pass boundaries, so each holds whole passes.
pub fn fig15(
    server: &Server,
    conn: &mut Conn,
    qs: &[Query],
    refs: &[String],
    seed: u64,
    dur: Duration,
) -> io::Result<Timed> {
    let mut timed = Timed::default();
    let mut cutter = Cutter::new(server, dur)?;
    let mut rng = workload::fig15_rng(seed);
    let start = Instant::now();
    'passes: while start.elapsed() < dur {
        let mut pass_ms = Vec::with_capacity(qs.len());
        for i in workload::fig15_pass(&mut rng, qs.len()) {
            match checked_read(conn, &qs[i], refs[i].as_bytes(), &mut timed.tally) {
                Some(ms) => {
                    timed.read_ms.push(ms);
                    pass_ms.push(ms);
                    cutter.reply(Some(ms));
                }
                None => break 'passes,
            }
        }
        timed.pass_p50_ms.push(median(&mut pass_ms));
        cutter.cut(start.elapsed(), &mut timed, false)?;
    }
    cutter.cut(start.elapsed(), &mut timed, true)?;
    timed.secs = start.elapsed().as_secs_f64();
    timed.replies = timed.read_ms.len() as u64;
    Ok(timed)
}

/// One prepared `rw_mix` request and the reply it must get.
enum Step {
    Read(usize, Arc<str>),
    Write { wire: Vec<u8>, head: String, renumbered: usize },
}

fn next_step(stream: &mut RwStream, qs: &[Query]) -> Result<Step, String> {
    match stream.draw() {
        Op::Read(i) => {
            let answer =
                stream.answer(i, qs[i].text).map_err(|e| format!("{}: {e}", qs[i].name))?;
            Ok(Step::Read(i, answer))
        }
        Op::Write(op) => {
            let s = stream.apply(&op).map_err(|e| format!("write {op:?}: {e}"))?;
            let head = wire::write_reply_head(
                service::catalog::DEFAULT_DB,
                stream.epoch(),
                s.nodes_added,
                s.nodes_removed,
                s.renumbered,
            );
            Ok(Step::Write {
                wire: workload::write_line(&op).into_bytes(),
                head,
                renumbered: s.renumbered,
            })
        }
    }
}

/// `rw_mix`: the op stream over one connection, in chunks. Each chunk's
/// requests and expected replies are prepared with the clock stopped, so
/// reference evaluation never overlaps the server's work or the timing;
/// the server idles meanwhile.
pub fn rw(
    server: &Server,
    conn: &mut Conn,
    stream: &mut RwStream,
    qs: &[Query],
    dur: Duration,
) -> Result<Timed, String> {
    let io = |e: io::Error| e.to_string();
    let mut timed = Timed::default();
    let mut cutter = Cutter::new(server, dur).map_err(io)?;
    let mut measured = Duration::ZERO;
    'chunks: while measured < dur {
        let steps: Vec<Step> =
            (0..RW_CHUNK).map(|_| next_step(stream, qs)).collect::<Result<_, _>>()?;
        let started = Instant::now();
        for step in &steps {
            match step {
                Step::Read(i, answer) => {
                    match checked_read(conn, &qs[*i], answer.as_bytes(), &mut timed.tally) {
                        Some(ms) => {
                            timed.read_ms.push(ms);
                            cutter.reply(Some(ms));
                        }
                        None => break 'chunks,
                    }
                }
                Step::Write { wire, head, renumbered } => {
                    timed.tally.attempted += 1;
                    let begun = Instant::now();
                    let reply = match conn.request(wire) {
                        Ok(reply) => reply,
                        Err(e) => {
                            eprintln!("servebench: write: {e}");
                            timed.tally.io_errors += 1;
                            break 'chunks;
                        }
                    };
                    timed.write_ms.push(begun.elapsed().as_secs_f64() * 1e3);
                    cutter.reply(None);
                    match reply {
                        Reply::Ok(payload) => match parse_write_reply(payload, head) {
                            Some((plans, matches)) => {
                                timed.plans_carried += plans;
                                timed.matches_carried += matches;
                                timed.renumbered += *renumbered as u64;
                            }
                            None => timed.tally.mismatches += 1,
                        },
                        Reply::Err(msg) => {
                            eprintln!("servebench: write: ERR {msg}");
                            timed.tally.errors += 1;
                        }
                    }
                }
            }
            cutter.cut(measured + started.elapsed(), &mut timed, false).map_err(io)?;
        }
        measured += started.elapsed();
    }
    cutter.cut(measured, &mut timed, true).map_err(io)?;
    timed.secs = measured.as_secs_f64();
    timed.replies = (timed.read_ms.len() + timed.write_ms.len()) as u64;
    Ok(timed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p50_prefers_pass_medians_over_segment_medians() {
        let segments = || vec![Segment { read_ms: vec![1.0, 2.0, 3.0], ..Segment::default() }];
        let by_segment = Timed { segments: segments(), ..Timed::default() };
        assert_eq!(by_segment.p50_ms(), 2.0);
        let by_pass =
            Timed { segments: segments(), pass_p50_ms: vec![5.0, 9.0, 6.0], ..Timed::default() };
        assert_eq!(by_pass.p50_ms(), 6.0);
    }
}
