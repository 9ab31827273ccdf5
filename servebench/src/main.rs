//! `servebench` — drives the real `tlc-serve` over loopback TCP and
//! reports end-to-end and per-layer metrics.
//!
//! ```text
//! servebench --server PATH --workload serve_hot|fig15_scan|rw_mix \
//!            --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//! ```
//!
//! One run: generate the workload's database in-process and compute the
//! single-threaded reference answers; spawn the server several times for
//! the set-up time and keep the last one; warm its caches with one pass;
//! drive it closed-loop for `--seconds` from this one process, checking
//! every reply byte for byte; read `/proc/<pid>` and `.metrics`. With
//! `--trace 1` the same seeded sequence is then replayed in-process with
//! spans (see `replay.rs`) and the per-layer metrics are reported instead
//! of the end-to-end ones. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

#[global_allocator]
static ALLOC: bench::alloc::CountingAlloc = bench::alloc::CountingAlloc;

mod replay;
mod server;
mod stats;
mod timed;
mod trace;
mod wire;
mod workload;

use server::Server;
use stats::{median, quantile};
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use timed::Tally;
use wire::{Conn, ServerCounters};
use workload::{Op, Query, RwStream};
use xmldb::Database;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeHot,
    Fig15Scan,
    RwMix,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve_hot" => Some(Workload::ServeHot),
            "fig15_scan" => Some(Workload::Fig15Scan),
            "rw_mix" => Some(Workload::RwMix),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::Fig15Scan => "fig15_scan",
            Workload::RwMix => "rw_mix",
        }
    }

    /// XMark scale factor of the served database.
    fn factor(self) -> f64 {
        match self {
            Workload::Fig15Scan => 0.05,
            Workload::ServeHot | Workload::RwMix => 0.0005,
        }
    }

    /// Server spawns on each side of the timed phase; `setup_s` is the
    /// median over both sides.
    fn spawns(self) -> usize {
        match self {
            Workload::Fig15Scan => 4,
            Workload::ServeHot | Workload::RwMix => 8,
        }
    }
}

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
    trace_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let (mut server, mut workload, mut seed, mut seconds, mut trace, mut trace_dir) =
        (None, None, None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds =
                    Some(Duration::try_from_secs_f64(s).map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value}")),
                })
            }
            "--trace-dir" => trace_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_dir,
    })
}

/// Longest traced replay: its medians per call settle well within it.
const REPLAY_MAX: Duration = Duration::from_secs(10);

/// One reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The `.metrics`-derived per-layer metrics over the timed phase.
fn server_layer_metrics(before: &ServerCounters, after: &ServerCounters) -> Vec<Metric> {
    let d = |f: fn(&ServerCounters) -> u64| (f(after) - f(before)) as f64;
    let per_req = |f: fn(&ServerCounters) -> u64| ratio(d(f), d(|c| c.ok));
    vec![
        ("cache.plan_hit_rate", ratio(d(|c| c.plan_hits), d(|c| c.plan_lookups)), "ratio"),
        ("cache.match_hit_rate", ratio(d(|c| c.match_hits), d(|c| c.match_lookups)), "ratio"),
        ("cache.match_evictions", d(|c| c.match_evictions), "count"),
        ("cache.match_bytes", after.match_bytes as f64, "bytes"),
        ("pool.queue_wait_p50_us", after.queue_wait_p50_us, "us"),
        ("pool.queue_wait_p95_us", after.queue_wait_p95_us, "us"),
        ("pool.jobs_per_batch", ratio(d(|c| c.batch_jobs), d(|c| c.batches)), "count"),
        ("exec.nodes_inspected", per_req(|c| c.nodes_inspected), "count"),
        ("exec.struct_cmps", per_req(|c| c.struct_cmps), "count"),
        ("exec.candidate_fetches", per_req(|c| c.candidate_fetches), "count"),
        ("exec.join_steps", per_req(|c| c.join_steps), "count"),
        ("exec.trees_built", per_req(|c| c.trees_built), "count"),
    ]
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let conns = if w == Workload::ServeHot { nproc } else { 1 };
    let factor = w.factor();
    println!(
        "servebench: workload {}, seed {}, {:?} timed, trace {}, nproc {nproc}, {conns} connection(s), XMark factor {factor}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // References first: nothing runs next to the server later.
    let db: Database = xmark::auction_database(factor);
    let qs = workload::queries();
    let (refs, differing) = workload::references(&db, &qs)?;
    let mut tally = Tally { attempted: qs.len() as u64, ..Tally::default() };
    if !differing.is_empty() {
        println!("one-line queries answering other bytes than their original text: {differing:?}");
        tally.mismatches += differing.len() as u64;
    }

    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..w.spawns() {
        let s = Server::spawn(&args.server, factor).map_err(|e| e.to_string())?;
        setups.push(s.setup.as_secs_f64());
        kept = Some(s); // the previous server is killed here
    }
    let server = kept.expect("at least one spawn");
    println!(
        "server: {} (default configuration)",
        server::command_line(factor, &server.addr.port().to_string())
    );

    let io = |e: io::Error| e.to_string();
    let mut control = Conn::connect(server.addr).map_err(io)?;
    let mut main_conn = Conn::connect_spinning(server.addr, wire::SPIN).map_err(io)?;
    timed::warm(&mut main_conn, &qs, &refs, &mut tally);
    let before = wire::parse_metrics(&control.request_text(".metrics").map_err(io)?)?;
    let timed = match w {
        Workload::ServeHot => {
            drop(main_conn);
            timed::serve_hot(&server, &qs, &refs, args.seed, args.seconds, conns).map_err(io)?
        }
        Workload::Fig15Scan => {
            timed::fig15(&server, &mut main_conn, &qs, &refs, args.seed, args.seconds)
                .map_err(io)?
        }
        Workload::RwMix => {
            let mut stream = RwStream::new(args.seed, db.clone(), qs.len());
            timed::rw(&server, &mut main_conn, &mut stream, &qs, args.seconds)?
        }
    };
    let rss_mb = server.peak_rss_mb().map_err(io)?;
    let after = wire::parse_metrics(&control.request_text(".metrics").map_err(io)?)?;
    drop(server);
    tally.absorb(&timed.tally);
    // As many set-ups again after the timed phase: the spawns before it
    // take a fraction of a second, and a host busy in that instant would
    // otherwise set the whole run's `setup_s`.
    for _ in 0..w.spawns() {
        let s = Server::spawn(&args.server, factor).map_err(|e| e.to_string())?;
        setups.push(s.setup.as_secs_f64());
    }
    let setup_s = median(&mut setups);

    let p50_ms = timed.p50_ms();
    let e2e = vec![
        ("qps", timed.qps(), "1/s"),
        ("p50_ms", p50_ms, "ms"),
        ("p99_ms", timed.p99_ms(), "ms"),
        ("cpu_ms_per_req", timed.cpu_ms_per_req(), "ms"),
        ("rss_mb", rss_mb, "MiB"),
        ("setup_s", setup_s, "s"),
    ];
    println!(
        "timed phase: {} replies in {:.3} s ({} reads, {} writes) over {} segment(s); qps, p50_ms, p99_ms and cpu_ms_per_req are medians over segments (p50_ms on fig15_scan: over passes); nproc {nproc}",
        timed.replies,
        timed.secs,
        timed.read_ms.len(),
        timed.write_ms.len(),
        timed.segment_count()
    );
    println!(
        "read round trips: {} samples; setup_s: median of {} spawn(s), half before and half after the timed phase",
        timed.read_ms.len(),
        setups.len()
    );

    let metrics = if args.trace {
        let writes = timed.write_ms.len() as f64;
        let mut write_ms = timed.write_ms.clone();
        let mut layers = server_layer_metrics(&before, &after);
        layers.extend([
            ("update.plans_carried", ratio(timed.plans_carried as f64, writes), "count"),
            ("update.matches_carried", ratio(timed.matches_carried as f64, writes), "count"),
            ("update.renumbered", ratio(timed.renumbered as f64, writes), "count"),
            ("write_p50_ms", quantile(&mut write_ms, 0.50), "ms"),
            ("write_p99_ms", quantile(&mut write_ms, 0.99), "ms"),
        ]);
        let (replay_metrics, replayed, replay_failed) =
            traced_replay(&args, conns, &db, &qs, &refs, p50_ms)?;
        tally.attempted += replayed;
        tally.mismatches += replay_failed;
        layers.extend(replay_metrics);
        println!(
            "trace.coverage {:.4} of untraced p50_ms {p50_ms:.4} ({replayed} requests replayed in-process)",
            layers.iter().find(|m| m.0 == "trace.coverage").map_or(0.0, |m| m.1)
        );
        layers
    } else {
        e2e
    };

    let failed = tally.failed();
    println!(
        "requests: {} attempted, {failed} failed (fail_frac {}): {} byte mismatch(es), {} ERR repl(ies), {} I/O error(s)",
        tally.attempted,
        ratio(failed as f64, tally.attempted as f64),
        tally.mismatches,
        tally.errors,
        tally.io_errors
    );
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        tally.attempted,
        json_metrics(&metrics)
    );
    Ok(())
}

/// Replays the workload's seeded sequence in-process with spans, after a
/// warm-up pass, for half of the timed phase's length but at most
/// [`REPLAY_MAX`]; returns the
/// per-layer metrics, requests replayed and requests failed.
fn traced_replay(
    args: &Args,
    conns: usize,
    db: &Database,
    qs: &[Query],
    refs: &[String],
    e2e_p50_ms: f64,
) -> Result<(Vec<Metric>, u64, u64), String> {
    let (w, seed, dur) = (args.workload, args.seed, (args.seconds / 2).min(REPLAY_MAX));
    let mut replay = replay::Replay::new(db, qs);
    for (i, r) in refs.iter().enumerate() {
        replay.read(i, db, 0, r);
    }
    replay.end_warmup();
    let start = Instant::now();
    match w {
        Workload::ServeHot => {
            // The connections' sequences, interleaved round-robin.
            let mut clients: Vec<workload::HotClient> =
                (0..conns).map(|c| workload::HotClient::new(seed, c, qs.len())).collect();
            'rounds: while start.elapsed() < dur {
                for hot in &mut clients {
                    let i = hot.next_query();
                    replay.read(i, db, 0, &refs[i]);
                    if start.elapsed() >= dur {
                        break 'rounds;
                    }
                }
            }
        }
        Workload::Fig15Scan => {
            let mut rng = workload::fig15_rng(seed);
            while start.elapsed() < dur {
                for i in workload::fig15_pass(&mut rng, qs.len()) {
                    replay.read(i, db, 0, &refs[i]);
                }
            }
        }
        Workload::RwMix => {
            let mut stream = RwStream::new(seed, db.clone(), qs.len());
            while start.elapsed() < dur {
                match stream.draw() {
                    Op::Read(i) => {
                        let answer = stream
                            .answer(i, qs[i].text)
                            .map_err(|e| format!("{}: {e}", qs[i].name))?;
                        let epoch = stream.epoch();
                        replay.read(i, stream.replica(), epoch, &answer);
                    }
                    Op::Write(op) => replay.write(&mut stream, &op),
                }
            }
        }
    }
    if let Some(dir) = &args.trace_dir {
        let path = dir.join(format!("servebench-{}-trace.jsonl", w.name()));
        let mut out = io::BufWriter::new(
            std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?,
        );
        replay.tracer.write_jsonl(&mut out).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans: {} written to {}", replay.tracer.spans.len(), path.display());
    }
    Ok((replay.layer_metrics(e2e_p50_ms), replay.attempted, replay.failed))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
