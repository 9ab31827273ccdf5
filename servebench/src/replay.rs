//! The traced run: a workload's seeded request sequence replayed
//! in-process against a `Service` at its default configuration, with a
//! span around each call into a layer's public function. Nothing inside
//! the program is instrumented; the spans sit at the calls.
//!
//! Span tree of one read (the root's children are the request path; the
//! `shadow` tree re-runs the same plan through the kernels directly, to
//! split `service.execute` into its parts):
//!
//! ```text
//! request            normalize | plan_lookup (hit) or compile (miss) | service.execute | protocol.frame
//!   compile          compile.parse | .translate | .verify | .lint | .prune | .lower
//! shadow             exec.run | output.serialize
//! ```
//!
//! A write is `request{update.apply, protocol.frame}` plus
//! `shadow{update.clone, update.mutate}` on the harness's replica.
//! On a plan-cache miss, `Service::prepare_on` compiles once more outside
//! every span: the `compile.*` spans already time that work.

use crate::stats::median;
use crate::trace::{self_times, Tracer};
use crate::wire::write_reply_head;
use crate::workload::{mutate, Query, RwStream};
use service::cache::{normalize_query, MatchStore, ScopedMatchCache};
use service::catalog::DEFAULT_DB;
use service::{protocol::FrameBuf, Service, ServiceConfig, UpdateOp};
use std::collections::HashMap;
use std::sync::Arc;
use tlc::vm::Program;
use xmldb::Database;

/// In-process model of the server plus the spans recorded around it.
pub struct Replay<'a> {
    svc: Service,
    store: Arc<MatchStore>,
    programs: HashMap<String, Option<Arc<Program>>>,
    /// The recorded spans.
    pub tracer: Tracer,
    frame: FrameBuf,
    framed: Vec<u8>,
    qs: &'a [Query],
    next_request: u64,
    /// Requests up to this id belong to the warm-up pass: only the
    /// `compile.*` metrics (which happen on misses) count them.
    warm_until: u64,
    /// Root spans of the reads.
    reads: Vec<usize>,
    output_bytes: Vec<f64>,
    /// Per read whose direct run saw the same match-cache hits and misses
    /// as the service's: execute − run − serialize, µs.
    overhead_us: Vec<f64>,
    /// Requests replayed.
    pub attempted: u64,
    /// Requests whose output differed from the reference, or failed.
    pub failed: u64,
}

/// Parses, translates, verifies, lints, prunes and lowers `text` the way
/// the service does on a miss, one span per step. `None` when the lowerer
/// declines the plan (the service then runs the tree walker).
fn compile(
    t: &mut Tracer,
    r: u64,
    parent: usize,
    text: &str,
    db: &Database,
) -> Result<Option<Arc<Program>>, String> {
    let p = Some(parent);
    let ast = t.span("compile.parse", r, p, || xquery::parse(text)).map_err(|e| e.to_string())?;
    let plan = t
        .span("compile.translate", r, p, || tlc::translate(&ast, db))
        .map_err(|e| e.to_string())?;
    t.span("compile.verify", r, p, || tlc::analyze::verify(&plan)).map_err(|e| e.to_string())?;
    t.span("compile.lint", r, p, || tlc::lint(&plan, db));
    let plan = t.span("compile.prune", r, p, || {
        let (pruned, report) = tlc::prune_with_report(&plan);
        if report.changed() && tlc::analyze::verify(&pruned).is_ok() {
            pruned
        } else {
            plan
        }
    });
    Ok(t.span("compile.lower", r, p, || tlc::vm::lower(&plan)).ok().map(Arc::new))
}

impl<'a> Replay<'a> {
    /// A fresh service over `db` at the default configuration, and a
    /// match store with the server's default budget for the shadow runs.
    pub fn new(db: &Database, qs: &'a [Query]) -> Replay<'a> {
        let config = ServiceConfig::default();
        let store = Arc::new(MatchStore::new(config.match_cache_bytes));
        Replay {
            svc: Service::new(Arc::new(db.clone()), config),
            store,
            programs: HashMap::new(),
            tracer: Tracer::default(),
            frame: FrameBuf::new(),
            framed: Vec::new(),
            qs,
            next_request: 0,
            warm_until: 0,
            reads: Vec::new(),
            output_bytes: Vec::new(),
            overhead_us: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Marks the requests so far as the warm-up pass.
    pub fn end_warmup(&mut self) {
        self.warm_until = self.next_request;
    }

    fn begin(&mut self) -> u64 {
        self.attempted += 1;
        self.next_request += 1;
        self.next_request
    }

    /// Replays one read of query `i` on `db` (the service's current
    /// snapshot, at `epoch`) and checks both outputs against `expected`.
    pub fn read(&mut self, i: usize, db: &Database, epoch: u64, expected: &str) {
        let r = self.begin();
        let timed = r > self.warm_until;
        let line = self.qs[i].line.as_str();
        let hits = self.svc.cache_stats().hits;
        let Ok(handle) = self.svc.prepare_on(DEFAULT_DB, line) else {
            self.failed += 1;
            return;
        };
        let hit = self.svc.cache_stats().hits > hits;

        let t = &mut self.tracer;
        let root = t.open("request", r, None);
        let normalized = t.span("normalize", r, Some(root), || normalize_query(line));
        if hit {
            t.span("plan_lookup", r, Some(root), || self.svc.prepare_on(DEFAULT_DB, line).is_ok());
        } else {
            let c = t.open("compile", r, Some(root));
            let compiled = compile(t, r, c, line, db);
            t.close(c);
            match compiled {
                Ok(program) => {
                    self.programs.insert(normalized.clone(), program);
                }
                Err(_) => self.failed += 1,
            }
        }
        let execute = t.open("service.execute", r, Some(root));
        let resp = self.svc.execute_prepared(&handle);
        t.close(execute);
        let served_stats = resp.as_ref().map(|resp| resp.stats).unwrap_or_default();
        let served = resp.map(|resp| resp.output).unwrap_or_default();
        t.span("protocol.frame", r, Some(root), || {
            self.framed.clear();
            self.frame.write_ok(&mut self.framed, &served).is_ok()
        });
        t.close(root);
        if timed {
            self.reads.push(root);
        }

        let program = self
            .programs
            .entry(normalized)
            .or_insert_with(|| tlc::vm::lower(handle.plan()).ok().map(Arc::new))
            .clone();
        let mut ctx = tlc::ExecCtx::new();
        ctx.cache =
            Some(Arc::new(ScopedMatchCache::new(Arc::clone(&self.store), DEFAULT_DB, epoch)));
        let shadow = t.open("shadow", r, None);
        let run = t.open("exec.run", r, Some(shadow));
        let trees = match &program {
            Some(prog) => tlc::vm::run(db, prog, &mut ctx),
            None => tlc::execute_with_ctx(db, handle.plan(), &mut ctx),
        };
        t.close(run);
        let (direct, serialize) = match trees {
            Ok(trees) => {
                let id = t.open("output.serialize", r, Some(shadow));
                let out = tlc::serialize_results(db, &trees);
                t.close(id);
                (Some(out), Some(id))
            }
            Err(_) => (None, None),
        };
        t.close(shadow);
        let direct_ok = direct.as_deref() == Some(expected);
        let same_work = (served_stats.match_cache_hits, served_stats.match_cache_misses)
            == (ctx.stats.match_cache_hits, ctx.stats.match_cache_misses);
        if let (Some(out), Some(ser), true) = (&direct, serialize, timed) {
            self.output_bytes.push(out.len() as f64);
            if direct_ok && same_work {
                let us = |id: usize| t.spans[id].duration() as f64 / 1e3;
                self.overhead_us.push(us(execute) - us(run) - us(ser));
            }
        }
        if served != expected || !direct_ok {
            self.failed += 1;
        }
    }

    /// Replays one write: committed through the service, and applied to a
    /// clone of the stream's replica, which then becomes the replica.
    pub fn write(&mut self, stream: &mut RwStream, op: &UpdateOp) {
        let r = self.begin();
        let t = &mut self.tracer;
        let root = t.open("request", r, None);
        let outcome =
            t.span("update.apply", r, Some(root), || self.svc.apply_update(DEFAULT_DB, op));
        let reply = match &outcome {
            Ok(o) => format!(
                "{}{} plan(s) and {} match entr(ies) carried",
                write_reply_head(
                    DEFAULT_DB,
                    o.entry.epoch(),
                    o.summary.nodes_added,
                    o.summary.nodes_removed,
                    o.summary.renumbered
                ),
                o.plans_seeded,
                o.matches_seeded
            ),
            Err(e) => e.to_string(),
        };
        t.span("protocol.frame", r, Some(root), || {
            self.framed.clear();
            self.frame.write_ok(&mut self.framed, &reply).is_ok()
        });
        t.close(root);

        let shadow = t.open("shadow", r, None);
        let mut next = t.span("update.clone", r, Some(shadow), || stream.replica().clone());
        let summary = t.span("update.mutate", r, Some(shadow), || mutate(&mut next, op));
        t.close(shadow);
        stream.commit(next);
        let agrees = match (&outcome, &summary) {
            (Ok(o), Ok(s)) => {
                o.entry.epoch() == stream.epoch()
                    && (o.summary.nodes_added, o.summary.nodes_removed, o.summary.renumbered)
                        == (s.nodes_added, s.nodes_removed, s.renumbered)
            }
            _ => false,
        };
        if !agrees {
            self.failed += 1;
        }
    }

    /// The per-layer metrics of the recorded spans. `e2e_p50_ms` is the
    /// untraced run's median read round trip, which `socket_us` and
    /// `trace.coverage` are relative to.
    pub fn layer_metrics(&self, e2e_p50_ms: f64) -> Vec<crate::Metric> {
        let spans = &self.tracer.spans;
        let mut us: HashMap<&str, Vec<f64>> = HashMap::new();
        let mut allocs: HashMap<&str, Vec<f64>> = HashMap::new();
        // Per write: apply, clone and mutate, µs.
        let mut writes: HashMap<u64, [f64; 3]> = HashMap::new();
        for s in spans {
            if s.request <= self.warm_until && !s.name.starts_with("compile") {
                continue;
            }
            let d = s.duration() as f64 / 1e3;
            us.entry(s.name).or_default().push(d);
            allocs.entry(s.name).or_default().push(s.allocs as f64);
            let part = match s.name {
                "update.apply" => 0,
                "update.clone" => 1,
                "update.mutate" => 2,
                _ => continue,
            };
            writes.entry(s.request).or_default()[part] = d;
        }
        let mut seed: Vec<f64> = writes.values().map(|[a, c, m]| a - c - m).collect();
        let mut med_us = |name: &str| us.get_mut(name).map_or(0.0, |v| median(v));
        let mut med_allocs = |name: &str| allocs.get_mut(name).map_or(0.0, |v| median(v));

        // Time a read's request path explains: the self times of every
        // span under its root, the root's own glue excluded.
        let own = self_times(spans);
        let mut root_of = vec![0usize; spans.len()];
        let mut explained = vec![0u64; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            root_of[i] = s.parent.map_or(i, |p| root_of[p]);
            if s.parent.is_some() {
                explained[root_of[i]] += own[i];
            }
        }
        let mut covered: Vec<f64> = self.reads.iter().map(|&r| explained[r] as f64 / 1e3).collect();
        let e2e_us = e2e_p50_ms * 1e3;
        let coverage = if e2e_us > 0.0 { median(&mut covered) / e2e_us } else { 0.0 };

        let execute = med_us("service.execute");
        vec![
            ("normalize_us", med_us("normalize"), "us"),
            ("plan_lookup_us", med_us("plan_lookup"), "us"),
            ("compile.parse_us", med_us("compile.parse"), "us"),
            ("compile.translate_us", med_us("compile.translate"), "us"),
            ("compile.verify_us", med_us("compile.verify"), "us"),
            ("compile.lint_us", med_us("compile.lint"), "us"),
            ("compile.prune_us", med_us("compile.prune"), "us"),
            ("compile.lower_us", med_us("compile.lower"), "us"),
            ("compile.allocs", med_allocs("compile"), "count"),
            ("exec.run_us", med_us("exec.run"), "us"),
            ("exec.allocs", med_allocs("exec.run"), "count"),
            ("output.serialize_us", med_us("output.serialize"), "us"),
            ("output.bytes", median(&mut self.output_bytes.clone()), "bytes"),
            ("output.allocs", med_allocs("output.serialize"), "count"),
            ("protocol.frame_us", med_us("protocol.frame"), "us"),
            ("service.execute_us", execute, "us"),
            ("service.overhead_us", median(&mut self.overhead_us.clone()), "us"),
            ("socket_us", e2e_us - execute, "us"),
            ("update.apply_us", med_us("update.apply"), "us"),
            ("update.clone_us", med_us("update.clone"), "us"),
            ("update.mutate_us", med_us("update.mutate"), "us"),
            ("update.seed_us", median(&mut seed), "us"),
            ("update.allocs", med_allocs("update.apply"), "count"),
            ("trace.coverage", coverage, "ratio"),
        ]
    }
}
