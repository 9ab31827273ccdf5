//! The `experiments batch` workload: what the epoch-keyed pattern-match
//! cache and batch-aware dispatch buy under realistic skewed traffic.
//!
//! Many closed-loop clients replay a **seeded, skewed query mix** — a small
//! hot set of templates receives most of the traffic, the rest of the
//! evaluation workload fills the tail — against two services that differ
//! *only* in the new machinery:
//!
//! * **batched+cached** — the default configuration: match cache on,
//!   same-`(database, epoch)` batch dispatch on;
//! * **per-request** — match cache disabled (`match_cache_bytes = 0`),
//!   batching disabled (`batch_max = 1`); the plan cache stays on in both,
//!   so the delta isolates match caching + batching, not compilation;
//! * **cached per-request** — match cache on, batching off, register IR
//!   on: every request executes individually against the warm shared
//!   match cache;
//! * **tree-walk** — the cached per-request configuration with the
//!   register-IR backend forced off (`ir = false`). The cached/tree-walk
//!   QPS ratio isolates what [`tlc::vm`] buys per request: with a warm
//!   match cache the kernels barely run, so the delta is exactly the
//!   per-request work the compiler hoisted out — the walker re-derives
//!   every chain's cache key (APT fingerprints — string canonicalization
//!   at every cacheable node) on each execution, while the compiled
//!   program carries its keys from lowering. Batching is off on both
//!   sides because batch coalescing would amortize that per-request work
//!   across whole batches and mask the comparison.
//!
//! The batched side also reports its heap allocations per request,
//! measured with the counting allocator ([`crate::alloc`]).
//!
//! Every answer from *every* service is byte-compared against a
//! single-threaded reference computed up front; any mismatch is a
//! correctness defect, not noise. The report carries QPS / exact latency
//! quantiles for every side, the match-cache hit rate, and the batch
//! counters. Hot-swap staleness is covered by the companion soak
//! ([`crate::concurrent::hot_swap_soak_with`] with a seeded mix), which
//! runs the same skewed traffic while the snapshot is republished under it.

use crate::concurrent::LoadReport;
use baselines::Engine;
use queries::all_queries;
use service::{Service, ServiceConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use xmark::rng::{RngExt, SeedableRng, StdRng};
use xmldb::Database;

/// Percentage of the traffic aimed at the hot set.
const HOT_TRAFFIC_PCT: u32 = 80;

/// Workload indices forming the hot set — x15, x16, x17 and x10a:
/// templates whose cost is dominated by their cacheable Select/Filter
/// spine (deep path chains, the x10a twig) rather than by serialization,
/// so a warm match cache removes most of the request. Fixed, so every run
/// and the CI smoke agree on what "hot" means.
const HOT_SET: [usize; 4] = [14, 15, 16, 22];

/// Draws the next query index of the skewed mix: `HOT_TRAFFIC_PCT`% of
/// draws pick uniformly from `HOT_SET`, the rest uniformly from the whole
/// workload. Falls back to uniform when the workload is smaller than the
/// hot set assumes.
pub fn skewed_pick(rng: &mut StdRng, n: usize) -> usize {
    let max_hot = HOT_SET.iter().copied().max().expect("hot set non-empty");
    if n > max_hot && rng.random_range(0..100u32) < HOT_TRAFFIC_PCT {
        HOT_SET[rng.random_range(0..HOT_SET.len())]
    } else {
        rng.random_range(0..n)
    }
}

/// Per-client RNG: one base seed, decorrelated per client with a splitmix
/// increment so runs are reproducible but clients do not march in step.
pub fn client_rng(seed: u64, client: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One batched-vs-per-request comparison.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// The batched + match-cached side.
    pub batched: LoadReport,
    /// The per-request side (no match cache, no batching; register-IR
    /// backend on, like every other side).
    pub baseline: LoadReport,
    /// The cached per-request side: match cache on, batching off,
    /// register IR on.
    pub cached: LoadReport,
    /// The cached per-request side with the register-IR backend forced
    /// off — identical to `cached` except every execution walks the plan
    /// tree. The `cached`/`tree_walk` QPS ratio isolates what the IR buys
    /// per request (chiefly: cache keys are compiled into the program
    /// instead of re-derived per execution).
    pub tree_walk: LoadReport,
    /// Answers (either side) that did not byte-match the single-threaded
    /// reference. Must be zero.
    pub mismatches: u64,
    /// Match-cache hit rate of the batched side, in `[0, 1]`.
    pub hit_rate: f64,
    /// Batches the batched side dispatched.
    pub batches: u64,
    /// Largest batch the batched side dispatched.
    pub max_batch: u64,
    /// Measured heap allocations per request of the batched side (0.0
    /// when the counting allocator is not registered in this build).
    pub allocs_per_request: f64,
}

impl BatchReport {
    /// Batched-side QPS over per-request QPS.
    pub fn speedup(&self) -> f64 {
        if self.baseline.qps() > 0.0 {
            self.batched.qps() / self.baseline.qps()
        } else {
            f64::INFINITY
        }
    }

    /// Cached per-request QPS with the IR backend on over the same
    /// configuration with it off (tree walk) — the isolated IR win.
    pub fn ir_speedup(&self) -> f64 {
        if self.tree_walk.qps() > 0.0 {
            self.cached.qps() / self.tree_walk.qps()
        } else {
            f64::INFINITY
        }
    }

    /// No mismatched answers and no failed requests on any side.
    pub fn clean(&self) -> bool {
        self.mismatches == 0
            && self.batched.errors == 0
            && self.baseline.errors == 0
            && self.cached.errors == 0
            && self.tree_walk.errors == 0
    }

    /// The `BENCH_batch.json` document for this comparison (hand-rolled;
    /// the workspace carries no serialization dependency).
    pub fn to_json(&self, factor: f64, clients: usize, requests: usize, seed: u64) -> String {
        format!(
            "{{\"experiment\":\"batch\",\"factor\":{factor},\"clients\":{clients},\
             \"requests\":{requests},\"seed\":{seed},\
             \"batched\":{},\"per_request\":{},\"cached_per_request\":{},\
             \"tree_walk\":{},\"speedup\":{:.2},\
             \"ir_speedup\":{:.2},\
             \"match_cache_hit_rate\":{:.4},\"batches\":{},\"max_batch\":{},\
             \"batched_allocs_per_request\":{:.1},\
             \"mismatches\":{}}}\n",
            crate::rw::load_report_json(&self.batched),
            crate::rw::load_report_json(&self.baseline),
            crate::rw::load_report_json(&self.cached),
            crate::rw::load_report_json(&self.tree_walk),
            self.speedup(),
            self.ir_speedup(),
            self.hit_rate,
            self.batches,
            self.max_batch,
            self.allocs_per_request,
            self.mismatches,
        )
    }

    /// The text block `experiments batch` prints.
    pub fn render(&self, factor: f64) -> String {
        format!(
            "Skewed-mix replay ({HOT_TRAFFIC_PCT}% of traffic on {} hot queries), XMark factor {factor}\n\
             batched+cached : {}\n\
             per-request    : {}\n\
             cached (ir on) : {}\n\
             tree-walk (ir off): {}\n\
             throughput gain from match cache + batching: {:.2}x\n\
             per-request gain from register IR (ir on vs off): {:.2}x\n\
             ir non-regression: {}\n\
             match cache hit rate: {:.1}%  batches: {}  max batch: {}\n\
             heap allocs/request (batched): {:.0}\n\
             byte mismatches vs single-threaded reference: {}\n",
            HOT_SET.len(),
            self.batched.summary(),
            self.baseline.summary(),
            self.cached.summary(),
            self.tree_walk.summary(),
            self.speedup(),
            self.ir_speedup(),
            if self.ir_speedup() >= 0.85 { "ok" } else { "REGRESSED" },
            self.hit_rate * 100.0,
            self.batches,
            self.max_batch,
            self.allocs_per_request,
            self.mismatches,
        )
    }
}

/// Replays the skewed mix from `clients` closed-loop threads, `requests`
/// requests each, byte-checking every answer against `refs`.
///
/// Before the clock starts, every template is executed once so the timed
/// window measures warm steady state: plan-cache compiles, register-IR
/// lowering and (where enabled) match-cache cold misses all land in the
/// warmup, not in the comparison.
pub(crate) fn run_mix(
    svc: &Service,
    clients: usize,
    requests: usize,
    seed: u64,
    texts: &[&str],
    refs: &[String],
    mismatches: &AtomicU64,
) -> LoadReport {
    for text in texts {
        let _ = svc.execute(text);
    }
    let errors = AtomicU64::new(0);
    let started = Instant::now();
    let mut latencies: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let errors = &errors;
                s.spawn(move || {
                    let mut rng = client_rng(seed, t);
                    let mut mine = Vec::with_capacity(requests);
                    for _ in 0..requests {
                        let qi = skewed_pick(&mut rng, texts.len());
                        let begun = Instant::now();
                        match svc.execute(texts[qi]) {
                            Ok(resp) => {
                                if resp.output == refs[qi] {
                                    mine.push(begun.elapsed());
                                } else {
                                    mismatches.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed = started.elapsed();
    latencies.sort_unstable();
    LoadReport {
        threads: clients,
        ok: latencies.len() as u64,
        errors: errors.into_inner(),
        elapsed,
        latencies,
    }
}

/// Runs [`run_mix`] bracketed by the counting allocator: returns the load
/// report plus measured heap allocations per request (0.0 when counting
/// is not registered in this build). The warmup pass is inside the
/// bracket — it is identical on every side, so comparisons stay fair.
fn counted_mix(
    svc: &Service,
    clients: usize,
    requests: usize,
    seed: u64,
    texts: &[&str],
    refs: &[String],
    mismatches: &AtomicU64,
) -> (LoadReport, f64) {
    let before = crate::alloc::allocations();
    let report = run_mix(svc, clients, requests, seed, texts, refs, mismatches);
    let after = crate::alloc::allocations();
    let total = (clients * requests).max(1) as f64;
    let per_request = if after > before { (after - before) as f64 / total } else { 0.0 };
    (report, per_request)
}

/// The `experiments batch` experiment: identical skewed traffic through the
/// batched+cached configuration and the per-request configuration, against
/// the same database, every answer byte-checked. Workers are kept below
/// the client count so the admission queue actually holds same-template
/// jobs for a worker to batch.
pub fn batched_vs_per_request(
    factor: f64,
    clients: usize,
    requests: usize,
    seed: u64,
) -> BatchReport {
    let db = Arc::new(crate::setup(factor));
    batched_vs_per_request_on(db, clients, requests, seed)
}

/// [`batched_vs_per_request`] over an already-built database.
pub fn batched_vs_per_request_on(
    db: Arc<Database>,
    clients: usize,
    requests: usize,
    seed: u64,
) -> BatchReport {
    let texts: Vec<&'static str> = all_queries().iter().map(|q| q.text).collect();
    let refs: Vec<String> = texts
        .iter()
        .map(|q| baselines::run(Engine::Tlc, q, &db).expect("single-threaded reference"))
        .collect();
    let workers = (clients / 2).clamp(1, 4);
    let batched_cfg =
        ServiceConfig { workers, queue_depth: clients.max(4) * 4, ..ServiceConfig::default() };
    let baseline_cfg = ServiceConfig { match_cache_bytes: 0, batch_max: 1, ..batched_cfg.clone() };
    let cached_cfg = ServiceConfig { batch_max: 1, ..batched_cfg.clone() };
    let tree_walk_cfg = ServiceConfig { ir: false, ..cached_cfg.clone() };
    let mismatches = AtomicU64::new(0);

    let batched_svc = Service::new(Arc::clone(&db), batched_cfg);
    let (batched, allocs_per_request) =
        counted_mix(&batched_svc, clients, requests, seed, &texts, &refs, &mismatches);
    let cache = batched_svc.match_cache_stats().expect("match cache enabled");
    let lookups = cache.hits + cache.misses;
    let hit_rate = if lookups == 0 { 0.0 } else { cache.hits as f64 / lookups as f64 };
    let pool = batched_svc.batch_stats();

    let baseline_svc = Service::new(Arc::clone(&db), baseline_cfg);
    let baseline = run_mix(&baseline_svc, clients, requests, seed, &texts, &refs, &mismatches);

    let cached_svc = Service::new(Arc::clone(&db), cached_cfg);
    let cached = run_mix(&cached_svc, clients, requests, seed, &texts, &refs, &mismatches);

    let tree_walk_svc = Service::new(db, tree_walk_cfg);
    let tree_walk = run_mix(&tree_walk_svc, clients, requests, seed, &texts, &refs, &mismatches);

    BatchReport {
        batched,
        baseline,
        cached,
        tree_walk,
        mismatches: mismatches.into_inner(),
        hit_rate,
        batches: pool.batches,
        max_batch: pool.max_batch,
        allocs_per_request,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_pick_is_skewed_and_in_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = all_queries().len();
        let mut hot = 0u32;
        for _ in 0..2_000 {
            let qi = skewed_pick(&mut rng, n);
            assert!(qi < n);
            if HOT_SET.contains(&qi) {
                hot += 1;
            }
        }
        // 80% targeted + a sliver of uniform tail landing in the hot set.
        assert!((1_400..1_900).contains(&hot), "hot draws: {hot}");
        // Tiny workloads fall back to uniform without panicking.
        for _ in 0..100 {
            assert!(skewed_pick(&mut rng, 3) < 3);
        }
    }

    #[test]
    fn client_rngs_are_reproducible_and_decorrelated() {
        let a: Vec<u64> = (0..8).map(|_| client_rng(42, 0).next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| client_rng(42, 0).next_u64()).collect();
        assert_eq!(a, b);
        assert_ne!(client_rng(42, 0).next_u64(), client_rng(42, 1).next_u64());
    }

    #[test]
    fn batch_experiment_is_clean_and_hits_the_match_cache() {
        let report = batched_vs_per_request(0.0005, 4, 30, 7);
        assert!(report.clean(), "defects: {}", report.render(0.0005));
        assert_eq!(
            report.batched.ok + report.baseline.ok + report.cached.ok + report.tree_walk.ok,
            4 * 4 * 30
        );
        assert!(report.hit_rate > 0.0, "hot set never hit the match cache");
        assert!(report.batches > 0);
        // The test build registers the counting allocator.
        assert!(report.allocs_per_request > 0.0, "counting allocator not active");
        let rendered = report.render(0.0005);
        assert!(rendered.contains("match cache hit rate"), "{rendered}");
        assert!(rendered.contains("register IR"), "{rendered}");
        assert!(rendered.contains("heap allocs/request"), "{rendered}");
        let json = report.to_json(0.0005, 4, 30, 7);
        assert!(json.contains("\"tree_walk\":"), "{json}");
        assert!(json.contains("\"ir_speedup\":"), "{json}");
        assert!(json.contains("\"batched_allocs_per_request\":"), "{json}");
    }
}
