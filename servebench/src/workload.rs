//! What the benchmark sends: the 23 Figure 15 queries as one-line
//! requests, their single-threaded reference answers, and the seeded
//! request sequences of the three workloads.

use baselines::Engine;
use bench::batch::{client_rng, skewed_pick};
use service::UpdateOp;
use std::collections::HashMap;
use std::sync::Arc;
use xmark::rng::{RngExt, SeedableRng, StdRng};
use xmldb::{Database, UpdateSummary};

/// The document every XMark database carries and `rw_mix` mutates.
pub const DOC: &str = "auction.xml";

/// Percentage of `rw_mix` operations that are writes.
const WRITE_PCT: u32 = 20;

/// Most `<note>` elements `rw_mix` keeps in the document; at the cap an
/// insert turns into a delete. The `experiments rw` shapes insert more
/// often than they delete, so without a cap the document grows all run
/// long (by some 3,000 notes in 45 s on a 2-core VM), every request costs
/// more than the one before, and the result depends on the run's length.
const NOTE_CAP: usize = 128;

/// One Figure 15 query.
pub struct Query {
    /// Figure 15 name (`x1` … `x20`, `Q1`, `Q2`, `x10a`).
    pub name: &'static str,
    /// The text as the suite writes it (multi-line).
    pub text: &'static str,
    /// The text with whitespace runs collapsed to single spaces: the line
    /// protocol carries one request per line.
    pub line: String,
    /// `line` plus the terminating newline, ready for one write.
    pub wire: Vec<u8>,
}

/// Collapses every whitespace run to one space and trims the ends.
pub fn one_line(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// The 23 Figure 15 queries in table order.
pub fn queries() -> Vec<Query> {
    queries::all_queries()
        .iter()
        .map(|q| {
            let line = one_line(q.text);
            let wire = format!("{line}\n").into_bytes();
            Query { name: q.name, text: q.text, line, wire }
        })
        .collect()
}

/// Reference answers computed single-threaded on the tree walker, one per
/// query, plus the names of queries whose one-line form answers other
/// bytes than the original text (each is a failure of the run).
pub fn references(db: &Database, qs: &[Query]) -> Result<(Vec<String>, Vec<&'static str>), String> {
    let mut answers = Vec::with_capacity(qs.len());
    let mut differing = Vec::new();
    for q in qs {
        let original = reference(db, q.text).map_err(|e| format!("{}: {e}", q.name))?;
        match reference(db, &q.line) {
            Ok(one) if one == original => {}
            _ => differing.push(q.name),
        }
        answers.push(original);
    }
    Ok((answers, differing))
}

/// One query's single-threaded reference answer.
pub fn reference(db: &Database, text: &str) -> Result<String, tlc::Error> {
    baselines::run(Engine::Tlc, text, db)
}

/// One `fig15_scan` pass: all queries in a seeded shuffled order.
pub fn fig15_pass(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    order
}

/// The `fig15_scan` order generator: pass after pass from one seed.
pub fn fig15_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// The `serve_hot` read sequence of one client: the skewed mix of
/// `experiments batch`.
pub struct HotClient {
    rng: StdRng,
    n: usize,
}

impl HotClient {
    /// Client `client`'s generator for `n` queries.
    pub fn new(seed: u64, client: usize, n: usize) -> HotClient {
        HotClient { rng: client_rng(seed, client), n }
    }

    /// The next query index.
    pub fn next_query(&mut self) -> usize {
        skewed_pick(&mut self.rng, self.n)
    }
}

/// One `rw_mix` operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Run query `i`.
    Read(usize),
    /// Commit a write.
    Write(UpdateOp),
}

/// The request line of a write.
pub fn write_line(op: &UpdateOp) -> String {
    match op {
        UpdateOp::Insert { doc, parent, xml } => format!(".insert {doc} {parent} {xml}\n"),
        UpdateOp::Delete { doc, pre } => format!(".delete {doc} {pre}\n"),
        UpdateOp::SetText { doc, pre, text } => format!(".settext {doc} {pre} {text}\n"),
    }
}

/// Applies a write to a store with the update engine the server uses.
pub fn mutate(db: &mut Database, op: &UpdateOp) -> xmldb::Result<UpdateSummary> {
    let doc = db.document_by_name(op.doc())?;
    match op {
        UpdateOp::Insert { parent, xml, .. } => xmldb::insert_subtree(db, doc, *parent, xml),
        UpdateOp::Delete { pre, .. } => xmldb::delete_subtree(db, doc, *pre),
        UpdateOp::SetText { pre, text, .. } => xmldb::set_text(db, doc, *pre, text),
    }
}

/// The `rw_mix` operation stream and the harness's replica of the served
/// document. Writes pick their targets from the replica, so a write is a
/// function of the seed and the writes before it; the replica also
/// answers the reference for every read, memoized per (epoch, query).
pub struct RwStream {
    rng: StdRng,
    hot: HotClient,
    replica: Database,
    epoch: u64,
    ops: u64,
    answers: HashMap<usize, Arc<str>>,
}

impl RwStream {
    /// A stream over `base` (the server's starting database) for `n` queries.
    pub fn new(seed: u64, base: Database, n: usize) -> RwStream {
        RwStream {
            // Salted: `client_rng(seed, 0)` already seeds the read mix
            // with `seed` itself.
            rng: StdRng::seed_from_u64(seed ^ 0x0052_574D_4958),
            hot: HotClient::new(seed, 0, n),
            replica: base,
            epoch: 0,
            ops: 0,
            answers: HashMap::new(),
        }
    }

    /// The replica at the current epoch.
    pub fn replica(&self) -> &Database {
        &self.replica
    }

    /// Number of committed writes.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Draws the next operation against the current replica; a write must
    /// be followed by [`RwStream::commit`] before the next draw.
    pub fn draw(&mut self) -> Op {
        let n = self.ops;
        self.ops += 1;
        if self.rng.random_range(0..100u32) < WRITE_PCT {
            Op::Write(next_write(&self.replica, &mut self.rng, n))
        } else {
            Op::Read(self.hot.next_query())
        }
    }

    /// Installs the replica a write produced (one epoch later).
    pub fn commit(&mut self, next: Database) {
        self.replica = next;
        self.epoch += 1;
        self.answers.clear();
    }

    /// Applies a drawn write to a copy of the replica and commits it.
    pub fn apply(&mut self, op: &UpdateOp) -> xmldb::Result<UpdateSummary> {
        let mut next = self.replica.clone();
        let summary = mutate(&mut next, op)?;
        self.commit(next);
        Ok(summary)
    }

    /// The reference answer of query `text` (index `i`) at this epoch.
    pub fn answer(&mut self, i: usize, text: &str) -> Result<Arc<str>, tlc::Error> {
        if let Some(a) = self.answers.get(&i) {
            return Ok(Arc::clone(a));
        }
        let a: Arc<str> = reference(&self.replica, text)?.into();
        self.answers.insert(i, Arc::clone(&a));
        Ok(a)
    }
}

/// A random existing node with `tag`, by pre ordinal.
fn pick(db: &Database, rng: &mut StdRng, tag: &str) -> Option<u32> {
    let nodes = db.nodes_with_tag(tag);
    (!nodes.is_empty()).then(|| nodes[rng.random_range(0..nodes.len())].pre)
}

/// The write shapes of `experiments rw`: inserts hang a `<note>` under a
/// random `person`/`item`; settext and delete target an earlier note.
/// With [`NOTE_CAP`] notes in place, an insert becomes a delete.
fn next_write(db: &Database, rng: &mut StdRng, n: u64) -> UpdateOp {
    let kind = rng.random_range(0..100u32);
    if kind >= 45 || db.nodes_with_tag("note").len() >= NOTE_CAP {
        if let Some(pre) = pick(db, rng, "note") {
            return if (45..80).contains(&kind) {
                UpdateOp::SetText { doc: DOC.into(), pre, text: format!("note v{n}") }
            } else {
                UpdateOp::Delete { doc: DOC.into(), pre }
            };
        }
    }
    let parent = pick(db, rng, "person")
        .or_else(|| pick(db, rng, "item"))
        .unwrap_or_else(|| db.nodes_with_tag("site")[0].pre);
    let xml = if n.is_multiple_of(2) {
        format!("<note>rw payload {n}</note>")
    } else {
        format!("<note seq=\"{n}\">rw payload {n}</note>")
    };
    UpdateOp::Insert { doc: DOC.into(), parent, xml }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(seed: u64, count: usize) -> Vec<Op> {
        let mut s = RwStream::new(seed, xmark::auction_database(0.0005), 23);
        (0..count)
            .map(|_| {
                let op = s.draw();
                if let Op::Write(w) = &op {
                    s.apply(w).expect("generated writes apply");
                }
                op
            })
            .collect()
    }

    #[test]
    fn fig15_order_is_a_function_of_the_seed() {
        let passes = |seed| {
            let mut rng = fig15_rng(seed);
            (0..5).map(|_| fig15_pass(&mut rng, 23)).collect::<Vec<_>>()
        };
        let a = passes(7);
        assert_eq!(a, passes(7));
        assert_ne!(a, passes(8));
        for pass in &a {
            let mut sorted = pass.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..23).collect::<Vec<_>>(), "every pass runs every query once");
        }
        assert_ne!(a[0], a[1], "passes are reshuffled");
    }

    #[test]
    fn rw_stream_is_a_function_of_the_seed() {
        let a = ops(11, 300);
        assert_eq!(a, ops(11, 300));
        assert_ne!(a, ops(12, 300));
        let writes: Vec<&UpdateOp> =
            a.iter().filter_map(|o| if let Op::Write(w) = o { Some(w) } else { None }).collect();
        assert!((30..=90).contains(&writes.len()), "{} writes of 300", writes.len());
        assert!(writes.iter().any(|w| matches!(w, UpdateOp::Insert { .. })));
        assert!(writes.iter().any(|w| matches!(w, UpdateOp::SetText { .. })));
        assert!(writes.iter().any(|w| matches!(w, UpdateOp::Delete { .. })));
    }

    #[test]
    fn rw_notes_stay_at_most_the_cap() {
        let mut s = RwStream::new(7, xmark::auction_database(0.0005), 23);
        for _ in 0..4000 {
            if let Op::Write(w) = s.draw() {
                s.apply(&w).expect("generated writes apply");
            }
        }
        let notes = s.replica().nodes_with_tag("note").len();
        assert!(notes <= NOTE_CAP && notes > NOTE_CAP / 2, "{notes} notes");
    }

    #[test]
    fn hot_clients_are_decorrelated_but_reproducible() {
        let draws = |seed, c| {
            let mut h = HotClient::new(seed, c, 23);
            (0..50).map(|_| h.next_query()).collect::<Vec<_>>()
        };
        assert_eq!(draws(3, 0), draws(3, 0));
        assert_ne!(draws(3, 0), draws(3, 1));
    }

    #[test]
    fn one_line_queries_answer_like_the_originals() {
        let db = xmark::auction_database(0.0005);
        let qs = queries();
        assert_eq!(qs.len(), 23);
        assert!(qs.iter().all(|q| !q.line.contains('\n') && q.wire.ends_with(b"\n")));
        let (answers, differing) = references(&db, &qs).unwrap();
        assert_eq!(answers.len(), 23);
        assert!(differing.is_empty(), "{differing:?}");
    }
}
