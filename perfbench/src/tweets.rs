//! `tweets_feed`: heterogeneous nested tweets fed into a compressed,
//! inferred (vector-format) dataset with background maintenance — the
//! paper's Fig 17 ingest path. Each round feeds the same inputs into a
//! fresh cluster: an insert feed, then an upsert feed of half as many
//! structurally mutated existing records (Fig 17b). After its feeds, each
//! round merges its cluster to one component per partition and runs a
//! slice of queries (the Fig 18 Twitter queries and a selective scan),
//! gets and single-record writes on it, outside the feed windows, so those
//! operations are sampled across the whole run.

use std::time::Instant;

use tc_adm::path::parse_path;
use tc_adm::{parse, to_string, Value};
use tc_cluster::{Cluster, FeedMode};
use tc_compress::CompressionScheme;
use tc_datagen::twitter::TwitterGen;
use tc_datagen::updates::Updater;
use tc_datagen::Generator;
use tc_lsm::MergePolicy;
use tc_query::exec::{Engine, ExecOptions};
use tc_query::expr::{CmpOp, Expr};
use tc_query::paper_queries as pq;
use tc_query::plan::{AccessStrategy, Op, Query, QueryOptions, ScanSpec};
use tuple_compactor::{DatasetConfig, StorageFormat};

use crate::common::{
    self, check_state, device_bytes_written, pk, Model, OpCounters, Outcome, QueryKind, Rng,
    Samples, Sink, Totals,
};
use crate::stats;
use crate::trace::Tracer;
use crate::RunResult;

/// Tweets inserted per round; the upsert feed mutates half as many.
const RECORDS: usize = 5000;
/// Small enough that every partition flushes and merges several times per
/// feed phase.
const MEMTABLE_BYTES: usize = 128 << 10;
const CACHE_BYTES: u64 = 64 << 20;
/// Set-ups per run; `setup_s` is their median. One set-up takes about
/// 0.15 s, short enough that the median of three spread by half from run
/// to run.
const SETUPS: usize = 9;
/// Rounds per second of `--seconds`.
const ROUNDS_PER_S: f64 = 1.1;
/// Distinct selective windows; each round runs each once, beside Q1..Q3.
const SELECTIVE_WINDOWS: usize = 5;
/// About four tweets fall in a window (timestamps advance ~125 ms a tweet).
const SELECTIVE_WINDOW_MS: i64 = 500;
/// Point operations of each round's slice.
const ROUND_GETS: usize = 5;
const ROUND_INSERTS: usize = 2;
const ROUND_UPSERTS: usize = 2;
const ROUND_DELETES: usize = 1;

fn dataset_config() -> DatasetConfig {
    DatasetConfig::new("Tweets", "id")
        .with_format(StorageFormat::Inferred)
        .with_compression(CompressionScheme::Snappy)
        .with_memtable_budget(MEMTABLE_BYTES)
        .with_primary_key_index(true)
        .with_background_maintenance(true)
        .with_merge_policy(MergePolicy::by_name("prefix").expect("registered policy"))
}

struct Inputs {
    inserts: Vec<String>,
    upserts: Vec<String>,
    /// The state after both feeds.
    model: Model,
    timestamps: Vec<i64>,
    gen: TwitterGen,
    updater: Updater,
}

fn setup(seed: u64) -> Inputs {
    let mut gen = TwitterGen::new(seed);
    let mut updater = Updater::new(seed);
    let mut model = Model::default();
    let mut inserts = Vec::with_capacity(RECORDS);
    let mut timestamps = Vec::with_capacity(RECORDS);
    for _ in 0..RECORDS {
        let v = gen.next_record();
        let text = to_string(&v);
        timestamps.extend(v.get_field("timestamp_ms").and_then(Value::as_i64));
        model.put(pk(&v), v, text.len());
        inserts.push(text);
    }
    let upserts = (0..RECORDS / 2)
        .map(|_| {
            let key = updater.pick_key(RECORDS as i64);
            let (v, _) = updater.mutate(model.get(key).expect("inserted key"), "id");
            let text = to_string(&v);
            model.put(key, v, text.len());
            text
        })
        .collect();
    Inputs { inserts, upserts, model, timestamps, gen, updater }
}

/// One feed phase: parse every record, feed, and wait until background
/// maintenance has drained. Returns records/s.
fn feed_phase(
    c: &Cluster,
    texts: &[String],
    mode: FeedMode,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> f64 {
    let kind = match mode {
        FeedMode::Insert => "op.feed_insert",
        FeedMode::Upsert => "op.feed_upsert",
    };
    let t = Instant::now();
    let op = tr.begin(kind);
    let mut values = Vec::with_capacity(texts.len());
    for text in texts {
        match tr.span("adm.parse", || parse(text)) {
            Ok(v) => values.push(v),
            Err(e) => out.fail(format!("parse: {e}")),
        }
    }
    let n = values.len() as u64;
    match tr.span("cluster.feed", || c.feed(values, mode)) {
        Ok(r) if r.records == n => out.attempted += n,
        Ok(r) => out.fail(format!("{kind} applied {} of {n}", r.records)),
        Err(e) => out.fail(format!("{kind}: {e}")),
    }
    tr.span("core.await_quiescent", || c.await_quiescent());
    tr.end(op);
    texts.len() as f64 / t.elapsed().as_secs_f64()
}

fn count_star(c: &Cluster) -> Option<i64> {
    let q = pq::twitter_q1(QueryOptions::default());
    c.query(&q, &ExecOptions::default()).ok().and_then(|r| pq::single_i64(&r.rows))
}

/// Scan-filter on a timestamp window, ordered by id.
fn selective(lo: i64) -> Query {
    let ts = Expr::col(2);
    Query {
        scan: ScanSpec {
            paths: vec![parse_path("id"), parse_path("user.name"), parse_path("timestamp_ms")],
            filter: Some(Expr::and(
                Expr::cmp(CmpOp::Ge, ts.clone(), Expr::lit(lo)),
                Expr::cmp(CmpOp::Lt, ts, Expr::lit(lo + SELECTIVE_WINDOW_MS)),
            )),
            late_paths: vec![],
            access: AccessStrategy::Consolidated,
        },
        ops: vec![Op::OrderBy { keys: vec![(Expr::col(0), false)], limit: None }],
    }
}

/// The Fig 18 aggregate queries Q1..Q3. Q4 (every record, sorted) is left
/// out: releasing its result dominated the latency of whatever ran next.
const ANALYTIC_QUERIES: usize = 3;

fn analytic(i: usize) -> Query {
    let o = QueryOptions::default();
    match i % ANALYTIC_QUERIES {
        0 => pq::twitter_q1(o),
        1 => pq::twitter_q2(o),
        _ => pq::twitter_q3(o),
    }
}

/// A query of the round slices, with the row engine's answer on the fed
/// state (a cluster of its own, fed before the rounds) as its reference:
/// every round feeds the same inputs, so every round must give that answer.
struct SliceQuery {
    query: Query,
    kind: QueryKind,
    reference: Option<Vec<Vec<Value>>>,
}

fn slice_queries(c: &Cluster, inputs: &Inputs, rng: &mut Rng) -> Vec<SliceQuery> {
    let reference = |q: &Query| {
        let opts = ExecOptions { engine: Engine::Row, parallel: false, ..Default::default() };
        c.query(q, &opts).ok().map(|r| r.rows)
    };
    // Q1..Q3 run first in each round: after a feed has released its
    // memory, the first queries pay for faulting it back in, and the
    // selective scans are too short to absorb that.
    let mut out: Vec<SliceQuery> = (0..ANALYTIC_QUERIES)
        .map(|i| {
            let query = analytic(i);
            SliceQuery { reference: reference(&query), query, kind: QueryKind::Analytic(i) }
        })
        .collect();
    for _ in 0..SELECTIVE_WINDOWS {
        let query = selective(inputs.timestamps[rng.below(inputs.timestamps.len())]);
        out.push(SliceQuery { reference: reference(&query), query, kind: QueryKind::Selective });
    }
    out
}

#[derive(Clone, Copy)]
enum Point {
    Get,
    Insert,
    Upsert,
    Delete,
}

/// One round's slice of queries and point operations on its cluster.
struct Slice<'a> {
    c: &'a Cluster,
    model: Model,
    inputs: &'a mut Inputs,
    rng: &'a mut Rng,
    sink: Sink<'a>,
    user_bytes: usize,
}

impl Slice<'_> {
    fn query(&mut self, sq: &SliceQuery) {
        let Some(rows) = self.sink.query(self.c, sq.kind, &sq.query) else { return };
        match &sq.reference {
            Some(want) => self.sink.out.check(&rows == want, || {
                format!("{}: differs from the row engine's answer", sq.kind.span_name())
            }),
            None => self.sink.out.fail(format!("{}: reference query failed", sq.kind.span_name())),
        }
    }

    fn point(&mut self, op: Point) {
        let c = self.c;
        match op {
            Point::Get => {
                let key = self.model.pick(self.rng);
                self.sink.get(c, &self.model, key);
            }
            Point::Insert => {
                let value = self.inputs.gen.next_record();
                self.user_bytes += self.sink.write(c, &mut self.model, value, false);
            }
            Point::Upsert => {
                let key = self.model.pick(self.rng);
                let old = self.model.get(key).expect("live key");
                let (value, _) = self.inputs.updater.mutate(old, "id");
                self.user_bytes += self.sink.write(c, &mut self.model, value, true);
            }
            Point::Delete => {
                let key = self.model.pick(self.rng);
                self.sink.delete(c, &mut self.model, key);
            }
        }
    }
}

/// What a window of rounds leaves behind.
struct Rounds {
    last: Cluster,
    model: Model,
    /// Feeds plus slices, without the untimed checks between them.
    window_s: f64,
    /// Counters of every cluster but the last.
    totals: Totals,
    user_bytes: usize,
    samples: Samples,
    opc: OpCounters,
}

/// Run `rounds` rounds, each on a fresh cluster: the two feeds, a count
/// check, then the round's slice of queries and point operations.
fn rounds(
    inputs: &mut Inputs,
    queries: &[SliceQuery],
    n_rounds: usize,
    rng: &mut Rng,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Rounds {
    let mut samples = Samples::default();
    let mut opc = OpCounters::default();
    let fed_bytes: usize = inputs.inserts.iter().chain(&inputs.upserts).map(String::len).sum();
    let mut totals = Totals::default();
    let mut prev: Option<Cluster> = None;
    let mut model = Model::default();
    let mut window_s = 0.0;
    let mut user_bytes = 0;
    for _ in 0..n_rounds {
        if let Some(p) = prev.take() {
            totals.add(&Totals::of(&p));
        }
        let c = common::cluster(dataset_config(), CACHE_BYTES);
        let t = Instant::now();
        samples.ingest_rps.push(feed_phase(&c, &inputs.inserts, FeedMode::Insert, tr, out));
        samples.upsert_feed_rps.push(feed_phase(&c, &inputs.upserts, FeedMode::Upsert, tr, out));
        window_s += t.elapsed().as_secs_f64();
        samples.written_per_user.push(device_bytes_written(&c) as f64 / fed_bytes as f64);
        user_bytes += fed_bytes;
        let n = count_star(&c);
        out.check(n == Some(inputs.model.len() as i64), || {
            format!("round holds {n:?} tweets, expected {}", inputs.model.len())
        });
        // The slice runs on the merged state: how many components the
        // background merges leave behind depends on thread timing, and
        // with it the slice's tails moved by a fifth from run to run.
        if let Err(e) = tr.span("core.flush", || c.flush_all()) {
            out.fail(format!("round flush: {e}"));
        }
        if let Err(e) = tr.span("core.merge", || c.merge_all()) {
            out.fail(format!("round merge: {e}"));
        }

        let mut points: Vec<Point> = std::iter::repeat_n(Point::Get, ROUND_GETS)
            .chain(std::iter::repeat_n(Point::Insert, ROUND_INSERTS))
            .chain(std::iter::repeat_n(Point::Upsert, ROUND_UPSERTS))
            .chain(std::iter::repeat_n(Point::Delete, ROUND_DELETES))
            .collect();
        rng.shuffle(&mut points);
        let mut slice = Slice {
            c: &c,
            model: inputs.model.clone(),
            inputs: &mut *inputs,
            rng: &mut *rng,
            sink: Sink { tr: &mut *tr, samples: &mut samples, out: &mut *out, opc: &mut opc },
            user_bytes: 0,
        };
        let t = Instant::now();
        // Queries first, in a fixed order, as their references hold for
        // the fed state only.
        for sq in queries {
            slice.query(sq);
        }
        for p in points {
            slice.point(p);
        }
        window_s += t.elapsed().as_secs_f64();
        user_bytes += slice.user_bytes;
        model = slice.model;
        samples.probe_ms.push(crate::host::probe_ms());
        prev = Some(c);
    }
    let last = prev.expect("at least one round");
    Rounds { last, model, window_s, totals, user_bytes, samples, opc }
}

pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> RunResult {
    let mut res = RunResult::default();
    let mut out = Outcome::default();
    let tracing = tr.enabled();
    tr.set_enabled(false);

    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(setup(seed));
        res.samples.setup_s.push(t.elapsed().as_secs_f64());
        res.samples.setup_probe_ms.push(crate::host::probe_ms());
    }
    let mut inputs = inputs.expect("setup ran");
    let per_round = [
        ANALYTIC_QUERIES,
        SELECTIVE_WINDOWS,
        ROUND_GETS,
        ROUND_INSERTS + ROUND_UPSERTS + ROUND_DELETES,
    ];
    let n_rounds = per_round
        .into_iter()
        .map(stats::rounds_for_tail)
        .fold((seconds * ROUNDS_PER_S).round() as usize, usize::max);

    // The slice queries' references, from the fed state on a cluster of
    // its own.
    let mut rng = Rng::new(seed, 2);
    let queries = {
        let c = common::cluster(dataset_config(), CACHE_BYTES);
        feed_phase(&c, &inputs.inserts, FeedMode::Insert, tr, &mut out);
        feed_phase(&c, &inputs.upserts, FeedMode::Upsert, tr, &mut out);
        slice_queries(&c, &inputs, &mut rng)
    };

    // One unmeasured round first, so allocator and page-cache warm-up do
    // not land in the first measured rounds.
    rounds(&mut inputs, &queries, 1, &mut rng, tr, &mut out);
    if tracing {
        // The same rounds untraced, for the tracing overhead.
        res.untraced_window_s =
            rounds(&mut inputs, &queries, n_rounds, &mut rng, tr, &mut out).window_s;
        tr.set_enabled(true);
    }
    let r = rounds(&mut inputs, &queries, n_rounds, &mut rng, tr, &mut out);
    res.window_s = r.window_s;
    res.traced_user_bytes = r.user_bytes;
    let c = r.last;

    check_state(&c, &r.model, &mut out);
    tr.span("core.await_quiescent", || c.await_quiescent());
    if let Err(e) = tr.span("core.flush", || c.flush_all()) {
        out.fail(format!("final flush: {e}"));
    }
    if let Err(e) = tr.span("core.merge", || c.merge_all()) {
        out.fail(format!("final merge: {e}"));
    }
    res.disk_per_user = c.total_disk_bytes() as f64 / r.model.user_bytes() as f64;
    let mut totals = r.totals;
    totals.add(&Totals::of(&c));
    res.totals = totals;
    res.opc = r.opc;
    res.samples.append(r.samples);
    res.outcome = out;
    if tracing {
        res.replay = crate::replay::run(
            &dataset_config(),
            r.model.recs.values().map(|(v, _)| v),
            &common::scan_paths(
                (0..ANALYTIC_QUERIES).map(analytic).chain(std::iter::once(selective(0))),
            ),
        );
    }
    res
}
