//! The three sensor workloads: `sensors_scan` (vector format at rest,
//! larger than the buffer cache), `sensors_scan_amax` (the same data in the
//! amax columnar format at rest) and `sensors_live_amax` (amax under a
//! closed loop of writes beside reads, never at rest).

use std::collections::BTreeMap;
use std::time::Instant;

use tc_adm::{parse, to_string, Value};
use tc_cluster::{Cluster, FeedMode};
use tc_datagen::sensors::SensorsGen;
use tc_datagen::updates::Updater;
use tc_datagen::Generator;
use tc_lsm::MergePolicy;
use tc_query::exec::ExecOptions;
use tc_query::paper_queries as pq;
use tc_query::plan::{Query, QueryOptions};
use tuple_compactor::{DatasetConfig, StorageFormat};

use crate::common::{
    self, check_state, device_bytes_written, pk, rows_match, Model, OpCounters, Outcome, QueryKind,
    Rng, Samples, Sink, Totals,
};
use crate::stats;
use crate::trace::Tracer;
use crate::RunResult;

/// First report time SensorsGen assigns; each id adds one minute.
const BASE_TIME: i64 = 1_556_496_000_000;
const MINUTE_MS: i64 = 60_000;
const DAY_MS: i64 = 24 * 60 * MINUTE_MS;
/// The selective query's report-time window: about three records.
const SELECTIVE_WINDOW_MS: i64 = 3 * MINUTE_MS;

/// How many operations of each kind one round runs on one dataset.
#[derive(Clone, Copy, Default)]
pub struct Mix {
    pub analytic: usize,
    pub selective: usize,
    pub gets: usize,
    pub inserts: usize,
    pub upserts: usize,
    pub deletes: usize,
}

impl Mix {
    fn is_empty(&self) -> bool {
        self.analytic + self.selective + self.gets + self.inserts + self.upserts + self.deletes == 0
    }
}

pub struct Spec {
    pub format: StorageFormat,
    pub policy: MergePolicy,
    pub memtable_bytes: usize,
    pub cache_bytes: u64,
    pub records: usize,
    /// Load one `Cluster::insert` at a time (else one feed).
    pub one_by_one: bool,
    /// Merge every partition to one component after the load.
    pub at_rest: bool,
    /// Operations of one round on the measured dataset.
    pub main: Mix,
    /// Operations of one round on an identical copy of the dataset, so
    /// that writes (and, for amax, whole-group gets) can be timed beside
    /// the main mix without taking the main dataset out of its state.
    pub side: Mix,
    /// Records each round loads into a fresh scratch dataset, the way the
    /// setup loads, for `ingest_rps`.
    pub ingest_batch: usize,
    /// The window runs `seconds × rounds_per_s` rounds.
    pub rounds_per_s: f64,
    /// Set-ups per run at least; `setup_s` is their median. Short set-ups
    /// need more of them for a steady median.
    pub setups: usize,
}

pub fn spec(name: &str) -> Option<Spec> {
    let prefix = MergePolicy::by_name("prefix").expect("registered policy");
    Some(match name {
        "sensors_scan" => Spec {
            format: StorageFormat::Inferred,
            policy: prefix,
            memtable_bytes: 1 << 20,
            cache_bytes: 4 << 20,
            records: 4096,
            one_by_one: false,
            at_rest: true,
            main: Mix { analytic: 4, selective: 4, gets: 4, ..Mix::default() },
            side: Mix { inserts: 2, upserts: 2, deletes: 1, ..Mix::default() },
            // A batch of 300 (about 45 ms) left the median of 25 rounds
            // spreading by a quarter from run to run.
            ingest_batch: 600,
            rounds_per_s: 1.25,
            setups: 3,
        },
        "sensors_scan_amax" => Spec {
            format: StorageFormat::Columnar,
            policy: prefix,
            memtable_bytes: 1 << 20,
            cache_bytes: 4 << 20,
            records: 4096,
            one_by_one: false,
            at_rest: true,
            main: Mix { analytic: 4, selective: 6, ..Mix::default() },
            side: Mix { gets: 2, inserts: 1, upserts: 1, deletes: 1, ..Mix::default() },
            ingest_batch: 300,
            rounds_per_s: 0.75,
            setups: 3,
        },
        "sensors_live_amax" => Spec {
            format: StorageFormat::Columnar,
            policy: MergePolicy::by_name("tiered").expect("registered policy"),
            memtable_bytes: 256 << 10,
            cache_bytes: 64 << 20,
            records: 1000,
            one_by_one: true,
            at_rest: false,
            main: Mix { analytic: 1, selective: 1, gets: 4, inserts: 2, upserts: 2, deletes: 2 },
            side: Mix::default(),
            ingest_batch: 200,
            rounds_per_s: 3.0,
            setups: 7,
        },
        _ => return None,
    })
}

fn dataset_config(spec: &Spec) -> DatasetConfig {
    DatasetConfig::new("Sensors", "id")
        .with_format(spec.format)
        .with_memtable_budget(spec.memtable_bytes)
        .with_page_size(32 * 1024)
        .with_merge_policy(spec.policy)
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Analytic(usize),
    Selective,
    Get,
    Insert,
    Upsert,
    Delete,
}

/// A query the oracle can answer from the model.
#[derive(Clone, Copy, Debug)]
enum Q {
    Count,
    MinMax,
    TopAvg { window: Option<(i64, i64)> },
}

fn analytic(i: usize) -> (Query, Q) {
    let o = QueryOptions::default();
    match i % 4 {
        0 => (pq::sensors_q1(o), Q::Count),
        1 => (pq::sensors_q2(o), Q::MinMax),
        2 => (pq::sensors_q3(o), Q::TopAvg { window: None }),
        _ => (
            pq::sensors_q4(o, BASE_TIME),
            Q::TopAvg { window: Some((BASE_TIME, BASE_TIME + DAY_MS)) },
        ),
    }
}

fn selective(lo: i64) -> (Query, Q) {
    let hi = lo + SELECTIVE_WINDOW_MS;
    (
        pq::sensors_q4_scanfilter(QueryOptions::default(), lo, hi),
        Q::TopAvg { window: Some((lo, hi)) },
    )
}

fn temps(v: &Value) -> impl Iterator<Item = f64> + '_ {
    v.get_field("readings").and_then(Value::as_items).into_iter().flatten().filter_map(|r| match r
        .get_field("temp")
    {
        Some(&Value::Double(t)) => Some(t),
        _ => None,
    })
}

/// The query's answer computed from the generated inputs.
fn expected(model: &Model, q: Q) -> Vec<Vec<Value>> {
    let recs = model.recs.values().map(|(v, _)| v);
    match q {
        Q::Count => vec![vec![Value::Int64(recs.map(|v| temps(v).count() as i64).sum())]],
        Q::MinMax => {
            let (lo, hi) = recs
                .flat_map(temps)
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), t| (a.min(t), b.max(t)));
            vec![vec![Value::Double(lo), Value::Double(hi)]]
        }
        Q::TopAvg { window } => {
            let mut groups: BTreeMap<i64, (f64, u64)> = BTreeMap::new();
            for v in recs {
                let field = |f: &str| v.get_field(f).and_then(Value::as_i64);
                if let Some((lo, hi)) = window {
                    match field("report_time") {
                        Some(t) if t >= lo && t < hi => {}
                        _ => continue,
                    }
                }
                let Some(sensor) = field("sensor_id") else { continue };
                let g = groups.entry(sensor).or_default();
                for t in temps(v) {
                    g.0 += t;
                    g.1 += 1;
                }
            }
            let mut rows: Vec<(i64, f64)> = groups
                .into_iter()
                .filter(|(_, (_, n))| *n > 0)
                .map(|(s, (sum, n))| (s, sum / n as f64))
                .collect();
            rows.sort_by(|a, b| b.1.total_cmp(&a.1));
            rows.truncate(10);
            rows.into_iter().map(|(s, a)| vec![Value::Int64(s), Value::Double(a)]).collect()
        }
    }
}

struct State {
    cluster: Cluster,
    model: Model,
    gen: SensorsGen,
    next_id: i64,
}

/// Load `texts` the workload's way: one insert at a time, or one feed
/// followed by a flush. Returns records/s, including the drain.
fn load(
    spec: &Spec,
    cluster: &Cluster,
    texts: &[String],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> f64 {
    let t = Instant::now();
    if spec.one_by_one {
        for text in texts {
            let op = tr.begin("op.load_insert");
            match tr.span("adm.parse", || parse(text)) {
                Ok(v) => match tr.span("cluster.insert", || cluster.insert(&v)) {
                    Ok(()) => out.ok(),
                    Err(e) => out.fail(format!("load insert: {e}")),
                },
                Err(e) => out.fail(format!("load parse: {e}")),
            }
            tr.end(op);
        }
    } else {
        let op = tr.begin("op.load_feed");
        let mut values = Vec::with_capacity(texts.len());
        for text in texts {
            match tr.span("adm.parse", || parse(text)) {
                Ok(v) => values.push(v),
                Err(e) => out.fail(format!("load parse: {e}")),
            }
        }
        let n = values.len() as u64;
        match tr.span("cluster.feed", || cluster.feed(values, FeedMode::Insert)) {
            Ok(r) if r.records == n => out.attempted += n,
            Ok(r) => out.fail(format!("feed applied {} of {n}", r.records)),
            Err(e) => out.fail(format!("load feed: {e}")),
        }
        if let Err(e) = tr.span("core.flush", || cluster.flush_all()) {
            out.fail(format!("flush: {e}"));
        }
        tr.end(op);
    }
    tr.span("core.await_quiescent", || cluster.await_quiescent());
    texts.len() as f64 / t.elapsed().as_secs_f64()
}

/// Generate the inputs and load them. Returns the state, device bytes
/// written per ADM byte, and the first `ingest_batch` texts for the
/// per-round ingest batches.
fn setup(spec: &Spec, seed: u64, tr: &mut Tracer, out: &mut Outcome) -> (State, f64, Vec<String>) {
    let mut gen = SensorsGen::new(seed);
    let mut model = Model::default();
    let mut texts = Vec::with_capacity(spec.records);
    for _ in 0..spec.records {
        let v = gen.next_record();
        let text = to_string(&v);
        model.put(pk(&v), v, text.len());
        texts.push(text);
    }
    let user_bytes: usize = texts.iter().map(String::len).sum();
    let cluster = common::cluster(dataset_config(spec), spec.cache_bytes);
    load(spec, &cluster, &texts, tr, out);
    if spec.at_rest {
        if let Err(e) = tr.span("core.merge", || cluster.merge_all()) {
            out.fail(format!("merge: {e}"));
        }
    }
    let written = device_bytes_written(&cluster) as f64 / user_bytes as f64;
    let next_id = spec.records as i64;
    texts.truncate(spec.ingest_batch);
    (State { cluster, model, gen, next_id }, written, texts)
}

fn ops_of(mix: &Mix, round: usize, side: bool) -> Vec<(bool, Op)> {
    let mut ops = Vec::new();
    // Rounds with one analytic query cycle through Q1..Q4.
    ops.extend((0..mix.analytic).map(|i| Op::Analytic(round * mix.analytic + i)));
    ops.extend(std::iter::repeat_n(Op::Selective, mix.selective));
    ops.extend(std::iter::repeat_n(Op::Get, mix.gets));
    ops.extend(std::iter::repeat_n(Op::Insert, mix.inserts));
    ops.extend(std::iter::repeat_n(Op::Upsert, mix.upserts));
    ops.extend(std::iter::repeat_n(Op::Delete, mix.deletes));
    ops.into_iter().map(|op| (side, op)).collect()
}

struct Ctx<'a> {
    rng: Rng,
    updater: Updater,
    sink: Sink<'a>,
    /// ADM bytes written by single-record inserts and upserts.
    user_bytes: usize,
    /// Counters of the per-round scratch datasets.
    scratch: Totals,
}

impl<'a> Ctx<'a> {
    fn new(seed: u64, sink: Sink<'a>) -> Self {
        let (rng, updater) = (Rng::new(seed, 1), Updater::new(seed));
        Ctx { rng, updater, sink, user_bytes: 0, scratch: Totals::default() }
    }
}

fn run_query(st: &State, cx: &mut Ctx, kind: QueryKind, (query, q): (Query, Q)) {
    if let Some(rows) = cx.sink.query(&st.cluster, kind, &query) {
        let want = expected(&st.model, q);
        cx.sink.out.check(rows_match(&rows, &want), || {
            format!("{} {q:?}: got {rows:?}, expected {want:?}", kind.span_name())
        });
    }
}

fn exec(st: &mut State, cx: &mut Ctx, op: Op) {
    let c = &st.cluster;
    match op {
        Op::Analytic(i) => run_query(st, cx, QueryKind::Analytic(i % 4), analytic(i)),
        Op::Selective => {
            let lo = BASE_TIME + cx.rng.below(st.next_id as usize) as i64 * MINUTE_MS;
            run_query(st, cx, QueryKind::Selective, selective(lo));
        }
        Op::Get => {
            // One get in ten asks for a deleted key, which must stay absent.
            let key = if !st.model.deleted.is_empty() && cx.rng.below(10) == 0 {
                st.model.deleted[cx.rng.below(st.model.deleted.len())]
            } else {
                st.model.pick(&mut cx.rng)
            };
            cx.sink.get(c, &st.model, key);
        }
        Op::Insert => {
            // The load's generator continues with fresh keys.
            let value = st.gen.next_record();
            st.next_id = pk(&value) + 1;
            cx.user_bytes += cx.sink.write(c, &mut st.model, value, false);
        }
        Op::Upsert => {
            let key = st.model.pick(&mut cx.rng);
            let value =
                cx.updater.mutate_values(st.model.get(key).expect("picked a live key"), "id");
            cx.user_bytes += cx.sink.write(c, &mut st.model, value, true);
        }
        Op::Delete => {
            let key = st.model.pick(&mut cx.rng);
            cx.sink.delete(c, &mut st.model, key);
        }
    }
}

/// The datasets one window runs against.
struct Window {
    main: State,
    side: Option<State>,
}

/// Run `rounds` rounds. Each round loads an ingest batch into a fresh
/// scratch dataset, then runs the main and side mixes shuffled together,
/// then the host probe. Returns the window's wall time, probes excluded.
fn window(spec: &Spec, w: &mut Window, cx: &mut Ctx, batch: &[String], rounds: usize) -> f64 {
    let c = &w.main.cluster;
    cx.sink.tr.span("storage.clear_caches", || c.clear_caches());
    let t = Instant::now();
    let mut probes_s = 0.0;
    for r in 0..rounds {
        let scratch = common::cluster(dataset_config(spec), spec.cache_bytes);
        let rps = load(spec, &scratch, batch, cx.sink.tr, cx.sink.out);
        cx.sink.samples.ingest_rps.push(rps);
        cx.scratch.add(&Totals::of(&scratch));
        let mut ops = ops_of(&spec.main, r, false);
        ops.extend(ops_of(&spec.side, r, true));
        cx.rng.shuffle(&mut ops);
        for (side, op) in ops {
            let st = if side {
                w.side.as_mut().expect("side mix needs a side copy")
            } else {
                &mut w.main
            };
            exec(st, cx, op);
        }
        let probe = crate::host::probe_ms();
        cx.sink.samples.probe_ms.push(probe);
        probes_s += probe / 1e3;
    }
    t.elapsed().as_secs_f64() - probes_s
}

/// For the amax workloads: the same records loaded into the vector format
/// must give identical answers.
fn twin_check(st: &State, spec: &Spec, out: &mut Outcome) {
    let twin = common::cluster(
        dataset_config(spec).with_format(StorageFormat::Inferred),
        spec.cache_bytes,
    );
    let values: Vec<Value> = st.model.recs.values().map(|(v, _)| v.clone()).collect();
    let loaded = twin.feed(values, FeedMode::Insert).and_then(|_| twin.flush_all());
    if let Err(e) = loaded.and_then(|_| twin.merge_all()) {
        out.fail(format!("vector twin load: {e}"));
        return;
    }
    let queries = (0..4).map(analytic).chain(std::iter::once(selective(BASE_TIME)));
    for (query, q) in queries {
        let opts = ExecOptions::default();
        match (st.cluster.query(&query, &opts), twin.query(&query, &opts)) {
            (Ok(a), Ok(v)) => {
                out.check(a.rows == v.rows, || format!("amax and vector answers differ on {q:?}"))
            }
            (a, v) => out.fail(format!("twin query {q:?}: {:?} / {:?}", a.err(), v.err())),
        }
    }
}

pub fn run(name: &str, seed: u64, seconds: f64, tr: &mut Tracer) -> RunResult {
    let spec = spec(name).expect("caller checked the workload name");
    let mut res = RunResult::default();
    let mut out = Outcome::default();
    let tracing = tr.enabled();

    // Set up at least `spec.setups` times and report the median. A window needs
    // one dataset, or two with a side copy; a traced run needs two
    // windows' worth (one runs untraced, the other traced, so the
    // difference is the tracing overhead). The last setup is traced.
    let per_window = if spec.side.is_empty() { 1 } else { 2 };
    let needed = per_window * if tracing { 2 } else { 1 };
    let setups = needed.max(spec.setups);
    let mut kept: Vec<State> = Vec::new();
    let mut batch = Vec::new();
    for i in 0..setups {
        tr.set_enabled(tracing && i + 1 == setups);
        while kept.len() >= needed {
            kept.remove(0);
        }
        let t = Instant::now();
        let (st, written, texts) = setup(&spec, seed, tr, &mut out);
        res.samples.setup_s.push(t.elapsed().as_secs_f64());
        res.samples.setup_probe_ms.push(crate::host::probe_ms());
        if spec.at_rest {
            res.samples.written_per_user.push(written);
        }
        kept.push(st);
        batch = texts;
    }
    tr.set_enabled(false);
    let take_window = |kept: &mut Vec<State>| {
        let main = kept.remove(0);
        let side = (per_window == 2).then(|| kept.remove(0));
        Window { main, side }
    };

    let (m, sd) = (&spec.main, &spec.side);
    let per_round = [
        m.analytic + sd.analytic,
        m.selective + sd.selective,
        m.gets + sd.gets,
        m.inserts + m.upserts + m.deletes + sd.inserts + sd.upserts + sd.deletes,
    ];
    let rounds = per_round
        .into_iter()
        .map(stats::rounds_for_tail)
        .fold((seconds * spec.rounds_per_s).round() as usize, usize::max);
    if tracing {
        let mut w = take_window(&mut kept);
        let (mut samples, mut opc) = (Samples::default(), OpCounters::default());
        let sink = Sink { tr: &mut *tr, samples: &mut samples, out: &mut out, opc: &mut opc };
        res.untraced_window_s = window(&spec, &mut w, &mut Ctx::new(seed, sink), &batch, rounds);
        tr.set_enabled(true);
    }
    let mut w = take_window(&mut kept);
    let loaded: usize =
        std::iter::once(&w.main).chain(&w.side).map(|st| st.model.user_bytes()).sum();
    res.traced_user_bytes = loaded + batch.iter().map(String::len).sum::<usize>() * rounds;

    let mut samples = Samples::default();
    let mut opc = OpCounters::default();
    let loaded_main = w.main.model.user_bytes();
    let sink = Sink { tr: &mut *tr, samples: &mut samples, out: &mut out, opc: &mut opc };
    let mut cx = Ctx::new(seed, sink);
    res.window_s = window(&spec, &mut w, &mut cx, &batch, rounds);
    let user_bytes = cx.user_bytes;
    let scratch = cx.scratch;
    res.traced_user_bytes += user_bytes;
    if !spec.at_rest {
        // Over the dataset's whole life, its load included: whether a
        // large merge falls just inside or just after the window moved a
        // window-only ratio by a tenth from one seed to the next.
        let written = device_bytes_written(&w.main.cluster) as f64;
        samples.written_per_user.push(written / (loaded_main + user_bytes) as f64);
    }

    // Outside the measured window: every dataset's stored state against
    // its model, the cross-format check, then the Fig 16 size of the main
    // dataset after a full merge.
    for st in std::iter::once(&w.main).chain(&w.side) {
        check_state(&st.cluster, &st.model, &mut out);
    }
    let st = &w.main;
    if spec.format == StorageFormat::Columnar {
        twin_check(st, &spec, &mut out);
    }
    if let Err(e) = tr.span("core.flush", || st.cluster.flush_all()) {
        out.fail(format!("final flush: {e}"));
    }
    if let Err(e) = tr.span("core.merge", || st.cluster.merge_all()) {
        out.fail(format!("final merge: {e}"));
    }
    res.disk_per_user = st.cluster.total_disk_bytes() as f64 / st.model.user_bytes() as f64;
    res.totals = scratch;
    for st in std::iter::once(&w.main).chain(&w.side) {
        res.totals.add(&Totals::of(&st.cluster));
    }
    res.opc = opc;
    res.samples.append(samples);
    res.outcome = out;
    if tracing {
        res.replay = crate::replay::run(
            &dataset_config(&spec),
            st.model.recs.values().map(|(v, _)| v),
            &common::scan_paths(
                (0..4).map(|i| analytic(i).0).chain(std::iter::once(selective(BASE_TIME).0)),
            ),
        );
    }
    res
}
