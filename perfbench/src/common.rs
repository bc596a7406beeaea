//! Pieces every workload shares: the seeded generator, the record model the
//! correctness oracle checks against, counter snapshots, and the sample
//! sets a run collects.

use std::collections::BTreeMap;
use std::time::Instant;

use tc_adm::path::Path;
use tc_adm::{parse, to_string, Value};
use tc_cluster::{Cluster, ClusterConfig};
use tc_lsm::policy::NUM_MERGE_TRIGGERS;
use tc_query::exec::ExecOptions;
use tc_query::plan::Query;
use tc_storage::device::DeviceProfile;
use tuple_compactor::DatasetConfig;

use crate::trace::Tracer;

/// SplitMix64: the benchmark's own deterministic generator for operation
/// mixes and key choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The last acknowledged version of every live key, with the ADM-text size
/// it was written with; deleted keys are remembered so reads can check
/// they stay absent.
#[derive(Default, Clone)]
pub struct Model {
    pub recs: BTreeMap<i64, (Value, usize)>,
    live: Vec<i64>,
    slot: BTreeMap<i64, usize>,
    pub deleted: Vec<i64>,
}

impl Model {
    pub fn put(&mut self, pk: i64, value: Value, adm_bytes: usize) {
        if self.recs.insert(pk, (value, adm_bytes)).is_none() {
            self.slot.insert(pk, self.live.len());
            self.live.push(pk);
            self.deleted.retain(|&k| k != pk);
        }
    }

    pub fn remove(&mut self, pk: i64) {
        let Some(i) = self.slot.remove(&pk) else { return };
        self.live.swap_remove(i);
        if let Some(&moved) = self.live.get(i) {
            self.slot.insert(moved, i);
        }
        self.recs.remove(&pk);
        self.deleted.push(pk);
    }

    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// A uniformly chosen live key.
    pub fn pick(&self, rng: &mut Rng) -> i64 {
        self.live[rng.below(self.live.len())]
    }

    pub fn get(&self, pk: i64) -> Option<&Value> {
        self.recs.get(&pk).map(|(v, _)| v)
    }

    pub fn user_bytes(&self) -> usize {
        self.recs.values().map(|(_, b)| b).sum()
    }
}

/// Failed or wrong-answer operations, out of those attempted.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub first_failures: Vec<String>,
}

impl Outcome {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.first_failures.len() < 10 {
            self.first_failures.push(why);
        }
    }

    pub fn check(&mut self, good: bool, why: impl FnOnce() -> String) {
        if good {
            self.ok()
        } else {
            self.fail(why())
        }
    }
}

/// Everything a run measures, before it is reduced to metrics.
#[derive(Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    /// Records/s of each load or insert-feed phase.
    pub ingest_rps: Vec<f64>,
    /// Records/s of each upsert-feed phase (feed workloads only).
    pub upsert_feed_rps: Vec<f64>,
    /// Single-record upsert calls, µs (parse included).
    pub upsert_us: Vec<f64>,
    /// Single-record insert, upsert and delete calls, µs (parse included).
    pub write_us: Vec<f64>,
    pub get_us: Vec<f64>,
    /// Analytic query latencies, by the query's number in the mix.
    pub analytic_ms: BTreeMap<usize, Vec<f64>>,
    pub selective_ms: Vec<f64>,
    /// Device bytes written per ADM-text byte written, per write phase.
    pub written_per_user: Vec<f64>,
    /// [`crate::host::probe_ms`], once per round.
    pub probe_ms: Vec<f64>,
    /// [`crate::host::probe_ms`], once after each set-up.
    pub setup_probe_ms: Vec<f64>,
}

impl Samples {
    pub fn append(&mut self, o: Samples) {
        self.setup_s.extend(o.setup_s);
        self.ingest_rps.extend(o.ingest_rps);
        self.upsert_feed_rps.extend(o.upsert_feed_rps);
        self.upsert_us.extend(o.upsert_us);
        self.write_us.extend(o.write_us);
        self.get_us.extend(o.get_us);
        for (q, v) in o.analytic_ms {
            self.analytic_ms.entry(q).or_default().extend(v);
        }
        self.selective_ms.extend(o.selective_ms);
        self.written_per_user.extend(o.written_per_user);
        self.probe_ms.extend(o.probe_ms);
        self.setup_probe_ms.extend(o.setup_probe_ms);
    }
}

/// A timed query: one of the analytic mix (by its number) or the
/// selective scan.
#[derive(Clone, Copy, Debug)]
pub enum QueryKind {
    Analytic(usize),
    Selective,
}

impl QueryKind {
    pub fn span_name(self) -> &'static str {
        match self {
            QueryKind::Analytic(_) => "op.analytic",
            QueryKind::Selective => "op.selective",
        }
    }
}

/// Per-operation counters the traced run accumulates.
#[derive(Default, Clone, Copy)]
pub struct OpCounters {
    pub queries: u64,
    pub components_at_query: u64,
    pub at_rest_queries: u64,
    pub query_bytes_read: u64,
    pub rows_scanned: u64,
    pub rows_out: u64,
    pub bytes_scanned: u64,
    pub gets: u64,
    pub get_read_ops: u64,
}

/// Where a client operation's measurements go. Each method times one
/// call as the client sees it, inside an `op.<kind>` span with a child
/// span for the crate call, and checks the outcome outside the timing.
pub struct Sink<'a> {
    pub tr: &'a mut Tracer,
    pub samples: &'a mut Samples,
    pub out: &'a mut Outcome,
    pub opc: &'a mut OpCounters,
}

impl Sink<'_> {
    /// Run a query as an `op.analytic` or `op.selective` operation and
    /// return its rows for the caller's oracle (`None` after an error,
    /// which counts as a failed operation).
    pub fn query(
        &mut self,
        c: &Cluster,
        kind: QueryKind,
        query: &Query,
    ) -> Option<Vec<Vec<Value>>> {
        let op = self.tr.begin(kind.span_name());
        let traced = self.tr.enabled();
        if traced {
            let parts = c.partitions();
            self.opc.queries += 1;
            self.opc.components_at_query +=
                parts.iter().map(|p| p.primary().components().len() as u64).sum::<u64>();
            self.opc.at_rest_queries +=
                u64::from(parts.iter().all(|p| p.snapshot_columnar().is_some()));
        }
        let bytes_before = device_reads(c).1;
        let t = Instant::now();
        let res = self.tr.span("query.execute", || c.query(query, &ExecOptions::default()));
        let ms = elapsed_us(t) / 1e3;
        self.tr.end(op);
        match kind {
            QueryKind::Analytic(q) => self.samples.analytic_ms.entry(q).or_default().push(ms),
            QueryKind::Selective => self.samples.selective_ms.push(ms),
        }
        match res {
            Ok(r) => {
                if traced {
                    self.opc.query_bytes_read += device_reads(c).1 - bytes_before;
                    self.opc.rows_scanned += r.stats.rows_scanned;
                    self.opc.rows_out += r.stats.rows_output;
                    self.opc.bytes_scanned += r.stats.bytes_scanned;
                }
                Some(r.rows)
            }
            Err(e) => {
                self.out.fail(format!("{}: {e}", kind.span_name()));
                None
            }
        }
    }

    /// Get `key`; the answer must be the model's last acknowledged version,
    /// or absent for a deleted key.
    pub fn get(&mut self, c: &Cluster, model: &Model, key: i64) {
        let op = self.tr.begin("op.get");
        let ops_before = device_reads(c).0;
        let t = Instant::now();
        let got = self.tr.span("cluster.get", || c.get(key));
        self.samples.get_us.push(elapsed_us(t));
        if self.tr.enabled() {
            self.opc.gets += 1;
            self.opc.get_read_ops += device_reads(c).0 - ops_before;
        }
        self.tr.end(op);
        match got {
            Ok(v) => self.out.check(v.as_ref() == model.get(key), || {
                format!("get {key}: not the last acknowledged version")
            }),
            Err(e) => self.out.fail(format!("get {key}: {e}")),
        }
    }

    /// Insert (or upsert) `value` from its ADM text, parse included in the
    /// timing; once acknowledged it becomes the model's version. Returns
    /// the ADM bytes written.
    pub fn write(&mut self, c: &Cluster, model: &mut Model, value: Value, upsert: bool) -> usize {
        let text = to_string(&value);
        let (kind, call) =
            if upsert { ("op.upsert", "cluster.upsert") } else { ("op.insert", "cluster.insert") };
        let op = self.tr.begin(kind);
        let t = Instant::now();
        let tr = &mut *self.tr;
        let res = tr
            .span("adm.parse", || parse(&text))
            .and_then(|v| tr.span(call, || if upsert { c.upsert(&v) } else { c.insert(&v) }));
        let us = elapsed_us(t);
        self.tr.end(op);
        self.samples.write_us.push(us);
        if upsert {
            self.samples.upsert_us.push(us);
        }
        match res {
            Ok(()) => {
                self.out.ok();
                model.put(pk(&value), value, text.len());
                text.len()
            }
            Err(e) => {
                self.out.fail(format!("{kind}: {e}"));
                0
            }
        }
    }

    /// Delete `key`, which the model holds, so the call must find it.
    pub fn delete(&mut self, c: &Cluster, model: &mut Model, key: i64) {
        let op = self.tr.begin("op.delete");
        let t = Instant::now();
        let res = self.tr.span("cluster.delete", || c.delete(key));
        self.samples.write_us.push(elapsed_us(t));
        self.tr.end(op);
        match res {
            Ok(true) => {
                self.out.ok();
                model.remove(key);
            }
            Ok(false) => self.out.fail(format!("delete {key}: key reported absent")),
            Err(e) => self.out.fail(format!("delete {key}: {e}")),
        }
    }
}

/// Device, buffer-cache and LSM counters summed over a cluster's
/// partitions. Every counter starts at zero when the cluster is created.
#[derive(Default, Clone, Copy, Debug)]
pub struct Totals {
    pub bytes_written: u64,
    pub write_ops: u64,
    pub model_io_ns: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub flushes: u64,
    pub merges: u64,
    pub merges_by_trigger: [u64; NUM_MERGE_TRIGGERS],
    pub bytes_flushed: u64,
    pub bytes_merged: u64,
    pub writer_stall_ns: u64,
    pub backpressure_ns: u64,
    pub columnar_pages_written: u64,
    pub pages_skipped_by_stats: u64,
    pub columns_faulted_in: u64,
    pub typed_filter_rows: u64,
}

impl Totals {
    pub fn of(c: &Cluster) -> Totals {
        let mut t = Totals::default();
        for node in c.nodes() {
            t.cache_hits += node.cache.hits();
            t.cache_misses += node.cache.misses();
            for d in &node.devices {
                t.bytes_written += d.bytes_written();
                t.write_ops += d.write_ops();
                t.model_io_ns += d.io_time().as_nanos() as u64;
            }
        }
        for p in c.partitions() {
            let s = p.lsm_stats();
            t.flushes += s.flushes;
            t.merges += s.merges;
            for (acc, n) in t.merges_by_trigger.iter_mut().zip(s.merges_by_trigger) {
                *acc += n;
            }
            t.bytes_flushed += s.bytes_flushed;
            t.bytes_merged += s.bytes_merged;
            t.writer_stall_ns += p.writer_stall_nanos();
            t.backpressure_ns += s.backpressure_stall_nanos;
            t.columnar_pages_written += s.columnar_pages_written;
            t.pages_skipped_by_stats += s.pages_skipped_by_stats;
            t.columns_faulted_in += s.columns_faulted_in;
            t.typed_filter_rows += s.columnar_typed_filter_rows;
        }
        t
    }

    pub fn add(&mut self, o: &Totals) {
        self.bytes_written += o.bytes_written;
        self.write_ops += o.write_ops;
        self.model_io_ns += o.model_io_ns;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.flushes += o.flushes;
        self.merges += o.merges;
        for (a, b) in self.merges_by_trigger.iter_mut().zip(o.merges_by_trigger) {
            *a += b;
        }
        self.bytes_flushed += o.bytes_flushed;
        self.bytes_merged += o.bytes_merged;
        self.writer_stall_ns += o.writer_stall_ns;
        self.backpressure_ns += o.backpressure_ns;
        self.columnar_pages_written += o.columnar_pages_written;
        self.pages_skipped_by_stats += o.pages_skipped_by_stats;
        self.columns_faulted_in += o.columns_faulted_in;
        self.typed_filter_rows += o.typed_filter_rows;
    }
}

/// Device read ops and bytes of a cluster right now (cheap: atomics only).
pub fn device_reads(c: &Cluster) -> (u64, u64) {
    c.nodes()
        .iter()
        .flat_map(|n| n.devices.iter())
        .fold((0, 0), |(ops, bytes), d| (ops + d.read_ops(), bytes + d.bytes_read()))
}

pub fn device_bytes_written(c: &Cluster) -> u64 {
    c.nodes().iter().flat_map(|n| n.devices.iter()).map(|d| d.bytes_written()).sum()
}

/// The benchmark's topology: one node with two partitions, as in the
/// paper's single-node setup. The device is the NVMe model; its modeled
/// I/O time is reported on its own and never added to wall time.
pub fn cluster(ds: DatasetConfig, cache_bytes: u64) -> Cluster {
    Cluster::create_dataset(
        ClusterConfig {
            nodes: 1,
            partitions_per_node: 2,
            device: DeviceProfile::NVME_SSD,
            cache_budget_per_node: cache_bytes,
        },
        ds,
    )
}

pub fn elapsed_us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

pub fn pk(v: &Value) -> i64 {
    v.get_field("id").and_then(Value::as_i64).expect("generated records carry an integer id")
}

/// Compare query answers; doubles may differ in the last bits when the
/// expected answer was summed in another order.
pub fn rows_match(got: &[Vec<Value>], want: &[Vec<Value>]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.len() == w.len()
                && g.iter().zip(w).all(|(a, b)| match (a, b) {
                    (Value::Double(x), Value::Double(y)) => {
                        (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
                    }
                    _ => a == b,
                })
        })
}

/// Compare every stored record with the model: the same keys, and each
/// key's last acknowledged version.
pub fn check_state(c: &Cluster, model: &Model, out: &mut Outcome) {
    let mut seen = 0usize;
    for p in c.partitions() {
        match p.scan_values() {
            Ok(values) => {
                for v in values {
                    seen += 1;
                    let k = pk(&v);
                    out.check(model.get(k) == Some(&v), || format!("scan: key {k} differs"));
                }
            }
            Err(e) => out.fail(format!("scan failed: {e}")),
        }
    }
    out.check(seen == model.len(), || format!("scan saw {seen} records, expected {}", model.len()));
}

/// The distinct non-empty paths the queries' scans extract (the paths the
/// replay's batch evaluator reads).
pub fn scan_paths(queries: impl IntoIterator<Item = Query>) -> Vec<Path> {
    let mut paths: Vec<Path> = Vec::new();
    for q in queries {
        for p in q.scan.paths.iter().chain(&q.scan.late_paths) {
            if !p.is_empty() && !paths.contains(p) {
                paths.push(p.clone());
            }
        }
    }
    paths
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
