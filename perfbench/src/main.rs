//! Repeatable benchmark of the tuple-compaction stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Workloads: `tweets_feed`, `sensors_scan`, `sensors_scan_amax`,
//! `sensors_live_amax` (see `perfbench/README.md`). One client thread runs
//! a closed loop against a one-node, two-partition cluster. Inputs come
//! from `--seed`; the measured window is sized by `--seconds`. Every
//! answer is checked against a model of the generated inputs outside the
//! timed sections. With `--trace 0` the last stdout line is a JSON object
//! with the end-to-end metrics; with `--trace 1` it holds the per-layer
//! metrics of a traced run, whose spans are written under
//! `perfbench/traces/`. Exits non-zero on bad arguments or any failed or
//! wrong operation.

mod common;
mod host;
mod replay;
mod sensors;
mod stats;
mod trace;
mod tweets;

use common::{OpCounters, Outcome, Samples, Totals};
use stats::{median, ratio, tail};
use trace::Tracer;

const WORKLOADS: [&str; 4] =
    ["tweets_feed", "sensors_scan", "sensors_scan_amax", "sensors_live_amax"];

/// What one workload run measured, before it is reduced to metrics.
#[derive(Default)]
pub struct RunResult {
    pub samples: Samples,
    pub outcome: Outcome,
    /// Primary-index bytes after a final full merge per ADM byte of the
    /// live records (the Fig 16 measure).
    pub disk_per_user: f64,
    /// Wall time of the measured window.
    pub window_s: f64,
    /// Traced runs only: the same window run untraced, for the overhead.
    pub untraced_window_s: f64,
    pub totals: Totals,
    pub opc: OpCounters,
    /// ADM bytes written within the traced scope.
    pub traced_user_bytes: usize,
    pub replay: Vec<(&'static str, f64, &'static str)>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value.parse::<f64>().map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric { name: name.to_string(), value, unit, note }
}

/// Median and tail of a latency sample, with its size and percentile.
fn latency(out: &mut Vec<Metric>, prefix: &str, unit: &'static str, v: &[f64], p50: bool) {
    let (p, t) = tail(v).unwrap_or_else(|| panic!("{prefix}: {} samples support no tail", v.len()));
    if p50 {
        out.push(metric(&format!("{prefix}_p50"), median(v), unit, format!("n={}", v.len())));
    }
    out.push(metric(&format!("{prefix}_tail"), t, unit, format!("p{p} of n={}", v.len())));
}

fn end_to_end(r: &RunResult) -> Vec<Metric> {
    let s = &r.samples;
    let mut m = Vec::new();
    let spread =
        |v: &[f64]| format!("median of {}, IQR {:.1}%", v.len(), 100.0 * stats::relative_spread(v));
    m.push(metric("setup_s", median(&s.setup_s), "s", spread(&s.setup_s)));
    m.push(metric("ingest_rps", median(&s.ingest_rps), "records/s", spread(&s.ingest_rps)));
    if s.upsert_feed_rps.is_empty() {
        let note = format!("1 / median of {} single upserts", s.upsert_us.len());
        m.push(metric("upsert_rps", ratio(1e6, median(&s.upsert_us)), "records/s", note));
    } else {
        m.push(metric(
            "upsert_rps",
            median(&s.upsert_feed_rps),
            "records/s",
            spread(&s.upsert_feed_rps),
        ));
    }
    latency(&mut m, "write_us", "us", &s.write_us, true);
    // The mix's throughput from each query's median latency, weighted by
    // how often it ran: it moves when any query of the mix gets faster,
    // and one slow outlier does not move it.
    let analytic: Vec<f64> = s.analytic_ms.values().flatten().copied().collect();
    let mix_s: f64 = s.analytic_ms.values().map(|v| median(v) * v.len() as f64).sum::<f64>() / 1e3;
    let note = format!("n={} over {} queries", analytic.len(), s.analytic_ms.len());
    m.push(metric("analytic_qps", ratio(analytic.len() as f64, mix_s), "1/s", note));
    latency(&mut m, "analytic_ms", "ms", &analytic, false);
    latency(&mut m, "selective_ms", "ms", &s.selective_ms, true);
    latency(&mut m, "get_us", "us", &s.get_us, true);
    m.push(metric("disk_bytes_per_user_byte", r.disk_per_user, "ratio", String::new()));
    m.push(metric(
        "written_bytes_per_user_byte",
        median(&s.written_per_user),
        "ratio",
        spread(&s.written_per_user),
    ));
    m.push(metric("peak_rss_mb", common::peak_rss_mb(), "MB", "VmHWM".to_string()));
    // Times and rates as on the reference host (see `host`): set-up time
    // by the probes taken between set-ups (the host's speed moves within
    // seconds), everything else by those taken between rounds.
    for x in &mut m {
        if host::speed_exponent(x.unit) != 0 {
            let probes = if x.name == "setup_s" { &s.setup_probe_ms } else { &s.probe_ms };
            x.note = format!("raw {:.4}; {}", x.value, x.note);
            x.value = host::to_reference(x.value, x.unit, median(probes));
        }
    }
    m
}

fn per_layer(r: &RunResult, tr: &Tracer) -> Vec<Metric> {
    let (t, o) = (&r.totals, &r.opc);
    let ms = |ns: u64| ns as f64 / 1e6;
    let names = tr.by_name();
    let span_ms = |name: &str| ms(names.get(name).map_or(0, |e| e.1));
    let layers = tr.by_layer();
    let layer_ms = |layer: &str| ms(layers.get(layer).map_or(0, |l| l.0));
    let per_user = |bytes: u64| ratio(bytes as f64, r.traced_user_bytes as f64);
    let per_query = |n: u64| ratio(n as f64, o.queries as f64);

    let mut m = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.push(metric(name, value, unit, String::new()))
    };
    put("adm.parse_ms", span_ms("adm.parse"), "ms");
    put("cluster.busy_ms", layer_ms("cluster"), "ms");
    put("core.busy_ms", layer_ms("core"), "ms");
    put("query.busy_ms", layer_ms("query"), "ms");
    put("core.drain_ms", span_ms("core.await_quiescent"), "ms");
    put("core.writer_stall_ms", ms(t.writer_stall_ns), "ms");
    put("lsm.flushes", t.flushes as f64, "count");
    put("lsm.merges", t.merges as f64, "count");
    for trig in tc_lsm::policy::MergeTrigger::ALL {
        let n = t.merges_by_trigger[trig as usize];
        put(&format!("lsm.merges.{}", trig.label()), n as f64, "count");
    }
    put("lsm.bytes_flushed_per_user_byte", per_user(t.bytes_flushed), "ratio");
    put("lsm.bytes_merged_per_user_byte", per_user(t.bytes_merged), "ratio");
    put("lsm.components_per_query", per_query(o.components_at_query), "count");
    put("storage.bytes_read_per_query", per_query(o.query_bytes_read), "bytes");
    put("storage.read_ops_per_get", ratio(o.get_read_ops as f64, o.gets as f64), "count");
    put("storage.bytes_written", t.bytes_written as f64, "bytes");
    put("storage.write_ops", t.write_ops as f64, "count");
    let lookups = (t.cache_hits + t.cache_misses) as f64;
    put("storage.cache_hit_ratio", ratio(t.cache_hits as f64, lookups), "ratio");
    put("storage.model_io_ms", ms(t.model_io_ns), "ms");
    put("columnar.pages_written", t.columnar_pages_written as f64, "count");
    put("columnar.pages_skipped_by_stats", t.pages_skipped_by_stats as f64, "count");
    put("columnar.columns_faulted_in_per_query", per_query(t.columns_faulted_in), "count");
    let typed = ratio(t.typed_filter_rows as f64, o.rows_scanned as f64);
    put("columnar.typed_filter_fraction", typed, "ratio");
    put("columnar.at_rest_fraction", per_query(o.at_rest_queries), "ratio");
    put("query.rows_scanned_per_query", per_query(o.rows_scanned), "count");
    let examined = ratio(o.rows_scanned as f64, o.rows_out as f64);
    put("query.rows_examined_per_row_out", examined, "ratio");
    put("query.bytes_scanned_per_query", per_query(o.bytes_scanned), "bytes");
    for &(name, value, unit) in &r.replay {
        put(name, value, unit);
    }
    put("trace.overhead_pct", 100.0 * (ratio(r.window_s, r.untraced_window_s) - 1.0), "%");
    m
}

/// Numbers the traced run reports beside its JSON metrics: every layer's
/// busy and self time, and the layer times that are zero on some
/// workloads.
fn print_layer_times(r: &RunResult, tr: &Tracer) {
    println!("{:<28} {:>12} {:>12} {:>10}", "span", "busy_ms", "self_ms", "count");
    for (name, (count, busy, self_ns)) in tr.by_name() {
        println!(
            "{name:<28} {:>12.3} {:>12.3} {count:>10}",
            busy as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
    for (layer, (busy, self_ns)) in tr.by_layer() {
        println!("layer {layer:<22} {:>12.3} {:>12.3}", busy as f64 / 1e6, self_ns as f64 / 1e6);
    }
    let feed = tr.by_name().get("cluster.feed").map_or(0, |e| e.1);
    println!("cluster.feed_ms = {:.3} ms", feed as f64 / 1e6);
    println!("core.backpressure_ms = {:.3} ms", r.totals.backpressure_ns as f64 / 1e6);
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tr = Tracer::new(args.trace);
    let r = match args.workload.as_str() {
        "tweets_feed" => tweets::run(args.seed, args.seconds, &mut tr),
        name => sensors::run(name, args.seed, args.seconds, &mut tr),
    };

    let metrics = if args.trace {
        print_layer_times(&r, &tr);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match tr.write_jsonl(&path) {
            Ok(()) => println!("spans: {} written to {}", tr.spans().len(), path.display()),
            Err(e) => {
                eprintln!("perfbench: writing spans to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
        per_layer(&r, &tr)
    } else {
        end_to_end(&r)
    };

    let o = &r.outcome;
    if !args.trace {
        let p = &r.samples.setup_probe_ms;
        let note = format!(
            "median of {}; setup_s above scaled by {:.4}",
            p.len(),
            host::REFERENCE_MS / median(p)
        );
        println!("{:<40} {:>16.4} {:<10} {note}", "host_probe_ms_setup", median(p), "ms");
        let p = &r.samples.probe_ms;
        let note = format!(
            "median of {}; other times above scaled by {:.4}",
            p.len(),
            host::REFERENCE_MS / median(p)
        );
        println!("{:<40} {:>16.4} {:<10} {note}", "host_probe_ms", median(p), "ms");
    }
    for f in &o.first_failures {
        println!("FAILED: {f}");
    }
    for m in &metrics {
        println!("{:<40} {:>16.4} {:<10} {}", m.name, m.value, m.unit, m.note);
    }
    println!(
        "{:<40} {:>16.6} {:<10} {} failed of {} attempted",
        "failed_ops_ratio",
        ratio(o.failed as f64, o.attempted as f64),
        "ratio",
        o.failed,
        o.attempted
    );
    let correct = o.failed == 0 && o.attempted > 0 && metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted.max(1),
        o.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_datagen::Generator;

    /// The quoted `"name": "..."` values of one section of BENCHMARK.json.
    fn names_in(section: &str) -> Vec<String> {
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().expect("closing quote").to_string())
            .collect()
    }

    #[test]
    fn reports_exactly_the_metrics_benchmark_json_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let (head, per_layer_part) = json.split_once("\"per_layer\"").expect("per_layer");
        let (head, e2e_part) = head.split_once("\"end_to_end\"").expect("end_to_end");
        let (_, workloads_part) = head.split_once("\"workloads\"").expect("workloads");
        assert_eq!(names_in(workloads_part), WORKLOADS);

        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        let mut r = RunResult::default();
        for v in [
            &mut r.samples.setup_s,
            &mut r.samples.ingest_rps,
            &mut r.samples.upsert_us,
            &mut r.samples.write_us,
            &mut r.samples.get_us,
            &mut r.samples.selective_ms,
            &mut r.samples.written_per_user,
            &mut r.samples.probe_ms,
            &mut r.samples.setup_probe_ms,
        ] {
            v.extend(&samples);
        }
        r.samples.analytic_ms.insert(0, samples.clone());
        let got: Vec<String> = end_to_end(&r).into_iter().map(|m| m.name).collect();
        assert_eq!(got, names_in(e2e_part));

        let mut gen = tc_datagen::sensors::SensorsGen::new(1);
        let records: Vec<tc_adm::Value> = (0..8).map(|_| gen.next_record()).collect();
        let cfg = tuple_compactor::DatasetConfig::new("Sensors", "id");
        let paths = [tc_adm::path::parse_path("sensor_id")];
        r.replay = replay::run(&cfg, records.iter(), &paths);
        let got: Vec<String> =
            per_layer(&r, &Tracer::new(true)).into_iter().map(|m| m.name).collect();
        assert_eq!(got, names_in(per_layer_part));
    }
}
