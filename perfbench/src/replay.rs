//! Replay stages of the traced run: after the timed sequence, each layer's
//! kernel runs alone over the workload's own records, through the same
//! public functions the write and read paths call, so its throughput can
//! be read without the rest of the stack around it.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tc_adm::path::Path;
use tc_adm::{parse, to_string, Value};
use tc_columnar::AmaxCodec;
use tc_compress::{snappy, CompressionScheme};
use tc_lsm::bloom::BloomFilter;
use tc_lsm::entry::encode_i64_key;
use tc_lsm::{ColumnarCodec, EntryKind};
use tc_schema::Schema;
use tc_storage::device::{Device, DeviceProfile};
use tc_storage::{BufferCache, PageStore};
use tc_vector::BatchPathEvaluator;
use tuple_compactor::DatasetConfig;

use crate::common::pk;

/// Each stage repeats over its input until at least this much time passed.
const MIN_STAGE: Duration = Duration::from_millis(60);
const PAGE_BYTES: usize = 32 * 1024;

/// Run `pass` until [`MIN_STAGE`] elapsed; MB/s over `bytes` per pass.
fn mb_s(bytes: usize, mut pass: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut passes = 0usize;
    while passes == 0 || t.elapsed() < MIN_STAGE {
        pass();
        passes += 1;
    }
    (bytes * passes) as f64 / 1e6 / t.elapsed().as_secs_f64()
}

/// (metric name, value, unit) for every replayed stage.
pub fn run<'a>(
    cfg: &DatasetConfig,
    records: impl Iterator<Item = &'a Value>,
    paths: &[Path],
) -> Vec<(&'static str, f64, &'static str)> {
    let mut records: Vec<&Value> = records.collect();
    records.sort_by_key(|v| pk(v));
    let declared = Some(&cfg.datatype);
    let mut out = Vec::new();

    let texts: Vec<String> = records.iter().map(|v| to_string(v)).collect();
    let text_bytes = texts.iter().map(String::len).sum();
    out.push((
        "adm.parse_mb_s",
        mb_s(text_bytes, || {
            for t in &texts {
                black_box(parse(t).expect("rendered records parse"));
            }
        }),
        "MB/s",
    ));

    let encoded: Vec<Vec<u8>> = records.iter().map(|v| tc_vector::encode(v, declared)).collect();
    let encoded_bytes = encoded.iter().map(Vec::len).sum();
    out.push((
        "vector.encode_mb_s",
        mb_s(encoded_bytes, || {
            for v in &records {
                black_box(tc_vector::encode(v, declared));
            }
        }),
        "MB/s",
    ));

    let compact = |schema: &mut Schema| -> Vec<Vec<u8>> {
        encoded
            .iter()
            .map(|e| tc_vector::infer_and_compact(e, schema).expect("fresh records compact"))
            .collect()
    };
    out.push((
        "schema.infer_compact_mb_s",
        mb_s(encoded_bytes, || {
            black_box(compact(&mut Schema::new()));
        }),
        "MB/s",
    ));
    let mut schema = Schema::new();
    let compacted = compact(&mut schema);
    let compacted_bytes = compacted.iter().map(Vec::len).sum();
    let dict = Some(schema.dict());

    out.push((
        "vector.decode_mb_s",
        mb_s(compacted_bytes, || {
            for c in &compacted {
                black_box(tc_vector::decode(c, declared, dict).expect("compacted records decode"));
            }
        }),
        "MB/s",
    ));

    let mut eval = BatchPathEvaluator::new(paths);
    let mut columns: Vec<Vec<Value>> = vec![Vec::new(); eval.width()];
    out.push((
        "vector.batch_eval_mb_s",
        mb_s(compacted_bytes, || {
            columns.iter_mut().for_each(Vec::clear);
            for c in &compacted {
                eval.eval_into(c, declared, dict, &mut columns).expect("paths evaluate");
            }
            black_box(&columns);
        }),
        "MB/s",
    ));

    // The records packed into pages, as a component stores them.
    let mut pages: Vec<Vec<u8>> = vec![Vec::new()];
    for c in &compacted {
        if pages.last().is_some_and(|p| p.len() + c.len() > PAGE_BYTES) {
            pages.push(Vec::new());
        }
        pages.last_mut().expect("non-empty").extend_from_slice(c);
    }
    let compressed: Vec<Vec<u8>> = pages.iter().map(|p| snappy::compress(p)).collect();
    out.push((
        "compress.snappy_compress_mb_s",
        mb_s(compacted_bytes, || {
            for p in &pages {
                black_box(snappy::compress(p));
            }
        }),
        "MB/s",
    ));
    out.push((
        "compress.snappy_decompress_mb_s",
        mb_s(compacted_bytes, || {
            for p in &compressed {
                black_box(snappy::decompress(p).expect("own output decompresses"));
            }
        }),
        "MB/s",
    ));
    out.push((
        "util.crc32c_mb_s",
        mb_s(compacted_bytes, || {
            for p in &pages {
                black_box(tc_util::crc::crc32(p));
            }
        }),
        "MB/s",
    ));

    // Bloom probes: every stored key plus as many absent ones.
    let keys: Vec<Vec<u8>> = records.iter().map(|v| encode_i64_key(pk(v))).collect();
    let mut bloom = BloomFilter::with_capacity(keys.len(), cfg.bloom_bits_per_key);
    keys.iter().for_each(|k| bloom.insert(k));
    let absent: Vec<Vec<u8>> = records.iter().map(|v| encode_i64_key(-1 - pk(v))).collect();
    let t = Instant::now();
    let mut probes = 0usize;
    while probes == 0 || t.elapsed() < MIN_STAGE {
        for k in keys.iter().chain(&absent) {
            black_box(bloom.contains(k));
        }
        probes += 2 * keys.len();
    }
    out.push(("lsm.bloom_probe_ns", t.elapsed().as_nanos() as f64 / probes as f64, "ns"));

    // Columnar shred and reconstruct, on a RAM device so only CPU counts.
    let entries: Vec<(Vec<u8>, EntryKind, Vec<u8>)> = keys
        .iter()
        .zip(&compacted)
        .map(|(k, c)| (k.clone(), EntryKind::Record, c.clone()))
        .collect();
    let blob = schema.serialize();
    let codec = AmaxCodec::new(cfg.datatype.clone());
    let store = || {
        PageStore::new(
            Arc::new(Device::new(DeviceProfile::RAM)),
            cfg.page_size,
            CompressionScheme::None,
        )
    };
    out.push((
        "columnar.shred_mb_s",
        mb_s(compacted_bytes, || {
            black_box(codec.build_chunk(&store(), &entries, Some(&blob)).expect("shred"));
        }),
        "MB/s",
    ));
    let pages_store = store();
    let chunk = codec.build_chunk(&pages_store, &entries, Some(&blob)).expect("shred");
    let cache = BufferCache::with_budget(1 << 30, cfg.page_size);
    out.push((
        "columnar.reconstruct_mb_s",
        mb_s(compacted_bytes, || {
            for g in 0..chunk.num_groups() {
                black_box(chunk.read_group_rows(&pages_store, &cache, g).expect("reconstruct"));
            }
        }),
        "MB/s",
    ));
    out
}
