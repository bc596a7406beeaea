//! The amax batch source: zero-pivot reads of one at-rest columnar
//! component.
//!
//! When a partition rests in the AMAX columnar layout (exactly one valid
//! columnar component, nothing in memory — see
//! [`tuple_compactor::Dataset::snapshot_columnar`]), `AmaxSource` feeds
//! the `BatchScanner` one row group per batch, straight from the column
//! pages. Typed columns show their primitive buffers to the scanner's typed
//! loops, row groups whose min/max stats cannot satisfy a typed conjunct
//! are skipped without reading a data page, columns are faulted in only
//! when the scanner asks, and the residual column is decoded only for the
//! rows the scanner gathers. No record is pivoted back into its row form.
//!
//! The source is conservative: any shape it cannot answer *exactly* like
//! the decoded source (whole-record paths, paths crossing a typed column's
//! prefix) declines up front. A group whose typed column recorded type
//! spills shows no typed view, so its conjuncts fall back to generic
//! evaluation and SQL++ mixed-type semantics (`2 == 2.0`) survive schema
//! drift.

use tc_adm::path::{Path, PathStep};
use tc_adm::{AdmError, Value};
use tc_columnar::{ChunkReader, ColumnStats, ColumnValues, DecodedColumn};
use tc_lsm::component::DiskComponent;
use tc_storage::page_store::PageStore;
use tc_storage::{BufferCache, StorageError};
use tuple_compactor::Dataset;

use crate::batch::{split_conjuncts, typed_cmp_on, BatchScanner, BatchSource, TypedColumn};
use crate::exec::Row;
use crate::expr::CmpOp;
use crate::plan::ScanSpec;

/// Where one scan output column comes from.
#[derive(Clone, Copy)]
enum Slot {
    /// A typed column (index into the chunk's column list).
    Typed(usize),
    /// Evaluated against the row's residual record (index into the
    /// residual path list).
    Residual(usize),
}

/// Why an amax scan stopped.
enum ScanFail {
    /// A non-transient storage fault: the component is already
    /// quarantined, and the caller re-runs the scan over the decoded
    /// source, whose health machinery applies the query's corruption
    /// policy.
    Degraded,
    Err(AdmError),
}

/// Run `scanner` over `ds`'s at-rest amax component. `Ok(None)` means "run
/// the decoded source instead": the partition is not at rest, the scan
/// shape is not covered, or a fault mid-scan quarantined the component.
/// Otherwise returns the rows, records pulled and bytes faulted in.
pub(crate) fn scan_at_rest(
    ds: &Dataset,
    scan: &ScanSpec,
    scanner: &mut BatchScanner<'_>,
    limit: Option<usize>,
    batch_size: usize,
) -> Result<Option<(Vec<Row>, u64, u64)>, AdmError> {
    let Some((_, component)) = ds.snapshot_columnar() else {
        return Ok(None);
    };
    let Some(mut src) = AmaxSource::new(ds, &component, scan) else {
        return Ok(None);
    };
    match scanner.run(&mut src, limit, batch_size) {
        Ok(rows) => Ok(Some((rows, src.scanned, src.bytes))),
        Err(ScanFail::Degraded) => Ok(None),
        Err(ScanFail::Err(e)) => Err(e),
    }
}

/// One columnar component read as batches of rows `lo..hi` of row group
/// `g`; a batch never spans groups.
struct AmaxSource<'a> {
    reader: &'a ChunkReader,
    store: &'a PageStore,
    cache: &'a BufferCache,
    component: &'a DiskComponent,
    /// Output column → where its values live.
    slots: Vec<Slot>,
    residual_paths: Vec<Path>,
    /// `col <op> const` conjuncts over typed early columns, as (typed
    /// column, op, constant): the group-skip rules.
    skips: Vec<(usize, CmpOp, &'a Value)>,
    g: usize,
    lo: usize,
    hi: usize,
    /// The current group's faulted-in blocks.
    cols: Vec<Option<DecodedColumn>>,
    residuals: Option<Vec<Vec<u8>>>,
    /// Records handed out, and bytes faulted in.
    scanned: u64,
    bytes: u64,
}

impl<'a> AmaxSource<'a> {
    /// `None` when the component has no columnar body or the scan reads a
    /// path the layout cannot serve exactly.
    fn new(
        ds: &'a Dataset,
        component: &'a DiskComponent,
        scan: &'a ScanSpec,
    ) -> Option<AmaxSource<'a>> {
        let (chunk, store) = component.columnar_view()?;
        let reader = chunk.as_any().downcast_ref::<ChunkReader>()?;
        let mut slots: Vec<Slot> = Vec::with_capacity(scan.width());
        let mut residual_paths: Vec<Path> = Vec::new();
        for path in scan.paths.iter().chain(&scan.late_paths) {
            match classify(reader, path)? {
                Slot::Residual(_) => {
                    slots.push(Slot::Residual(residual_paths.len()));
                    residual_paths.push(path.clone());
                }
                slot => slots.push(slot),
            }
        }
        let skips = scan
            .filter
            .iter()
            .flat_map(split_conjuncts)
            .filter_map(|conjunct| match typed_cmp_on(conjunct)? {
                (col, op, konst) if col < scan.paths.len() => match slots[col] {
                    Slot::Typed(c) => Some((c, op, konst)),
                    Slot::Residual(_) => None,
                },
                _ => None,
            })
            .collect();
        Some(AmaxSource {
            reader,
            store,
            cache: ds.primary().cache(),
            component,
            slots,
            residual_paths,
            skips,
            g: 0,
            lo: 0,
            hi: 0,
            cols: vec![None; reader.columns().len()],
            residuals: None,
            scanned: 0,
            bytes: 0,
        })
    }

    fn degrade(&self, e: StorageError) -> ScanFail {
        if e.is_transient() {
            ScanFail::Err(AdmError::storage(e.to_string(), true))
        } else {
            self.component.quarantine();
            ScanFail::Degraded
        }
    }

    /// Fault typed column `c` of the current group in (memoized).
    fn column(&mut self, c: usize) -> Result<&DecodedColumn, ScanFail> {
        if self.cols[c].is_none() {
            let col = self
                .reader
                .read_column(self.store, self.cache, self.g, c)
                .map_err(|e| self.degrade(e))?;
            self.bytes += self.reader.groups()[self.g].cols[c].run.bytes as u64;
            self.cols[c] = Some(col);
        }
        Ok(self.cols[c].as_ref().expect("just faulted"))
    }

    /// Evaluate `paths` against group row `r`'s residual record.
    fn residual_values(&mut self, r: usize, paths: &[Path]) -> Result<Vec<Value>, ScanFail> {
        if self.residuals.is_none() {
            let res = self
                .reader
                .read_residual(self.store, self.cache, self.g)
                .map_err(|e| self.degrade(e))?;
            self.bytes += self.reader.groups()[self.g].residual.bytes as u64;
            self.residuals = Some(res);
        }
        let bytes = &self.residuals.as_ref().expect("just faulted")[r];
        tc_vector::get_values(bytes, paths, None, None).map_err(|_| {
            self.component.quarantine();
            ScanFail::Degraded
        })
    }

    /// Group row `r`'s value in typed column `c`, falling back to the
    /// residual when the group recorded spills (the mismatched value lives
    /// there).
    fn typed_value(&mut self, c: usize, r: usize) -> Result<Value, ScanFail> {
        let spilled = self.reader.groups()[self.g].cols[c].spilled;
        let v = self.column(c)?.value_at(r);
        if !matches!(v, Value::Missing) || spilled == 0 {
            return Ok(v);
        }
        let path: Path = self.reader.columns()[c].path.iter().map(PathStep::field).collect();
        Ok(self.residual_values(r, std::slice::from_ref(&path))?.remove(0))
    }
}

impl BatchSource for AmaxSource<'_> {
    type Error = ScanFail;

    fn next_batch(&mut self, want: usize) -> Result<usize, ScanFail> {
        let groups = self.reader.groups();
        loop {
            let Some(gm) = groups.get(self.g) else {
                return Ok(0);
            };
            let rows = gm.rows as usize;
            // Stats-based group skip (Fig 24-style), judged on entry. Sound
            // only for spill-free columns: a spilled value matches under
            // numeric promotion without appearing in the stats.
            let ruled_out = self.hi == 0
                && self.skips.iter().any(|&(c, op, konst)| {
                    gm.cols[c].spilled == 0 && !stats_may_match(&gm.cols[c].stats, op, konst)
                });
            if ruled_out {
                let pages = self.reader.group_pages(self.g, self.store.page_size());
                self.reader.counters().note_pages_skipped(pages);
            } else if self.hi < rows {
                self.lo = self.hi;
                self.hi = rows.min(self.lo + want);
                self.scanned += (self.hi - self.lo) as u64;
                return Ok(self.hi - self.lo);
            }
            self.g += 1;
            self.hi = 0;
            self.cols.iter_mut().for_each(|c| *c = None);
            self.residuals = None;
        }
    }

    fn typed(&mut self, col: usize) -> Result<Option<TypedColumn<'_>>, ScanFail> {
        let Slot::Typed(c) = self.slots[col] else {
            return Ok(None);
        };
        // Spilled values live in the residual with a different type; the
        // primitive loop cannot see them.
        if self.reader.groups()[self.g].cols[c].spilled > 0 {
            return Ok(None);
        }
        let (lo, hi) = (self.lo, self.hi);
        let col = self.column(c)?;
        let def = &col.def[lo..hi];
        Ok(match &col.values {
            ColumnValues::I64(v) => Some(TypedColumn::I64 { def, vals: &v[lo..hi] }),
            ColumnValues::F64(v) => Some(TypedColumn::F64 { def, vals: &v[lo..hi] }),
            _ => None,
        })
    }

    fn note_typed_rows(&self, rows: usize) {
        self.reader.counters().note_typed_filter_rows(rows as u64);
    }

    fn gather(
        &mut self,
        cols: &[usize],
        sel: &[u32],
        out: &mut [Vec<Value>],
    ) -> Result<(), ScanFail> {
        let mut paths: Vec<Path> = Vec::new();
        let mut targets: Vec<usize> = Vec::new();
        for &c in cols {
            match self.slots[c] {
                Slot::Typed(t) => {
                    for &r in sel {
                        let v = self.typed_value(t, self.lo + r as usize)?;
                        out[c].push(v);
                    }
                }
                Slot::Residual(j) => {
                    paths.push(self.residual_paths[j].clone());
                    targets.push(c);
                }
            }
        }
        if !paths.is_empty() {
            for &r in sel {
                let vals = self.residual_values(self.lo + r as usize, &paths)?;
                for (&c, v) in targets.iter().zip(vals) {
                    out[c].push(v);
                }
            }
        }
        Ok(())
    }
}

/// Map a scan path onto its source. `None` = unsupported shape (whole
/// record, or a prefix with typed columns carved out beneath it).
fn classify(reader: &ChunkReader, path: &Path) -> Option<Slot> {
    if path.is_empty() {
        return None; // whole-record access needs full reconstruction
    }
    // The leading run of plain field steps decides where the value lives.
    let mut fields: Vec<String> = Vec::new();
    let mut pure = true;
    for step in path {
        match step {
            PathStep::Field(name) if pure => fields.push(name.clone()),
            _ => {
                pure = false;
                break;
            }
        }
    }
    if pure {
        if let Some(c) = reader.find_column(&fields) {
            return Some(Slot::Typed(c));
        }
    }
    // Residual-safe iff no typed column was carved out at/below the prefix
    // the path enters through — then the residual holds the whole subtree.
    (!reader.has_column_at_or_below(&fields)).then_some(Slot::Residual(0))
}

/// Can any *present* value in the group satisfy `col <op> konst`, judged
/// by the group's min/max stats? Non-present rows never pass a comparison
/// (SQL++ null/missing semantics), so `false` skips the group outright.
/// `ColumnStats::None` is inconclusive — it covers both "no present
/// values" and "stats poisoned by NaN" — so it never skips, and neither
/// does a NaN constant or one of another type.
fn stats_may_match(stats: &ColumnStats, op: CmpOp, konst: &Value) -> bool {
    match (stats, konst) {
        (ColumnStats::Int { min, max }, Value::Int64(k)) => range_may_match(*min, *max, op, *k),
        (ColumnStats::Float { min, max }, Value::Double(k)) if !k.is_nan() => {
            range_may_match(*min, *max, op, *k)
        }
        _ => true,
    }
}

fn range_may_match<T: PartialOrd>(min: T, max: T, op: CmpOp, k: T) -> bool {
    match op {
        CmpOp::Eq => min <= k && k <= max,
        CmpOp::Ne => !(min == k && max == k),
        CmpOp::Lt => min < k,
        CmpOp::Le => min <= k,
        CmpOp::Gt => max > k,
        CmpOp::Ge => max >= k,
    }
}
