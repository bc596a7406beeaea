//! The batched scan pipeline: scan → filter → project over batches of
//! records, pulled from a `BatchSource`.
//!
//! `BatchScanner` is the only filter/materialize/`LIMIT` loop. Per batch:
//!
//! 1. **Filter** — the predicate is split at top-level `AND`s and each
//!    conjunct refines a selection vector. Conjuncts of the shape
//!    `col <op> const` over a column the source can show as homogeneous
//!    `Int64`/`Double` run as tight typed loops; everything else is
//!    evaluated over a reused scratch row holding only the columns the
//!    leftovers read.
//! 2. **Materialize** — the remaining output columns are gathered for
//!    selection-vector survivors only, and rows are assembled by *moving*
//!    values out of the column buffers.
//! 3. **Stop early** — a `LIMIT` hint (when the plan allows one — see
//!    [`crate::exec`]) ends the pull loop once enough rows survive; with no
//!    scan filter it caps the pull itself, so `LIMIT 0` pulls nothing.
//!
//! Two sources feed it: `DecodedSource` decodes a partition's merged
//! snapshot scan, and `crate::columnar::AmaxSource` reads one at-rest
//! amax component's column pages. Both count `rows_scanned` as records
//! pulled, at batch granularity.

use std::mem;

use tc_adm::path::Path;
use tc_adm::{AdmError, Value};
use tc_columnar::DEF_PRESENT;
use tc_lsm::iter::MergedScan;
use tuple_compactor::{PathBatch, RecordDecoder};

use crate::exec::Row;
use crate::expr::{CmpOp, Expr};
use crate::plan::{AccessStrategy, ScanSpec};

/// Records per scan batch (the batched engine's unit of work).
pub const DEFAULT_BATCH_SIZE: usize = 4096;

/// Where a `BatchScanner` pulls records from. The current batch's rows
/// are numbered `0..n`; columns are numbered like a scan row (early paths,
/// then late paths).
pub(crate) trait BatchSource {
    type Error;

    /// Move to the next batch of at most `want` (≥ 1) records and return
    /// its length; 0 once the source is exhausted.
    fn next_batch(&mut self, want: usize) -> Result<usize, Self::Error>;

    /// Early column `col` of the current batch as a typed loop can read
    /// it, or `None` when the source has no such view.
    fn typed(&mut self, col: usize) -> Result<Option<TypedColumn<'_>>, Self::Error>;

    /// A typed loop just refined `rows` selected rows of the batch.
    fn note_typed_rows(&self, _rows: usize) {}

    /// Append column `c`'s values at rows `sel` to `out[c]`, for each `c`
    /// in `cols`. Each column is gathered at most once per batch, so a
    /// source may move values out of its buffers.
    fn gather(
        &mut self,
        cols: &[usize],
        sel: &[u32],
        out: &mut [Vec<Value>],
    ) -> Result<(), Self::Error>;
}

/// A batch column as a typed conjunct's loop reads it.
pub(crate) enum TypedColumn<'a> {
    /// Decoded values, one per row. The loop runs only when every selected
    /// value has the constant's type.
    Values(&'a [Value]),
    /// Primitive values with per-row definition levels; a row without a
    /// present value never passes.
    I64 {
        def: &'a [u8],
        vals: &'a [i64],
    },
    F64 {
        def: &'a [u8],
        vals: &'a [f64],
    },
}

/// Per-partition scan state — conjuncts, the selection vector and column
/// buffers — reused across batches and across sources.
pub(crate) struct BatchScanner<'a> {
    /// Filter conjuncts (empty when the scan has no filter).
    conjuncts: Vec<&'a Expr>,
    /// Early columns, the only ones a filter may read.
    early: usize,
    sel: Vec<u32>,
    /// One buffer per output column, aligned with `sel` once gathered.
    cols: Vec<Vec<Value>>,
    /// Row image for generic conjuncts; only the columns they read are set.
    scratch: Vec<Value>,
}

impl<'a> BatchScanner<'a> {
    pub(crate) fn new(scan: &'a ScanSpec) -> BatchScanner<'a> {
        BatchScanner {
            conjuncts: scan.filter.as_ref().map(split_conjuncts).unwrap_or_default(),
            early: scan.paths.len(),
            sel: Vec::new(),
            cols: vec![Vec::new(); scan.width()],
            scratch: vec![Value::Missing; scan.paths.len()],
        }
    }

    /// Run the scan over `src`. Returns the surviving rows, at most `limit`.
    pub(crate) fn run<S: BatchSource>(
        &mut self,
        src: &mut S,
        limit: Option<usize>,
        batch_size: usize,
    ) -> Result<Vec<Row>, S::Error> {
        let mut rows: Vec<Row> = Vec::new();
        loop {
            let room = limit.map_or(usize::MAX, |k| k.saturating_sub(rows.len()));
            if room == 0 {
                break;
            }
            // With no scan filter every pulled record survives, so a LIMIT
            // caps the pull itself; with a filter we can only cap post-filter.
            let want = if self.conjuncts.is_empty() { room } else { usize::MAX };
            let n = src.next_batch(batch_size.max(1).min(want))?;
            if n == 0 {
                break;
            }
            self.process(src, n, &mut rows)?;
        }
        if let Some(k) = limit {
            rows.truncate(k);
        }
        Ok(rows)
    }

    fn process<S: BatchSource>(
        &mut self,
        src: &mut S,
        n: usize,
        rows: &mut Vec<Row>,
    ) -> Result<(), S::Error> {
        self.sel.clear();
        self.sel.extend(0..n as u32);
        for col in &mut self.cols {
            col.clear();
        }

        // ---- typed conjuncts first: they prune cheapest ----
        let mut generic: Vec<&Expr> = Vec::new();
        for &conjunct in &self.conjuncts {
            if self.sel.is_empty() {
                return Ok(());
            }
            let before = self.sel.len();
            let refined = match typed_cmp_on(conjunct) {
                Some((col, op, konst)) if col < self.early => {
                    src.typed(col)?.is_some_and(|view| refine_typed(&mut self.sel, view, op, konst))
                }
                _ => false,
            };
            if refined {
                src.note_typed_rows(before);
            } else {
                generic.push(conjunct);
            }
        }
        if self.sel.is_empty() {
            return Ok(());
        }

        // ---- generic leftovers over the scratch row ----
        let mut read: Vec<usize> = generic.iter().flat_map(|c| c.referenced_cols()).collect();
        read.retain(|&c| c < self.early);
        read.sort_unstable();
        read.dedup();
        if !generic.is_empty() {
            src.gather(&read, &self.sel, &mut self.cols)?;
            // Each value is swapped into the scratch row and back, never
            // cloned; survivors are compacted to the front in place.
            let mut keep = 0;
            for pos in 0..self.sel.len() {
                for &c in &read {
                    mem::swap(&mut self.scratch[c], &mut self.cols[c][pos]);
                }
                let pass = generic.iter().all(|e| e.eval_bool(&self.scratch));
                for &c in &read {
                    mem::swap(&mut self.scratch[c], &mut self.cols[c][pos]);
                    if pass {
                        self.cols[c].swap(keep, pos);
                    }
                }
                if pass {
                    self.sel[keep] = self.sel[pos];
                    keep += 1;
                }
            }
            self.sel.truncate(keep);
            for &c in &read {
                self.cols[c].truncate(keep);
            }
        }

        // ---- materialize survivors ----
        let rest: Vec<usize> = (0..self.cols.len()).filter(|c| !read.contains(c)).collect();
        src.gather(&rest, &self.sel, &mut self.cols)?;
        let cols = &mut self.cols;
        rows.extend((0..self.sel.len()).map(|pos| -> Row {
            cols.iter_mut().map(|col| mem::replace(&mut col[pos], Value::Missing)).collect()
        }));
        Ok(())
    }
}

/// Which buffer group a decoded column lives in.
#[derive(Clone, Copy)]
enum Group {
    /// Decoded for every record in the batch (filter inputs).
    Eager,
    /// Decoded only for selection-vector survivors.
    Lazy,
}

/// Records pulled from a partition's merged snapshot scan and decoded with
/// the plan's [`AccessStrategy`]. The early columns the filter reads are
/// decoded for the whole batch; everything else waits for the selection
/// vector.
pub(crate) struct DecodedSource<'s> {
    iter: &'s mut MergedScan,
    payloads: Vec<Vec<u8>>,
    eager: ColumnSet,
    lazy: ColumnSet,
    /// Whether `lazy` holds the current batch's survivors.
    lazy_ready: bool,
    /// Output column → (group, slot within the group), in row order.
    slots: Vec<(Group, usize)>,
    /// Records pulled and their stored bytes.
    pub(crate) scanned: u64,
    pub(crate) bytes: u64,
}

impl<'s> DecodedSource<'s> {
    pub(crate) fn new(
        decoder: &RecordDecoder,
        iter: &'s mut MergedScan,
        scan: &ScanSpec,
    ) -> DecodedSource<'s> {
        let early = scan.paths.len();
        let eager_early: Vec<usize> = match &scan.filter {
            Some(pred) => pred.referenced_cols().into_iter().filter(|&c| c < early).collect(),
            None => (0..early).collect(),
        };
        let mut slots: Vec<(Group, usize)> = Vec::with_capacity(scan.width());
        let mut lazy_paths: Vec<Path> = Vec::new();
        for (i, p) in scan.paths.iter().chain(&scan.late_paths).enumerate() {
            match eager_early.iter().position(|&c| c == i) {
                Some(slot) => slots.push((Group::Eager, slot)),
                None => {
                    slots.push((Group::Lazy, lazy_paths.len()));
                    lazy_paths.push(p.clone());
                }
            }
        }
        let eager_paths: Vec<Path> = eager_early.iter().map(|&c| scan.paths[c].clone()).collect();
        DecodedSource {
            iter,
            payloads: Vec::new(),
            eager: ColumnSet::new(decoder, &eager_paths, scan.access),
            lazy: ColumnSet::new(decoder, &lazy_paths, scan.access),
            lazy_ready: false,
            slots,
            scanned: 0,
            bytes: 0,
        }
    }
}

impl BatchSource for DecodedSource<'_> {
    type Error = AdmError;

    fn next_batch(&mut self, want: usize) -> Result<usize, AdmError> {
        self.payloads.clear();
        while self.payloads.len() < want {
            let Some((_, _, payload)) = self.iter.next() else { break };
            self.scanned += 1;
            self.bytes += payload.len() as u64;
            self.payloads.push(payload);
        }
        self.eager.clear();
        self.lazy.clear();
        self.lazy_ready = false;
        for p in &self.payloads {
            self.eager.append(p)?;
        }
        Ok(self.payloads.len())
    }

    fn typed(&mut self, col: usize) -> Result<Option<TypedColumn<'_>>, AdmError> {
        Ok(match self.slots[col] {
            (Group::Eager, slot) => Some(TypedColumn::Values(&self.eager.cols[slot])),
            (Group::Lazy, _) => None,
        })
    }

    fn gather(
        &mut self,
        cols: &[usize],
        sel: &[u32],
        out: &mut [Vec<Value>],
    ) -> Result<(), AdmError> {
        for &c in cols {
            let (group, slot) = self.slots[c];
            let buf = match group {
                Group::Eager => &mut self.eager.cols[slot],
                Group::Lazy => {
                    if !self.lazy_ready {
                        for &r in sel {
                            self.lazy.append(&self.payloads[r as usize])?;
                        }
                        self.lazy_ready = true;
                    }
                    &mut self.lazy.cols[slot]
                }
            };
            // Lazy buffers hold survivors only, and a selection as long as
            // an eager buffer is all of it: either way the whole buffer goes.
            if buf.len() == sel.len() {
                mem::swap(&mut out[c], buf);
            } else {
                out[c].extend(
                    sel.iter().map(|&r| mem::replace(&mut buf[r as usize], Value::Missing)),
                );
            }
        }
        Ok(())
    }
}

/// A group of columns decoded together, honoring the plan's
/// [`AccessStrategy`]: consolidated = one `getValues` drive per record,
/// per-path = one drive per path (the Fig 23 "un-op" configuration).
struct ColumnSet {
    parts: Vec<PathBatch>,
    cols: Vec<Vec<Value>>,
}

impl ColumnSet {
    fn new(decoder: &RecordDecoder, paths: &[Path], access: AccessStrategy) -> ColumnSet {
        let per_part = match access {
            AccessStrategy::Consolidated => paths.len().max(1),
            AccessStrategy::PerPath => 1,
        };
        let parts = paths.chunks(per_part).map(|part| decoder.batch(part)).collect();
        ColumnSet { parts, cols: vec![Vec::new(); paths.len()] }
    }

    fn clear(&mut self) {
        for c in &mut self.cols {
            c.clear();
        }
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), AdmError> {
        let mut cols = self.cols.as_mut_slice();
        for part in &mut self.parts {
            let (head, rest) = cols.split_at_mut(part.width());
            part.append(bytes, head)?;
            cols = rest;
        }
        Ok(())
    }
}

/// Split a predicate at top-level `AND`s.
pub(crate) fn split_conjuncts(pred: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn rec<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
        match e {
            Expr::And(a, b) => {
                rec(a, out);
                rec(b, out);
            }
            _ => out.push(e),
        }
    }
    rec(pred, &mut out);
    out
}

/// Recognize `col <op> const` (either orientation). Returns the scan
/// column index, the op normalized to column-on-the-left, and the
/// constant.
pub(crate) fn typed_cmp_on(conjunct: &Expr) -> Option<(usize, CmpOp, &Value)> {
    let Expr::Cmp { op, lhs, rhs } = conjunct else {
        return None;
    };
    match (lhs.as_ref(), rhs.as_ref()) {
        (Expr::Col(i), Expr::Const(c)) => Some((*i, *op, c)),
        (Expr::Const(c), Expr::Col(i)) => Some((*i, flip(*op), c)),
        _ => None,
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Ne => op,
    }
}

/// Typed fast path: an `Int64` (or non-NaN `Double`) column against a
/// same-typed constant runs as a primitive comparison loop. Returns false,
/// leaving `sel` untouched, when the column or constant isn't uniformly
/// typed — the caller falls back to generic evaluation, preserving SQL++
/// mixed-type semantics exactly.
fn refine_typed(sel: &mut Vec<u32>, col: TypedColumn<'_>, op: CmpOp, konst: &Value) -> bool {
    match (col, konst) {
        (TypedColumn::Values(col), &Value::Int64(k)) => {
            if !sel.iter().all(|&r| matches!(col[r as usize], Value::Int64(_))) {
                return false;
            }
            sel.retain(|&r| matches!(col[r as usize], Value::Int64(x) if cmp_prim(op, x, k)));
        }
        (TypedColumn::Values(col), &Value::Double(k)) if !k.is_nan() => {
            if !sel.iter().all(|&r| matches!(col[r as usize], Value::Double(x) if !x.is_nan())) {
                return false;
            }
            sel.retain(|&r| matches!(col[r as usize], Value::Double(x) if cmp_prim(op, x, k)));
        }
        (TypedColumn::I64 { def, vals }, &Value::Int64(k)) => {
            sel.retain(|&r| def[r as usize] == DEF_PRESENT && cmp_prim(op, vals[r as usize], k));
        }
        (TypedColumn::F64 { def, vals }, &Value::Double(k)) if !k.is_nan() => {
            // A NaN value breaks primitive comparison semantics.
            if sel.iter().any(|&r| def[r as usize] == DEF_PRESENT && vals[r as usize].is_nan()) {
                return false;
            }
            sel.retain(|&r| def[r as usize] == DEF_PRESENT && cmp_prim(op, vals[r as usize], k));
        }
        _ => return false,
    }
    true
}

fn cmp_prim<T: PartialOrd>(op: CmpOp, x: T, k: T) -> bool {
    match op {
        CmpOp::Eq => x == k,
        CmpOp::Ne => x != k,
        CmpOp::Lt => x < k,
        CmpOp::Le => x <= k,
        CmpOp::Gt => x > k,
        CmpOp::Ge => x >= k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunct_split_is_top_level_only() {
        let e = Expr::and(
            Expr::eq(Expr::col(0), Expr::lit(1i64)),
            Expr::and(
                Expr::Or(
                    Box::new(Expr::eq(Expr::col(1), Expr::lit(2i64))),
                    Box::new(Expr::eq(Expr::col(2), Expr::lit(3i64))),
                ),
                Expr::eq(Expr::col(3), Expr::lit(4i64)),
            ),
        );
        assert_eq!(split_conjuncts(&e).len(), 3);
    }

    #[test]
    fn typed_refine_matches_expr_semantics() {
        let col = vec![Value::Int64(1), Value::Int64(5), Value::Int64(9)];
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let mut sel: Vec<u32> = (0..col.len() as u32).collect();
            assert!(refine_typed(&mut sel, TypedColumn::Values(&col), op, &Value::Int64(5)));
            let pred = Expr::cmp(op, Expr::col(0), Expr::lit(5i64));
            let expected: Vec<u32> = (0..col.len() as u32)
                .filter(|&r| pred.eval_bool(std::slice::from_ref(&col[r as usize])))
                .collect();
            assert_eq!(sel, expected, "{op:?}");
        }
    }

    #[test]
    fn mixed_typed_column_declines_fast_path() {
        let col = vec![Value::Int64(1), Value::Null, Value::Int64(9)];
        let mut sel: Vec<u32> = vec![0, 1, 2];
        assert!(!refine_typed(&mut sel, TypedColumn::Values(&col), CmpOp::Lt, &Value::Int64(5)));
        assert_eq!(sel, vec![0, 1, 2], "declined refine must not touch sel");
        // But a selection that already excludes the nulls qualifies.
        let mut sel: Vec<u32> = vec![0, 2];
        assert!(refine_typed(&mut sel, TypedColumn::Values(&col), CmpOp::Lt, &Value::Int64(5)));
        assert_eq!(sel, vec![0]);
    }
}
