//! Lexicographic point enumeration of bounded sets.
//!
//! A [`Scanner`] precomputes, per disjunct and per dimension, the constraint
//! rows that bound that dimension in terms of the parameters and outer
//! dimensions. Enumeration then walks the dimensions like nested loops —
//! exactly the structure a polyhedral code generator emits, which is why the
//! per-level [`LoopBounds`] are public: the `codegen` crate prints them as
//! `for` loop bounds.
//!
//! The per-level bounds are computed with a cheap over-approximating
//! elimination (real-shadow Fourier–Motzkin); every *complete* candidate
//! point is verified with the exact membership test, so enumeration is
//! exact. The over-approximation only costs a few wasted boundary probes.

use crate::bset::BasicSet;
use crate::error::{Error, Result};
use crate::lin;
use crate::set::Set;
use std::collections::BTreeSet;

/// Bounds for one loop level: `max(lowers) <= x <= min(uppers)`.
///
/// Each entry is `(coeff, row)` where `coeff > 0` and `row` spans
/// `[params | dims | const]` with zero coefficients on this dimension and
/// all deeper dimensions:
/// * a lower bound reads `x >= ceil(-eval(row) / coeff)`,
/// * an upper bound reads `x <= floor(eval(row) / coeff)`.
#[derive(Debug, Clone, Default)]
pub struct LoopBounds {
    /// Lower-bound rows.
    pub lowers: Vec<(i64, Vec<i64>)>,
    /// Upper-bound rows.
    pub uppers: Vec<(i64, Vec<i64>)>,
}

/// Alias kept for documentation symmetry with the paper's terminology.
pub type ScanLevel = LoopBounds;

/// One scannable disjunct: bounds per level plus the exact membership
/// checker.
#[derive(Debug, Clone)]
struct Branch {
    levels: Vec<LoopBounds>,
    exact: BasicSet,
}

/// Enumerates the integer points of a bounded [`Set`] for fixed parameter
/// values, in lexicographic order (per disjunct; unions are merged and
/// deduplicated).
#[derive(Debug, Clone)]
pub struct Scanner {
    n_param: usize,
    n_dim: usize,
    param_values: Vec<i64>,
    branches: Vec<Branch>,
}

impl Scanner {
    /// Builds a scanner for `set` with concrete `param_values`.
    ///
    /// # Errors
    /// Returns an error if the number of parameter values is wrong or on
    /// overflow during bound precomputation.
    pub fn new(set: &Set, param_values: &[i64]) -> Result<Self> {
        if param_values.len() != set.space().n_param() {
            return Err(Error::DimOutOfBounds {
                index: param_values.len(),
                len: set.space().n_param(),
            });
        }
        Self::build(set, param_values.to_vec())
    }

    /// Builds a scanner whose per-level [`LoopBounds`] are symbolic in the
    /// parameters (for code generation). Enumeration methods must not be
    /// called on it unless the set has no parameters.
    ///
    /// # Errors
    /// Returns an error on overflow during bound precomputation.
    pub fn symbolic(set: &Set) -> Result<Self> {
        Self::build(set, Vec::new())
    }

    fn build(set: &Set, param_values: Vec<i64>) -> Result<Self> {
        let n_param = set.space().n_param();
        let n_dim = set.space().n_dim();
        let mut branches = Vec::new();
        for b in set.basics() {
            if b.is_empty()? {
                continue;
            }
            branches.push(Branch {
                levels: levels_for(b)?,
                exact: b.clone(),
            });
        }
        Ok(Scanner {
            n_param,
            n_dim,
            param_values,
            branches,
        })
    }

    /// Number of disjunct branches.
    pub fn n_branch(&self) -> usize {
        self.branches.len()
    }

    /// Whether every dimension of every branch has a finite bound in both
    /// directions (possibly in terms of the parameters and outer
    /// dimensions). When this returns `false`, enumeration would fail with
    /// [`Error::Unbounded`]; callers holding extra context (e.g. the
    /// enclosing loop nest of an extension tile) can intersect it in and
    /// retry — the per-level bound derivation picks up any constraint rows
    /// the context contributes.
    pub fn is_bounded(&self) -> bool {
        self.branches.iter().all(|br| {
            br.levels
                .iter()
                .all(|lb| !lb.lowers.is_empty() && !lb.uppers.is_empty())
        })
    }

    /// The per-level loop bounds of branch `i` (outermost first).
    pub fn branch_bounds(&self, i: usize) -> &[LoopBounds] {
        &self.branches[i].levels
    }

    /// The exact basic set of branch `i` — the membership test that makes
    /// enumeration exact. For a branch without existential divs the
    /// per-level bounds are already exact (every original constraint row is
    /// recorded at its deepest dimension, and real-shadow FM only *adds*
    /// implied rows), so consumers compiling the bounds into loops — the
    /// bytecode lowering in `codegen` — need the leaf membership test only
    /// when [`BasicSet::n_div`] is nonzero.
    pub fn branch_exact(&self, i: usize) -> &BasicSet {
        &self.branches[i].exact
    }

    /// Invokes `f` on every point (as `&[i64]` of length `n_dim`) in the
    /// set; `f` returns `false` to stop early. Points from unions are
    /// deduplicated.
    ///
    /// # Errors
    /// Returns [`Error::Unbounded`] if some dimension has no finite bound,
    /// or an overflow error.
    ///
    /// # Panics
    /// Panics if the scanner is symbolic with parameters.
    pub fn for_each(&self, f: &mut dyn FnMut(&[i64]) -> bool) -> Result<()> {
        assert_eq!(
            self.param_values.len(),
            self.n_param,
            "cannot enumerate a symbolic scanner with parameters"
        );
        // `[params…, dims…]` with the parameters filled in.
        let start = || {
            let mut point = vec![0i64; self.n_param + self.n_dim];
            point[..self.n_param].copy_from_slice(&self.param_values);
            point
        };
        if self.branches.len() == 1 {
            self.walk(&self.branches[0], 0, &mut start(), f)?;
            return Ok(());
        }
        // Union: collect + dedup to keep `f` single-visit semantics.
        let mut seen: BTreeSet<Vec<i64>> = BTreeSet::new();
        for br in &self.branches {
            self.walk(br, 0, &mut start(), &mut |p: &[i64]| {
                seen.insert(p.to_vec());
                true
            })?;
        }
        for p in &seen {
            if !f(p) {
                break;
            }
        }
        Ok(())
    }

    /// Counts the points of the set.
    ///
    /// # Errors
    /// See [`Scanner::for_each`].
    pub fn count(&self) -> Result<u64> {
        let mut n = 0u64;
        self.for_each(&mut |_| {
            n += 1;
            true
        })?;
        Ok(n)
    }

    /// Collects all points into a vector (dims only, parameters stripped).
    ///
    /// # Errors
    /// See [`Scanner::for_each`].
    pub fn points(&self) -> Result<Vec<Vec<i64>>> {
        let mut out = Vec::new();
        self.for_each(&mut |p| {
            out.push(p.to_vec());
            true
        })?;
        Ok(out)
    }

    fn walk(
        &self,
        br: &Branch,
        level: usize,
        point: &mut Vec<i64>,
        f: &mut dyn FnMut(&[i64]) -> bool,
    ) -> Result<bool> {
        if level == self.n_dim {
            // `point` is already `[params… , dims…]` — exactly the full
            // coordinate vector the membership test wants.
            if br.exact.contains(point)? {
                return Ok(f(&point[self.n_param..]));
            }
            return Ok(true);
        }
        let lb = &br.levels[level];
        let Some((lo, hi)) = eval_bounds(lb, point, level)? else {
            return Ok(true); // empty range under this prefix
        };
        for v in lo..=hi {
            point[self.n_param + level] = v;
            if !self.walk(br, level + 1, point, f)? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// Evaluates the numeric `[lo, hi]` range of a level given the outer prefix
/// (params + outer dims filled in `point`). Returns `None` for an empty
/// range and `Err(Unbounded)` when a direction has no bound.
pub(crate) fn eval_bounds(
    lb: &LoopBounds,
    point: &[i64],
    level: usize,
) -> Result<Option<(i64, i64)>> {
    if lb.lowers.is_empty() || lb.uppers.is_empty() {
        return Err(Error::Unbounded { dim: level });
    }
    let mut lo = i64::MIN;
    for (a, row) in &lb.lowers {
        let e = eval_prefix(row, point)?;
        lo = lo.max(lin::cdiv(-e, *a));
    }
    let mut hi = i64::MAX;
    for (b, row) in &lb.uppers {
        let e = eval_prefix(row, point)?;
        hi = hi.min(lin::fdiv(e, *b));
    }
    Ok(if lo <= hi { Some((lo, hi)) } else { None })
}

/// Evaluates a row over `[params | dims | const]` at a partially-filled
/// point (unfilled trailing dims are guaranteed zero-coefficient).
fn eval_prefix(row: &[i64], point: &[i64]) -> Result<i64> {
    let mut acc = row[row.len() - 1];
    for (c, v) in row[..row.len() - 1].iter().zip(point.iter()) {
        if *c != 0 {
            acc = lin::add_mul(acc, *c, *v)?;
        }
    }
    // Any nonzero coefficients beyond the filled prefix would be a logic
    // error in level construction.
    debug_assert!(row[point.len()..row.len() - 1].iter().all(|&c| c == 0));
    Ok(acc)
}

/// Computes per-level bounds for one basic set by over-approximating
/// elimination of divs and inner dimensions (real-shadow FM; equalities are
/// treated as inequality pairs for bound extraction).
fn levels_for(b: &BasicSet) -> Result<Vec<LoopBounds>> {
    let n_param = b.space().n_param();
    let n_dim = b.space().n_dim();
    let n_div = b.n_div();
    let width = n_param + n_dim + n_div + 1;
    // Collect all constraints as inequalities.
    let mut rows: Vec<Vec<i64>> = Vec::new();
    for r in b.ineq_rows() {
        rows.push(r.clone());
    }
    for r in b.eq_rows() {
        rows.push(r.clone());
        rows.push(r.iter().map(|&x| -x).collect());
    }
    debug_assert!(rows.iter().all(|r| r.len() == width));
    // Eliminate div columns (innermost first); widths are kept, columns are
    // only zeroed.
    for col in (n_param + n_dim..width - 1).rev() {
        rows = fm_real_shadow(rows, col);
    }
    // Record bounds per dimension, innermost first, eliminating as we go.
    let mut levels = vec![LoopBounds::default(); n_dim];
    for k in (0..n_dim).rev() {
        let col = n_param + k;
        let mut bounds = LoopBounds::default();
        for r in &rows {
            let c = r[col];
            if c == 0 {
                continue;
            }
            // Squeeze to [params | dims | const], zeroing this column.
            let mut row = vec![0i64; n_param + n_dim + 1];
            row[..n_param + n_dim].copy_from_slice(&r[..n_param + n_dim]);
            row[col] = 0;
            row[n_param + n_dim] = r[width - 1];
            if c > 0 {
                bounds.lowers.push((c, row));
            } else {
                bounds.uppers.push((-c, row));
            }
        }
        levels[k] = bounds;
        rows = fm_real_shadow(rows, col);
    }
    Ok(levels)
}

fn fm_real_shadow(rows: Vec<Vec<i64>>, col: usize) -> Vec<Vec<i64>> {
    let mut lowers = Vec::new();
    let mut uppers = Vec::new();
    let mut rest = Vec::new();
    for r in rows {
        if r[col] > 0 {
            lowers.push(r);
        } else if r[col] < 0 {
            uppers.push(r);
        } else {
            rest.push(r);
        }
    }
    if lowers.is_empty() || uppers.is_empty() {
        // Unbounded in one direction: drop all constraints on this column.
        return prune_rows(rest);
    }
    for lo in &lowers {
        let a = lo[col];
        for up in &uppers {
            let bq = -up[col];
            if let Ok(mut row) = lin::row_combine(bq, lo, a, up) {
                row[col] = 0;
                lin::normalize_ineq_row(&mut row);
                rest.push(row);
            }
        }
    }
    prune_rows(rest)
}

/// Deduplicates rows and keeps, per coefficient vector, only the tightest
/// inequality — without this, successive eliminations square the row count
/// (OOM on deep loop nests). Over-approximation is preserved: dropped rows
/// are all implied by the kept one.
fn prune_rows(mut rows: Vec<Vec<i64>>) -> Vec<Vec<i64>> {
    rows.sort();
    // After sorting, rows with equal coefficient prefixes are adjacent and
    // the first has the smallest (tightest) constant.
    rows.dedup_by(|a, b| {
        let n = a.len() - 1;
        a[..n] == b[..n]
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::Set;

    fn set(s: &str) -> Set {
        s.parse().unwrap()
    }

    #[test]
    fn scan_box() {
        let s = set("{ S[i,j] : 0 <= i <= 2 and 0 <= j <= 1 }");
        let sc = Scanner::new(&s, &[]).unwrap();
        let pts = sc.points().unwrap();
        assert_eq!(
            pts,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![1, 0],
                vec![1, 1],
                vec![2, 0],
                vec![2, 1]
            ]
        );
        assert_eq!(sc.count().unwrap(), 6);
    }

    #[test]
    fn scan_triangle() {
        let s = set("{ S[i,j] : 0 <= i <= 3 and 0 <= j <= i }");
        let sc = Scanner::new(&s, &[]).unwrap();
        assert_eq!(sc.count().unwrap(), 4 + 3 + 2 + 1);
    }

    #[test]
    fn scan_with_params() {
        let s = set("[N] -> { S[i] : 0 <= i < N }");
        let sc = Scanner::new(&s, &[5]).unwrap();
        assert_eq!(sc.count().unwrap(), 5);
        let sc = Scanner::new(&s, &[0]).unwrap();
        assert_eq!(sc.count().unwrap(), 0);
    }

    #[test]
    fn scan_union_dedups() {
        let s = set("{ S[i] : 0 <= i <= 4; S[i] : 3 <= i <= 6 }");
        let sc = Scanner::new(&s, &[]).unwrap();
        assert_eq!(sc.count().unwrap(), 7);
    }

    #[test]
    fn is_bounded_probe() {
        assert!(!Scanner::symbolic(&set("{ S[i] : i >= 0 }"))
            .unwrap()
            .is_bounded());
        assert!(Scanner::symbolic(&set("{ S[i] : 0 <= i <= 3 }"))
            .unwrap()
            .is_bounded());
        // Parametric bounds count as bounds.
        assert!(Scanner::symbolic(&set("[N] -> { S[i] : 0 <= i < N }"))
            .unwrap()
            .is_bounded());
    }

    #[test]
    fn scan_unbounded_errors() {
        let s = set("{ S[i] : i >= 0 }");
        let sc = Scanner::new(&s, &[]).unwrap();
        assert!(matches!(sc.count(), Err(Error::Unbounded { dim: 0 })));
    }

    #[test]
    fn scan_empty_is_zero() {
        let s = set("{ S[i] : 0 <= i and i <= -1 }");
        let sc = Scanner::new(&s, &[]).unwrap();
        assert_eq!(sc.count().unwrap(), 0);
    }

    #[test]
    fn early_stop() {
        let s = set("{ S[i] : 0 <= i <= 99 }");
        let sc = Scanner::new(&s, &[]).unwrap();
        let mut n = 0;
        sc.for_each(&mut |_| {
            n += 1;
            n < 10
        })
        .unwrap();
        assert_eq!(n, 10);
    }

    #[test]
    fn wrong_param_count_rejected() {
        let s = set("[N] -> { S[i] : 0 <= i < N }");
        assert!(Scanner::new(&s, &[]).is_err());
    }

    #[test]
    fn equality_pins_dimension() {
        let s = set("{ S[i,j] : i = 2j and 0 <= j <= 3 }");
        let sc = Scanner::new(&s, &[]).unwrap();
        let pts = sc.points().unwrap();
        assert_eq!(pts, vec![vec![0, 0], vec![2, 1], vec![4, 2], vec![6, 3]]);
    }

    #[test]
    fn symbolic_scanner_exposes_bounds() {
        let s = set("[N] -> { S[i] : 0 <= i < N }");
        let sc = Scanner::symbolic(&s).unwrap();
        assert_eq!(sc.n_branch(), 1);
        let lv = sc.branch_bounds(0);
        assert_eq!(lv.len(), 1);
        assert_eq!(lv[0].lowers.len(), 1);
        assert_eq!(lv[0].uppers.len(), 1);
    }
}
