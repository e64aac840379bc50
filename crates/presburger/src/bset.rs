//! Basic sets: single conjunctions of affine constraints.
//!
//! A [`BasicSet`] is the conjunction of equality and inequality constraints
//! over the columns `[params | tuple dims | existentials | 1]`. Existential
//! columns ("divs") are introduced internally by exact projection and are
//! never visible in the space.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::aff::{Constraint, ConstraintKind};
use crate::cache;
use crate::error::{Error, Result};
use crate::lin;
use crate::omega::{self, System};
use crate::space::Space;

/// `emptiness` flag states (an inline memo carried by every basic set).
const EMPTINESS_UNKNOWN: u8 = 0;
const EMPTINESS_NONEMPTY: u8 = 1;
const EMPTINESS_EMPTY: u8 = 2;

/// A conjunction of affine constraints over a [`Space`], possibly with
/// existentially quantified auxiliary variables.
#[derive(Debug)]
pub struct BasicSet {
    space: Space,
    n_div: usize,
    /// Equality rows over `[params | dims | divs | const]`.
    eqs: Vec<Vec<i64>>,
    /// Inequality rows (`>= 0`) over the same columns.
    ineqs: Vec<Vec<i64>>,
    /// Inline memo for [`BasicSet::is_empty`]: clones inherit the known
    /// answer, so repeated emptiness tests on copies of a checked set skip
    /// even the global memo-table lookup. Reset whenever a constraint row
    /// is added; ignored by `PartialEq`.
    emptiness: AtomicU8,
}

impl Clone for BasicSet {
    fn clone(&self) -> Self {
        BasicSet {
            space: self.space.clone(),
            n_div: self.n_div,
            eqs: self.eqs.clone(),
            ineqs: self.ineqs.clone(),
            emptiness: AtomicU8::new(self.emptiness.load(Ordering::Relaxed)),
        }
    }
}

impl PartialEq for BasicSet {
    fn eq(&self, other: &Self) -> bool {
        self.space == other.space
            && self.n_div == other.n_div
            && self.eqs == other.eqs
            && self.ineqs == other.ineqs
    }
}

impl Eq for BasicSet {}

impl BasicSet {
    /// The unconstrained set over `space`.
    pub fn universe(space: Space) -> Self {
        BasicSet {
            space,
            n_div: 0,
            eqs: Vec::new(),
            ineqs: Vec::new(),
            emptiness: AtomicU8::new(EMPTINESS_UNKNOWN),
        }
    }

    /// The empty set over `space`.
    pub fn empty(space: Space) -> Self {
        let mut b = Self::universe(space);
        // 0 >= 1 is false.
        let mut row = vec![0; b.cols()];
        *row.last_mut().unwrap() = -1;
        b.ineqs.push(row);
        *b.emptiness.get_mut() = EMPTINESS_EMPTY;
        b
    }

    /// The space of this basic set.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// Number of existential (auxiliary) variables.
    pub fn n_div(&self) -> usize {
        self.n_div
    }

    /// Number of explicit constraints (equalities + inequalities).
    pub fn n_constraint(&self) -> usize {
        self.eqs.len() + self.ineqs.len()
    }

    fn n_param(&self) -> usize {
        self.space.n_param()
    }

    fn n_dim(&self) -> usize {
        self.space.n_dim()
    }

    /// Total columns including the trailing constant.
    pub(crate) fn cols(&self) -> usize {
        self.n_param() + self.n_dim() + self.n_div + 1
    }

    /// Index of the constant column.
    fn const_col(&self) -> usize {
        self.cols() - 1
    }

    /// Adds a public [`Constraint`] (over params + dims, no divs).
    ///
    /// # Errors
    /// Returns an error if the constraint's space is incompatible.
    pub fn add_constraint(&mut self, c: &Constraint) -> Result<()> {
        self.space
            .check_compatible(c.expr().space(), "add_constraint")?;
        let src = c.expr().row();
        // src layout: [params | dims | const]; widen with div columns.
        let mut row = vec![0i64; self.cols()];
        let np = self.n_param();
        let nd = self.n_dim();
        row[..np + nd].copy_from_slice(&src[..np + nd]);
        row[self.const_col()] = src[np + nd];
        match c.kind() {
            ConstraintKind::Equality => self.push_eq(row),
            ConstraintKind::Inequality => self.push_ineq(row),
        }
        Ok(())
    }

    /// Builder-style [`BasicSet::add_constraint`].
    ///
    /// # Errors
    /// Returns an error if the constraint's space is incompatible.
    #[must_use = "constrain returns the constrained set"]
    pub fn constrain(mut self, c: &Constraint) -> Result<Self> {
        self.add_constraint(c)?;
        Ok(self)
    }

    pub(crate) fn push_eq(&mut self, mut row: Vec<i64>) {
        debug_assert_eq!(row.len(), self.cols());
        lin::normalize_eq_row(&mut row);
        self.eqs.push(row);
        *self.emptiness.get_mut() = EMPTINESS_UNKNOWN;
    }

    pub(crate) fn push_ineq(&mut self, mut row: Vec<i64>) {
        debug_assert_eq!(row.len(), self.cols());
        lin::normalize_ineq_row(&mut row);
        self.ineqs.push(row);
        *self.emptiness.get_mut() = EMPTINESS_UNKNOWN;
    }

    /// The raw equality rows over `[params | dims | divs | const]`
    /// (`row · (p, x, e, 1) == 0`). Exposed for clients performing
    /// structural analysis of constraints (e.g. rectangularity checks).
    pub fn eq_rows(&self) -> &[Vec<i64>] {
        &self.eqs
    }

    /// The raw inequality rows over `[params | dims | divs | const]`
    /// (`row · (p, x, e, 1) >= 0`). See [`BasicSet::eq_rows`].
    pub fn ineq_rows(&self) -> &[Vec<i64>] {
        &self.ineqs
    }

    pub(crate) fn from_rows(
        space: Space,
        n_div: usize,
        eqs: Vec<Vec<i64>>,
        ineqs: Vec<Vec<i64>>,
    ) -> Self {
        let b = BasicSet {
            space,
            n_div,
            eqs,
            ineqs,
            emptiness: AtomicU8::new(EMPTINESS_UNKNOWN),
        };
        debug_assert!(b.eqs.iter().chain(&b.ineqs).all(|r| r.len() == b.cols()));
        b
    }

    /// Converts to a raw system over `[params | dims | divs]`.
    pub(crate) fn to_system(&self) -> System {
        System {
            n_vars: self.cols() - 1,
            eqs: self.eqs.clone(),
            ineqs: self.ineqs.clone(),
        }
    }

    pub(crate) fn from_system(space: Space, n_div: usize, sys: System) -> Self {
        debug_assert_eq!(sys.n_vars, space.n_param() + space.n_dim() + n_div);
        BasicSet {
            space,
            n_div,
            eqs: sys.eqs,
            ineqs: sys.ineqs,
            emptiness: AtomicU8::new(EMPTINESS_UNKNOWN),
        }
    }

    /// Exact integer emptiness test.
    ///
    /// Treats parameters as existential: the set is empty iff it contains no
    /// point for *any* parameter values.
    ///
    /// Results are memoized in a process-global table keyed on the
    /// constraint rows; feasibility is existential over every column, so
    /// the memo key is independent of the space.
    ///
    /// # Errors
    /// Returns an error on arithmetic overflow.
    pub fn is_empty(&self) -> Result<bool> {
        // All fast paths (inline flag, interval pre-check, memo table) are
        // gated on the global memo switch so a differential run can force
        // the full Omega test (see `stats::set_memo_enabled`).
        let memo = crate::stats::memo_enabled();
        // Inline fast path: this object (or the one it was cloned from) was
        // already tested, so skip the key construction + global lookup.
        if memo {
            match self.emptiness.load(Ordering::Relaxed) {
                EMPTINESS_NONEMPTY => return Ok(false),
                EMPTINESS_EMPTY => return Ok(true),
                _ => {}
            }
        }
        // Interval pre-check: pairwise intersections of tile/disjunct boxes
        // are overwhelmingly *disjoint*, and the contradiction already shows
        // in single-variable bounds. Proving those empty here is O(rows) and
        // skips both the Omega test and the memo-table machinery.
        if memo && self.interval_empty() {
            // The diagnostic cross-check must use the *ungoverned* Omega
            // variant so it consumes no budget.
            debug_assert!(
                !omega::feasible_unbounded(&self.to_system())?,
                "interval_empty wrongly claimed empty: eqs={:?} ineqs={:?}",
                self.eqs,
                self.ineqs
            );
            self.emptiness.store(EMPTINESS_EMPTY, Ordering::Relaxed);
            return Ok(true);
        }
        // Two-level memo key. The raw rows hit when the *same* system
        // recurs verbatim, but fusion legality and footprint analysis
        // mostly re-derive systems through intersect/coalesce chains whose
        // raw rows differ while the canonical (simplified) form is shared —
        // keying only on raw rows made those all miss (26% hit rate on the
        // experiment suite). So on a raw miss we simplify and probe again
        // on the canonical rows; feasibility is invariant under `simplify`
        // (it eliminates by unit pivots, drops trivially-true rows, keeps
        // trivially-false ones and dedups parallel constraints keeping the
        // tightest), so Omega then runs on the cheaper canonical system.
        // One hit/miss is recorded per call: a hit on either level is a
        // hit. Both keys are stored so the verbatim fast path warms too.
        let raw_key = cache::rows_key(self);
        let mut hit = cache::probe(&raw_key);
        let mut canon_key = None;
        if hit.is_none() {
            let mut canon = self.clone();
            canon.simplify();
            let ck = cache::rows_key(&canon);
            if ck != raw_key {
                hit = cache::probe(&ck);
                canon_key = Some(ck);
            }
            if hit.is_none() {
                let v = {
                    let _timer = crate::stats::op_timer(crate::stats::Op::IsEmpty);
                    !omega::feasible(&canon.to_system())?
                };
                if let Some(ck) = canon_key {
                    cache::insert(ck, v);
                }
                cache::insert(raw_key, v);
                crate::stats::record(crate::stats::Op::IsEmpty, false);
                self.emptiness.store(
                    if v {
                        EMPTINESS_EMPTY
                    } else {
                        EMPTINESS_NONEMPTY
                    },
                    Ordering::Relaxed,
                );
                return Ok(v);
            }
            // Canonical hit: back-propagate to the raw key so this exact
            // system hits on the first probe next time.
            cache::insert(raw_key, hit.unwrap());
        }
        crate::stats::record(crate::stats::Op::IsEmpty, true);
        let v = hit.unwrap();
        self.emptiness.store(
            if v {
                EMPTINESS_EMPTY
            } else {
                EMPTINESS_NONEMPTY
            },
            Ordering::Relaxed,
        );
        Ok(v)
    }

    /// Sound incomplete emptiness test by interval reasoning: tracks a
    /// lower/upper bound per column from rows touching a single variable
    /// and reports `true` only on a definite contradiction. `false` means
    /// "unknown", not "non-empty".
    fn interval_empty(&self) -> bool {
        enum Vars {
            Zero,
            One(usize),
            Many,
        }
        let cc = self.const_col();
        let mut lb = vec![i64::MIN; cc];
        let mut ub = vec![i64::MAX; cc];
        let vars = |r: &[i64]| -> Vars {
            let mut found = Vars::Zero;
            for (j, &a) in r[..cc].iter().enumerate() {
                if a != 0 {
                    if matches!(found, Vars::One(_)) {
                        return Vars::Many;
                    }
                    found = Vars::One(j);
                }
            }
            found
        };
        for r in &self.eqs {
            let c = r[cc];
            match vars(r) {
                // 0 == -c: contradiction iff c != 0.
                Vars::Zero => {
                    if c != 0 {
                        return true;
                    }
                }
                Vars::One(j) => {
                    let a = r[j];
                    // a·x == -c has an integer solution iff a | c.
                    if c % a != 0 {
                        return true;
                    }
                    let v = -c / a;
                    lb[j] = lb[j].max(v);
                    ub[j] = ub[j].min(v);
                    if lb[j] > ub[j] {
                        return true;
                    }
                }
                Vars::Many => {}
            }
        }
        for r in &self.ineqs {
            let c = r[cc];
            match vars(r) {
                // 0 >= -c: contradiction iff c < 0.
                Vars::Zero => {
                    if c < 0 {
                        return true;
                    }
                }
                Vars::One(j) => {
                    let a = r[j];
                    if a > 0 {
                        // x >= ceil(-c / a)
                        lb[j] = lb[j].max(-c.div_euclid(a));
                    } else {
                        // x <= floor(c / -a)
                        ub[j] = ub[j].min(c.div_euclid(-a));
                    }
                    if lb[j] > ub[j] {
                        return true;
                    }
                }
                Vars::Many => {}
            }
        }
        false
    }

    /// Intersection (same space). Existential columns of both operands are
    /// kept side by side.
    ///
    /// # Errors
    /// Returns an error on space mismatch.
    pub fn intersect(&self, other: &BasicSet) -> Result<BasicSet> {
        self.space.check_compatible(&other.space, "intersect")?;
        let nv = self.n_param() + self.n_dim();
        let n_div = self.n_div + other.n_div;
        let cols = nv + n_div + 1;
        let widen = |row: &[i64], div_at: usize, own_divs: usize| -> Vec<i64> {
            let mut r = vec![0i64; cols];
            r[..nv].copy_from_slice(&row[..nv]);
            r[nv + div_at..nv + div_at + own_divs].copy_from_slice(&row[nv..nv + own_divs]);
            r[cols - 1] = row[row.len() - 1];
            r
        };
        let mut eqs = Vec::with_capacity(self.eqs.len() + other.eqs.len());
        let mut ineqs = Vec::with_capacity(self.ineqs.len() + other.ineqs.len());
        for r in &self.eqs {
            eqs.push(widen(r, 0, self.n_div));
        }
        for r in &other.eqs {
            eqs.push(widen(r, self.n_div, other.n_div));
        }
        for r in &self.ineqs {
            ineqs.push(widen(r, 0, self.n_div));
        }
        for r in &other.ineqs {
            ineqs.push(widen(r, self.n_div, other.n_div));
        }
        Ok(BasicSet {
            space: self.space.clone(),
            n_div,
            eqs,
            ineqs,
            emptiness: AtomicU8::new(EMPTINESS_UNKNOWN),
        })
    }

    /// Whether `point = [params..., dims...]` is in the set (existentials
    /// are solved for).
    ///
    /// # Errors
    /// Returns an error on overflow.
    ///
    /// # Panics
    /// Panics if `point` has the wrong length.
    pub fn contains(&self, point: &[i64]) -> Result<bool> {
        let nv = self.n_param() + self.n_dim();
        assert_eq!(point.len(), nv, "point has wrong dimensionality");
        if self.n_div == 0 {
            for r in &self.eqs {
                if row_eval(r, point, nv)? != 0 {
                    return Ok(false);
                }
            }
            for r in &self.ineqs {
                if row_eval(r, point, nv)? < 0 {
                    return Ok(false);
                }
            }
            return Ok(true);
        }
        // Substitute the point and test feasibility over the divs.
        let mut sys = System::new(self.n_div);
        for (dst, src) in [(&mut sys.eqs, &self.eqs), (&mut sys.ineqs, &self.ineqs)] {
            for r in src.iter() {
                let mut row = vec![0i64; self.n_div + 1];
                row[..self.n_div].copy_from_slice(&r[nv..nv + self.n_div]);
                row[self.n_div] = row_eval(r, point, nv)?;
                dst.push(row);
            }
        }
        omega::feasible(&sys)
    }

    /// Exact projection: eliminates dimensions `first .. first + count`
    /// (absolute dim indices) and removes them from the space, producing a
    /// union of basic sets in the smaller space.
    ///
    /// # Errors
    /// Returns an error on overflow or out-of-range indices.
    pub fn project_out_dims(&self, first: usize, count: usize) -> Result<Vec<BasicSet>> {
        if first + count > self.n_dim() {
            return Err(Error::DimOutOfBounds {
                index: first + count,
                len: self.n_dim(),
            });
        }
        if count == 0 {
            return Ok(vec![self.clone()]);
        }
        crate::stats::record(crate::stats::Op::Project, false);
        let _timer = crate::stats::op_timer(crate::stats::Op::Project);
        let np = self.n_param();
        let new_space = drop_space_dims(&self.space, first, count);
        // Eliminate columns np+first .. np+first+count, one at a time.
        // After each elimination the later target columns shift left by one.
        let mut systems = vec![(self.to_system(), self.n_div)];
        for k in 0..count {
            let col = np + first + (count - 1 - k); // eliminate from the right
            let mut next = Vec::new();
            for (sys, divs_before) in systems {
                for out in omega::eliminate_col(&sys, col)? {
                    // Any appended columns are fresh divs.
                    let grown = out.n_vars + 1 - sys.n_vars; // net change +? or 0
                    let new_divs = divs_before + grown;
                    next.push((out, new_divs));
                }
            }
            systems = next;
        }
        Ok(systems
            .into_iter()
            .map(|(sys, n_div)| BasicSet::from_system(new_space.clone(), n_div, sys))
            .collect())
    }

    /// Removes existential columns where this is *cheaply exact* — a div
    /// with a unit coefficient in some equality (substitution), unit
    /// coefficients in all its inequality occurrences and no equality
    /// (exact Fourier–Motzkin), or no occurrences at all. Remaining divs
    /// (divisibility witnesses and strided bounds) are kept: they are
    /// existentials either way, so semantics never change. Eliminations of
    /// this restricted kind never introduce new columns, so the loop
    /// strictly shrinks and coefficients stay small.
    pub(crate) fn project_out_divs(&self) -> Result<Vec<BasicSet>> {
        if self.n_div == 0 {
            return Ok(vec![self.clone()]);
        }
        let np_nd = self.n_param() + self.n_dim();
        let mut work = vec![(self.to_system(), self.n_div)];
        let mut done = Vec::new();
        while let Some((sys, n_div)) = work.pop() {
            // Find an eliminable div column.
            let col = (0..n_div).map(|d| np_nd + d).find(|&c| {
                let unit_eq = sys.eqs.iter().any(|r| r[c] == 1 || r[c] == -1);
                let in_eq = sys.eqs.iter().any(|r| r[c] != 0);
                let ineq_unit = sys
                    .ineqs
                    .iter()
                    .filter(|r| r[c] != 0)
                    .all(|r| r[c] == 1 || r[c] == -1);
                let in_ineq = sys.ineqs.iter().any(|r| r[c] != 0);
                unit_eq || (!in_eq && ineq_unit) || (!in_eq && !in_ineq)
            });
            match col {
                None => done.push(BasicSet::from_system(self.space.clone(), n_div, sys)),
                Some(c) => {
                    for out in omega::eliminate_col(&sys, c)? {
                        debug_assert_eq!(out.n_vars + 1, sys.n_vars, "restricted elimination");
                        work.push((out, n_div - 1));
                    }
                }
            }
        }
        Ok(done)
    }

    /// Fixes dimension `dim` (absolute index) to the constant `value`.
    ///
    /// # Errors
    /// Returns an error if `dim` is out of range.
    pub fn fix_dim(&self, dim: usize, value: i64) -> Result<BasicSet> {
        if dim >= self.n_dim() {
            return Err(Error::DimOutOfBounds {
                index: dim,
                len: self.n_dim(),
            });
        }
        let mut b = self.clone();
        let mut row = vec![0i64; b.cols()];
        row[b.n_param() + dim] = 1;
        let cc = b.const_col();
        row[cc] = -value;
        b.push_eq(row);
        Ok(b)
    }

    /// Fixes parameter `p` to the constant `value`.
    ///
    /// # Errors
    /// Returns an error if `p` is out of range.
    pub fn fix_param(&self, p: usize, value: i64) -> Result<BasicSet> {
        if p >= self.n_param() {
            return Err(Error::DimOutOfBounds {
                index: p,
                len: self.n_param(),
            });
        }
        let mut b = self.clone();
        let mut row = vec![0i64; b.cols()];
        row[p] = 1;
        let cc = b.const_col();
        row[cc] = -value;
        b.push_eq(row);
        Ok(b)
    }

    /// Gauss-simplifies in place: uses equalities with unit coefficients to
    /// eliminate variables from other constraints, removes duplicate and
    /// trivially-true rows. Semantics are unchanged.
    pub fn simplify(&mut self) {
        // Use each equality with a ±1 pivot to clean the other rows.
        let cols = self.cols();
        for i in 0..self.eqs.len() {
            let Some(pivot) = (0..cols - 1).find(|&c| {
                let v = self.eqs[i][c];
                v == 1 || v == -1
            }) else {
                continue;
            };
            let eq = self.eqs[i].clone();
            let a = eq[pivot];
            for (j, r) in self.eqs.iter_mut().enumerate() {
                if j == i || r[pivot] == 0 {
                    continue;
                }
                let k = -(r[pivot] * a);
                if lin::row_add_mul(r, &eq, k).is_err() {
                    continue;
                }
                lin::normalize_eq_row(r);
            }
            for r in self.ineqs.iter_mut() {
                if r[pivot] == 0 {
                    continue;
                }
                let k = -(r[pivot] * a);
                if lin::row_add_mul(r, &eq, k).is_err() {
                    continue;
                }
                lin::normalize_ineq_row(r);
            }
        }
        // Drop trivially-true rows and duplicates.
        self.eqs.retain(|r| r.iter().any(|&c| c != 0));
        self.ineqs.retain(|r| {
            let (coefs, c) = r.split_at(cols - 1);
            coefs.iter().any(|&v| v != 0) || c[0] < 0
        });
        self.eqs.sort();
        self.eqs.dedup();
        // Parallel inequalities (identical coefficient vector) — keep only
        // the tightest. Sorting puts same-coefficient rows adjacent with
        // the smallest constant (the binding one) first. Repeated
        // intersections of translated copies of a set otherwise pile up
        // dozens of slack parallel rows and every later Omega solve pays
        // for them.
        self.ineqs.sort();
        self.ineqs.dedup_by(|a, b| a[..cols - 1] == b[..cols - 1]);
    }

    /// The negation of each constraint, as div-free rows suitable for
    /// building the complement. Only valid for basic sets without divs.
    pub(crate) fn negated_constraints(&self) -> Result<Vec<NegatedEntry>> {
        if self.n_div != 0 {
            return Err(Error::KindMismatch {
                expected: "div-free basic set",
            });
        }
        let cols = self.cols();
        let mut out = Vec::new();
        for r in &self.eqs {
            // ¬(e = 0) = (e >= 1) ∪ (e <= -1)
            let mut pos = r.clone();
            pos[cols - 1] -= 1;
            let mut neg: Vec<i64> = r.iter().map(|&x| -x).collect();
            neg[cols - 1] -= 1;
            out.push((Vec::new(), vec![pos]));
            out.push((Vec::new(), vec![neg]));
        }
        for r in &self.ineqs {
            // ¬(e >= 0) = (-e - 1 >= 0)
            let mut neg: Vec<i64> = r.iter().map(|&x| -x).collect();
            neg[cols - 1] -= 1;
            out.push((Vec::new(), vec![neg]));
        }
        Ok(out)
    }

    /// The complement of this basic set as a union of basic sets, handling
    /// *divisibility witnesses*: divs each appearing in exactly one
    /// equality `a·q = e` and no inequality negate into the residue classes
    /// `∃q: e = a·q + r` for `r ∈ [1, a−1]`.
    ///
    /// # Errors
    /// Returns [`Error::KindMismatch`] if a div appears in an inequality or
    /// in several constraints (does not arise from this crate's own
    /// operations after [`BasicSet::project_out_divs`]).
    pub(crate) fn complement_pieces(&self) -> Result<Vec<BasicSet>> {
        if self.n_div == 0 {
            let mut out = Vec::new();
            let mut context = BasicSet::universe(self.space.clone());
            for (eqs, ineqs) in self.negated_constraints()? {
                let mut piece = context.clone();
                for r in &eqs {
                    piece.push_eq(r.clone());
                }
                for r in &ineqs {
                    piece.push_ineq(r.clone());
                }
                out.push(piece);
                // Disjoint decomposition: assert the complement of the
                // negation before the next constraint.
                for r in &ineqs {
                    let mut comp: Vec<i64> = r.iter().map(|&x| -x).collect();
                    let last = comp.len() - 1;
                    comp[last] -= 1;
                    context.push_ineq(comp);
                }
            }
            return Ok(out);
        }
        // Classify divs: each must be a pure divisibility witness.
        let np_nd = self.n_param() + self.n_dim();
        let mut div_eq_idx: Vec<usize> = Vec::with_capacity(self.n_div);
        for d in 0..self.n_div {
            let col = np_nd + d;
            if self.ineqs.iter().any(|r| r[col] != 0) {
                return Err(Error::KindMismatch {
                    expected: "complementable basic set",
                });
            }
            let uses: Vec<usize> = self
                .eqs
                .iter()
                .enumerate()
                .filter(|(_, r)| r[col] != 0)
                .map(|(i, _)| i)
                .collect();
            if uses.len() != 1 {
                return Err(Error::KindMismatch {
                    expected: "complementable basic set",
                });
            }
            // The equality must not mention any *other* div (independent
            // witnesses only).
            let row = &self.eqs[uses[0]];
            for d2 in 0..self.n_div {
                if d2 != d && row[np_nd + d2] != 0 {
                    return Err(Error::KindMismatch {
                        expected: "complementable basic set",
                    });
                }
            }
            div_eq_idx.push(uses[0]);
        }
        // Complement = ∪_d ¬D_d  ∪  (all D_d ∧ ¬C) where C = the div-free
        // constraints.
        let mut out = Vec::new();
        for (d, &eq_i) in div_eq_idx.iter().enumerate() {
            let col = np_nd + d;
            let a = self.eqs[eq_i][col].unsigned_abs() as i64;
            // ¬(a | e): residues 1..a-1, each with its own witness.
            for r in 1..a {
                let mut piece = BasicSet::universe(self.space.clone());
                piece.n_div = 1;
                // Rebuild the defining row over [params|dims|q|const] with
                // the residue shifted into the constant.
                let src = &self.eqs[eq_i];
                let mut row = vec![0i64; np_nd + 2];
                row[..np_nd].copy_from_slice(&src[..np_nd]);
                row[np_nd] = src[col];
                row[np_nd + 1] = src[self.cols() - 1] - r * src[col].signum();
                // e + a·q(sign) shifted by residue: e = a q + r  with the
                // original orientation preserved.
                piece.eqs.push(row);
                out.push(piece);
            }
        }
        // D ∧ ¬C: negate the remaining (div-free) constraints one by one.
        let keep: Vec<Vec<i64>> = div_eq_idx.iter().map(|&i| self.eqs[i].clone()).collect();
        let rest_eqs: Vec<Vec<i64>> = self
            .eqs
            .iter()
            .enumerate()
            .filter(|(i, _)| !div_eq_idx.contains(i))
            .map(|(_, r)| r.clone())
            .collect();
        let shell = BasicSet {
            space: self.space.clone(),
            n_div: self.n_div,
            eqs: keep.clone(),
            ineqs: Vec::new(),
            emptiness: AtomicU8::new(EMPTINESS_UNKNOWN),
        };
        let cols = self.cols();
        // Negate each div-free constraint in turn (inequalities have zero
        // div coefficients by the classification above; rest_eqs touch
        // dims only).
        let mut pieces: Vec<(bool, Vec<i64>)> = Vec::new();
        for r in &rest_eqs {
            pieces.push((true, r.clone()));
        }
        for r in &self.ineqs {
            pieces.push((false, r.clone()));
        }
        let mut ctx = shell;
        for (is_eq, r) in pieces {
            if is_eq {
                let mut pos = r.clone();
                pos[cols - 1] -= 1;
                let mut b1 = ctx.clone();
                b1.push_ineq(pos);
                out.push(b1);
                let mut neg: Vec<i64> = r.iter().map(|&x| -x).collect();
                neg[cols - 1] -= 1;
                let mut b2 = ctx.clone();
                b2.push_ineq(neg);
                out.push(b2);
                ctx.eqs.push(r);
                *ctx.emptiness.get_mut() = EMPTINESS_UNKNOWN;
            } else {
                let mut neg: Vec<i64> = r.iter().map(|&x| -x).collect();
                neg[cols - 1] -= 1;
                let mut b = ctx.clone();
                b.push_ineq(neg);
                out.push(b);
                ctx.ineqs.push(r);
                *ctx.emptiness.get_mut() = EMPTINESS_UNKNOWN;
            }
        }
        Ok(out)
    }

    /// Replaces the space with a compatible one (same arities), e.g. to
    /// rename tuples.
    ///
    /// # Errors
    /// Returns an error if arities differ.
    pub fn cast(&self, space: Space) -> Result<BasicSet> {
        if space.n_param() != self.n_param() || space.n_dim() != self.n_dim() {
            return Err(Error::SpaceMismatch {
                op: "cast",
                lhs: self.space.to_string(),
                rhs: space.to_string(),
            });
        }
        let mut b = self.clone();
        b.space = space;
        Ok(b)
    }
}

/// One complement branch: extra equality rows and inequality rows.
pub(crate) type NegatedEntry = (Vec<Vec<i64>>, Vec<Vec<i64>>);

/// Evaluates row on `point` (vars beyond `point.len()` are divs, must be 0
/// coefficient — caller guarantees), returning coefficient·point + const.
fn row_eval(row: &[i64], point: &[i64], nv: usize) -> Result<i64> {
    let mut acc = row[row.len() - 1];
    for (c, v) in row[..nv].iter().zip(point.iter()) {
        acc = lin::add_mul(acc, *c, *v)?;
    }
    Ok(acc)
}

/// Drops dims `[first, first+count)` from a space's tuples.
pub(crate) fn drop_space_dims(space: &Space, first: usize, count: usize) -> Space {
    use crate::space::Tuple;
    let mut dims_seen = 0usize;
    let mut tuples = Vec::new();
    let all: Vec<&Tuple> = if space.is_map() {
        vec![space.in_tuple(), space.out_tuple()]
    } else {
        vec![space.tuple()]
    };
    for t in all {
        let keep: Vec<&str> = t
            .dims()
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                let abs = dims_seen + i;
                !(first..first + count).contains(&abs)
            })
            .map(|(_, d)| d.as_str())
            .collect();
        tuples.push(Tuple::new(t.name(), &keep));
        dims_seen += t.arity();
    }
    let params: Vec<&str> = space.params().iter().map(String::as_str).collect();
    match tuples.len() {
        1 => Space::set(&params, tuples.pop().unwrap()),
        2 => {
            let out = tuples.pop().unwrap();
            let inp = tuples.pop().unwrap();
            Space::map(&params, inp, out)
        }
        _ => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aff::AffExpr;
    use crate::space::Tuple;

    fn sp2() -> Space {
        Space::set(&[], Tuple::new(Some("S"), &["i", "j"]))
    }

    /// `{ S[i,j] : 0 <= i <= a and 0 <= j <= b }`
    fn boxy(a: i64, b: i64) -> BasicSet {
        let sp = sp2();
        let i = AffExpr::dim(&sp, 0).unwrap();
        let j = AffExpr::dim(&sp, 1).unwrap();
        let zero = AffExpr::zero(&sp);
        let ca = AffExpr::constant(&sp, a);
        let cb = AffExpr::constant(&sp, b);
        BasicSet::universe(sp)
            .constrain(&i.ge(&zero).unwrap())
            .unwrap()
            .constrain(&i.le(&ca).unwrap())
            .unwrap()
            .constrain(&j.ge(&zero).unwrap())
            .unwrap()
            .constrain(&j.le(&cb).unwrap())
            .unwrap()
    }

    #[test]
    fn universe_and_empty() {
        let u = BasicSet::universe(sp2());
        assert!(!u.is_empty().unwrap());
        assert!(u.contains(&[100, -100]).unwrap());
        let e = BasicSet::empty(sp2());
        assert!(e.is_empty().unwrap());
        assert!(!e.contains(&[0, 0]).unwrap());
    }

    #[test]
    fn box_membership() {
        let b = boxy(3, 2);
        assert!(b.contains(&[0, 0]).unwrap());
        assert!(b.contains(&[3, 2]).unwrap());
        assert!(!b.contains(&[4, 0]).unwrap());
        assert!(!b.contains(&[0, -1]).unwrap());
        assert!(!b.is_empty().unwrap());
    }

    #[test]
    fn intersect_boxes() {
        let a = boxy(5, 5);
        let b = boxy(3, 7);
        let c = a.intersect(&b).unwrap();
        assert!(c.contains(&[3, 5]).unwrap());
        assert!(!c.contains(&[4, 5]).unwrap());
        assert!(!c.contains(&[3, 6]).unwrap());
    }

    #[test]
    fn empty_detection_via_omega() {
        let sp = sp2();
        let i = AffExpr::dim(&sp, 0).unwrap();
        // i >= 5 and i <= 4
        let b = BasicSet::universe(sp.clone())
            .constrain(&i.ge(&AffExpr::constant(&sp, 5)).unwrap())
            .unwrap()
            .constrain(&i.le(&AffExpr::constant(&sp, 4)).unwrap())
            .unwrap();
        assert!(b.is_empty().unwrap());
    }

    #[test]
    fn interval_precheck_agrees_with_omega() {
        // Disjoint boxes: the interval pre-check must prove emptiness.
        let lo = boxy(3, 3);
        let sp = sp2();
        let i = AffExpr::dim(&sp, 0).unwrap();
        let hi = BasicSet::universe(sp.clone())
            .constrain(&i.ge(&AffExpr::constant(&sp, 10)).unwrap())
            .unwrap();
        let meet = lo.intersect(&hi).unwrap();
        assert!(meet.interval_empty());
        assert!(meet.is_empty().unwrap());
        // Overlapping boxes: the pre-check must stay silent (unknown),
        // and the exact test must report non-empty.
        let meet2 = boxy(5, 5).intersect(&boxy(3, 7)).unwrap();
        assert!(!meet2.interval_empty());
        assert!(!meet2.is_empty().unwrap());
        // Unsatisfiable divisibility on an equality: 2i == 7 has no
        // integer solution; single-variable reasoning catches it.
        let two_i = AffExpr::dim(&sp, 0).unwrap().scale(2).unwrap();
        let odd = BasicSet::universe(sp.clone())
            .constrain(&two_i.eq(&AffExpr::constant(&sp, 7)).unwrap())
            .unwrap();
        assert!(odd.is_empty().unwrap());
        // A contradiction only visible through a multi-variable row is
        // beyond interval reasoning: pre-check says unknown, Omega decides.
        let j = AffExpr::dim(&sp, 1).unwrap();
        let sum = i.checked_add(&j).unwrap();
        let multi = boxy(2, 2)
            .constrain(&sum.ge(&AffExpr::constant(&sp, 100)).unwrap())
            .unwrap();
        assert!(!multi.interval_empty());
        assert!(multi.is_empty().unwrap());
    }

    #[test]
    fn project_out_dims_box() {
        let b = boxy(3, 7);
        let ps = b.project_out_dims(0, 1).unwrap();
        assert_eq!(ps.len(), 1);
        let p = &ps[0];
        assert_eq!(p.space().n_dim(), 1);
        assert!(p.contains(&[0]).unwrap());
        assert!(p.contains(&[7]).unwrap());
        assert!(!p.contains(&[8]).unwrap());
        // project the other dim
        let ps = b.project_out_dims(1, 1).unwrap();
        let p = &ps[0];
        assert!(p.contains(&[3]).unwrap());
        assert!(!p.contains(&[4]).unwrap());
    }

    #[test]
    fn project_all_dims_of_nonempty_is_universe_point() {
        let b = boxy(1, 1);
        let ps = b.project_out_dims(0, 2).unwrap();
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].space().n_dim(), 0);
        assert!(!ps[0].is_empty().unwrap());
    }

    #[test]
    fn fix_dim_slices() {
        let b = boxy(3, 2);
        let s = b.fix_dim(0, 2).unwrap();
        assert!(s.contains(&[2, 1]).unwrap());
        assert!(!s.contains(&[1, 1]).unwrap());
        let s = b.fix_dim(0, 9).unwrap();
        assert!(s.is_empty().unwrap());
        assert!(b.fix_dim(5, 0).is_err());
    }

    #[test]
    fn fix_param_works() {
        let sp = Space::set(&["N"], Tuple::new(Some("S"), &["i"]));
        let i = AffExpr::dim(&sp, 0).unwrap();
        let n = AffExpr::param(&sp, 0).unwrap();
        let b = BasicSet::universe(sp.clone())
            .constrain(&i.ge(&AffExpr::zero(&sp)).unwrap())
            .unwrap()
            .constrain(&i.lt(&n).unwrap())
            .unwrap();
        let f = b.fix_param(0, 3).unwrap();
        assert!(f.contains(&[3, 2]).unwrap());
        assert!(!f.contains(&[3, 3]).unwrap());
        // fixing with inconsistent param value makes membership false
        assert!(!f.contains(&[4, 2]).unwrap());
    }

    #[test]
    fn simplify_removes_duplicates_and_uses_equalities() {
        let sp = sp2();
        let i = AffExpr::dim(&sp, 0).unwrap();
        let j = AffExpr::dim(&sp, 1).unwrap();
        let mut b = BasicSet::universe(sp.clone());
        b.add_constraint(&i.eq(&j).unwrap()).unwrap();
        b.add_constraint(&i.ge(&AffExpr::zero(&sp)).unwrap())
            .unwrap();
        b.add_constraint(&i.ge(&AffExpr::zero(&sp)).unwrap())
            .unwrap();
        let before = b.n_constraint();
        b.simplify();
        assert!(b.n_constraint() < before);
        assert!(b.contains(&[2, 2]).unwrap());
        assert!(!b.contains(&[2, 3]).unwrap());
        assert!(!b.contains(&[-1, -1]).unwrap());
    }

    #[test]
    fn cast_renames_tuple() {
        let b = boxy(1, 1);
        let sp = Space::set(&[], Tuple::new(Some("T"), &["x", "y"]));
        let c = b.cast(sp).unwrap();
        assert_eq!(c.space().tuple().name(), Some("T"));
        // arity mismatch rejected
        let bad = Space::set(&[], Tuple::new(Some("T"), &["x"]));
        assert!(b.cast(bad).is_err());
    }

    #[test]
    fn drop_space_dims_helper() {
        let sp = Space::map(
            &["N"],
            Tuple::new(Some("S"), &["i", "j"]),
            Tuple::new(Some("A"), &["a"]),
        );
        let d = drop_space_dims(&sp, 1, 1);
        assert_eq!(d.to_string(), "[N] -> { S[i] -> A[a] }");
        let d = drop_space_dims(&sp, 2, 1);
        assert_eq!(d.to_string(), "[N] -> { S[i, j] -> A[] }");
    }

    #[test]
    fn complement_pieces_cover_exactly() {
        // Complement of a 2-D box, checked pointwise.
        let b = boxy(2, 3);
        let pieces = b.complement_pieces().unwrap();
        assert!(!pieces.is_empty());
        for i in -2..6 {
            for j in -2..7 {
                let inside = b.contains(&[i, j]).unwrap();
                let in_complement = pieces.iter().any(|p| p.contains(&[i, j]).unwrap());
                assert_eq!(inside, !in_complement, "({i},{j})");
            }
        }
        // The pieces are pairwise disjoint (disjoint decomposition).
        for (x, a) in pieces.iter().enumerate() {
            for b2 in pieces.iter().skip(x + 1) {
                assert!(a.intersect(b2).unwrap().is_empty().unwrap());
            }
        }
    }

    #[test]
    fn complement_of_universe_is_empty() {
        let u = BasicSet::universe(sp2());
        let pieces = u.complement_pieces().unwrap();
        for p in pieces {
            assert!(p.is_empty().unwrap());
        }
    }

    #[test]
    fn projection_with_stride_keeps_exactness() {
        // { S[i, j] : i = 3j } projected on i => multiples of 3.
        let sp = sp2();
        let i = AffExpr::dim(&sp, 0).unwrap();
        let j = AffExpr::dim(&sp, 1).unwrap();
        let b = BasicSet::universe(sp.clone())
            .constrain(&i.eq(&j.scale(3).unwrap()).unwrap())
            .unwrap()
            .constrain(&j.ge(&AffExpr::zero(&sp)).unwrap())
            .unwrap()
            .constrain(&j.le(&AffExpr::constant(&sp, 3)).unwrap())
            .unwrap();
        let ps = b.project_out_dims(1, 1).unwrap();
        let contains = |v: i64| ps.iter().any(|p| p.contains(&[v]).unwrap());
        for v in -1..11 {
            assert_eq!(contains(v), (0..=9).contains(&v) && v % 3 == 0, "v = {v}");
        }
    }
}
