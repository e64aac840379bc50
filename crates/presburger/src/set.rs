//! Sets: finite unions of [`BasicSet`]s in a common space.

use crate::bset::BasicSet;
use crate::error::{Error, Result};
use crate::space::Space;

/// A union of [`BasicSet`]s over one [`Space`].
///
/// Constructed from text (`"{ S[i] : 0 <= i < N }".parse()`), from
/// [`BasicSet`]s, or as the result of algebra on other sets and maps.
#[derive(Debug, Clone)]
pub struct Set {
    space: Space,
    basics: Vec<BasicSet>,
}

impl Set {
    /// The empty set in `space`.
    pub fn empty(space: Space) -> Self {
        Set {
            space,
            basics: Vec::new(),
        }
    }

    /// The unconstrained set in `space`.
    pub fn universe(space: Space) -> Self {
        Set {
            space: space.clone(),
            basics: vec![BasicSet::universe(space)],
        }
    }

    /// A set consisting of a single basic set.
    pub fn from_basic(basic: BasicSet) -> Self {
        Set {
            space: basic.space().clone(),
            basics: vec![basic],
        }
    }

    /// Builds a set from several basic sets (all in the same space).
    ///
    /// # Errors
    /// Returns an error if the basic sets disagree on space.
    pub fn from_basics(space: Space, basics: Vec<BasicSet>) -> Result<Self> {
        for b in &basics {
            space.check_compatible(b.space(), "from_basics")?;
        }
        Ok(Set { space, basics })
    }

    /// The set's space.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// The disjuncts of the union.
    pub fn basics(&self) -> &[BasicSet] {
        &self.basics
    }

    /// Number of disjuncts.
    pub fn n_basic(&self) -> usize {
        self.basics.len()
    }

    /// Exact emptiness test.
    ///
    /// # Errors
    /// Returns an error on overflow.
    pub fn is_empty(&self) -> Result<bool> {
        for b in &self.basics {
            if !b.is_empty()? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Union with another set in the same space. Disjuncts of `other`
    /// that are structurally identical to one already present are
    /// coalesced away instead of being appended, so repeated unions do
    /// not balloon the disjunct list.
    ///
    /// # Errors
    /// Returns an error on space mismatch.
    pub fn union(&self, other: &Set) -> Result<Set> {
        self.space.check_compatible(&other.space, "union")?;
        let mut basics = self.basics.clone();
        for b in &other.basics {
            if !basics.contains(b) {
                basics.push(b.clone());
            }
        }
        Ok(Set {
            space: self.space.clone(),
            basics,
        })
    }

    /// Intersection with another set in the same space; empty pairwise
    /// intersections are dropped.
    ///
    /// # Errors
    /// Returns an error on space mismatch or overflow.
    pub fn intersect(&self, other: &Set) -> Result<Set> {
        self.space.check_compatible(&other.space, "intersect")?;
        crate::stats::record(crate::stats::Op::Intersect, false);
        let _timer = crate::stats::op_timer(crate::stats::Op::Intersect);
        let mut basics = Vec::new();
        for a in &self.basics {
            for b in &other.basics {
                let c = a.intersect(b)?;
                if !c.is_empty()? {
                    basics.push(c);
                }
            }
        }
        Ok(Set {
            space: self.space.clone(),
            basics,
        })
    }

    /// Set difference `self − other`.
    ///
    /// # Errors
    /// Returns an error on space mismatch, overflow, or if `other` contains
    /// existential variables in a form whose complement is not representable
    /// (does not occur for sets built from constraints and exact
    /// projections of the kind used in this crate).
    pub fn subtract(&self, other: &Set) -> Result<Set> {
        self.space.check_compatible(&other.space, "subtract")?;
        let mut current = self.basics.clone();
        for b in &other.basics {
            let mut next = Vec::new();
            for part in &current {
                for piece in subtract_basic(part, b)? {
                    if !piece.is_empty()? {
                        next.push(piece);
                    }
                }
            }
            current = next;
            if current.is_empty() {
                break;
            }
        }
        Ok(Set {
            space: self.space.clone(),
            basics: current,
        })
    }

    /// Whether `self ⊆ other`.
    ///
    /// # Errors
    /// Returns an error on space mismatch or overflow.
    pub fn is_subset(&self, other: &Set) -> Result<bool> {
        self.subtract(other)?.is_empty()
    }

    /// Whether the two sets contain exactly the same points.
    ///
    /// # Errors
    /// Returns an error on space mismatch or overflow.
    pub fn is_equal(&self, other: &Set) -> Result<bool> {
        Ok(self.is_subset(other)? && other.is_subset(self)?)
    }

    /// Whether `point = [params..., dims...]` is in the set.
    ///
    /// # Errors
    /// Returns an error on overflow.
    pub fn contains(&self, point: &[i64]) -> Result<bool> {
        for b in &self.basics {
            if b.contains(point)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Exact projection: removes dimensions `first .. first+count`.
    ///
    /// # Errors
    /// Returns an error on out-of-range indices or overflow.
    pub fn project_out_dims(&self, first: usize, count: usize) -> Result<Set> {
        let mut basics = Vec::new();
        let mut space = None;
        for b in &self.basics {
            for p in b.project_out_dims(first, count)? {
                if space.is_none() {
                    space = Some(p.space().clone());
                }
                if !p.is_empty()? {
                    basics.push(p);
                }
            }
        }
        let space = match space {
            Some(s) => s,
            None => crate::bset::drop_space_dims(&self.space, first, count),
        };
        Ok(Set { space, basics })
    }

    /// Fixes dimension `dim` to `value` in every disjunct.
    ///
    /// # Errors
    /// Returns an error if `dim` is out of range.
    pub fn fix_dim(&self, dim: usize, value: i64) -> Result<Set> {
        let basics = self
            .basics
            .iter()
            .map(|b| b.fix_dim(dim, value))
            .collect::<Result<Vec<_>>>()?;
        Ok(Set {
            space: self.space.clone(),
            basics,
        })
    }

    /// Fixes parameter `p` to `value` in every disjunct.
    ///
    /// # Errors
    /// Returns an error if `p` is out of range.
    pub fn fix_param(&self, p: usize, value: i64) -> Result<Set> {
        let basics = self
            .basics
            .iter()
            .map(|b| b.fix_param(p, value))
            .collect::<Result<Vec<_>>>()?;
        Ok(Set {
            space: self.space.clone(),
            basics,
        })
    }

    /// Renames the tuple (and/or dim names) without changing content.
    ///
    /// # Errors
    /// Returns an error if arities differ.
    pub fn cast(&self, space: Space) -> Result<Set> {
        let basics = self
            .basics
            .iter()
            .map(|b| b.cast(space.clone()))
            .collect::<Result<Vec<_>>>()?;
        Ok(Set { space, basics })
    }

    /// Removes empty disjuncts and disjuncts subsumed by another disjunct,
    /// then merges pairs of disjuncts whose union is exactly representable
    /// as a single basic set (e.g. the adjacent slabs `x = 2i` and
    /// `x = 2i + 1` become `2i ≤ x ≤ 2i + 1`).
    ///
    /// The merge test is the valid-constraint hull: a candidate is built
    /// from every constraint of either disjunct that also holds for the
    /// other (so it contains both), and the pair is replaced when the
    /// candidate has no integer point outside the pair's union. Constraints
    /// involving existential columns are never transferred — that only
    /// relaxes the candidate, so it can fail the exactness check but never
    /// produce a wrong merge.
    ///
    /// # Errors
    /// Returns an error on overflow.
    pub fn coalesce(&self) -> Result<Set> {
        let mut kept: Vec<BasicSet> = Vec::new();
        for b in &self.basics {
            if b.is_empty()? {
                continue;
            }
            // Drop redundant rows first: every subset/merge test below
            // pays per constraint row.
            let mut b = b.clone();
            b.simplify();
            kept.push(b);
        }
        // Singleton wrappers built once, not inside the O(n²) loop.
        let singles: Vec<Set> = kept.iter().map(|b| Set::from_basic(b.clone())).collect();
        // Subset test that treats "complement not representable" (awkward
        // existentials) as unknown — the caller then keeps the disjunct,
        // which is always sound.
        let subset = |x: &Set, y: &Set| -> Result<bool> {
            match x.is_subset(y) {
                Ok(r) => Ok(r),
                Err(Error::KindMismatch { .. }) => Ok(false),
                Err(e) => Err(e),
            }
        };
        // Drop disjuncts contained in another disjunct.
        let mut result: Vec<BasicSet> = Vec::new();
        'outer: for (i, b) in kept.iter().enumerate() {
            for j in 0..kept.len() {
                if i == j {
                    continue;
                }
                // Keep the earlier one when mutually contained.
                if subset(&singles[i], &singles[j])?
                    && (j < i || !subset(&singles[j], &singles[i])?)
                {
                    continue 'outer;
                }
            }
            result.push(b.clone());
        }
        // Merge pass: each successful merge shrinks the list by one, so the
        // scan restarts at most n − 1 times.
        let mut basics = result;
        let mut i = 0;
        while i < basics.len() {
            let mut merged = false;
            let mut j = i + 1;
            while j < basics.len() {
                if let Some(m) = merge_pair(&self.space, &basics[i], &basics[j])? {
                    basics[i] = m;
                    basics.remove(j);
                    merged = true;
                } else {
                    j += 1;
                }
            }
            // A grown disjunct may now merge with an earlier one.
            i = if merged { 0 } else { i + 1 };
        }
        Ok(Set {
            space: self.space.clone(),
            basics,
        })
    }

    /// A single-disjunct over-approximation: the conjunction of every
    /// transferable constraint (over params and dims, no existentials)
    /// that holds on all of `self`. Always a superset of `self`; exact
    /// only when the union happens to be convex and div-free. Use to cap
    /// disjunct growth where a larger set is sound (e.g. footprints, where
    /// over-approximation only means extra recomputation).
    ///
    /// # Errors
    /// Returns an error on overflow.
    pub fn simple_hull(&self) -> Result<Set> {
        let mut nonempty: Vec<BasicSet> = Vec::new();
        for b in &self.basics {
            if !b.is_empty()? {
                nonempty.push(b.clone());
            }
        }
        if nonempty.len() <= 1 {
            return Ok(Set {
                space: self.space.clone(),
                basics: nonempty,
            });
        }
        let nv = self.space.n_param() + self.space.n_dim();
        let mut valid: Vec<Vec<i64>> = Vec::new();
        for (k, own) in nonempty.iter().enumerate() {
            'row: for row in pub_rows(own, nv) {
                if valid.contains(&row) {
                    continue;
                }
                for (j, other) in nonempty.iter().enumerate() {
                    if j != k && !row_holds_for(&row, other, nv)? {
                        continue 'row;
                    }
                }
                valid.push(row);
            }
        }
        let mut hull = BasicSet::from_rows(self.space.clone(), 0, Vec::new(), valid);
        hull.simplify();
        Ok(Set::from_basic(hull))
    }

    /// Counts the integer points of the set for the given parameter values.
    /// The set must be bounded.
    ///
    /// # Errors
    /// Returns an error if the set is unbounded or on overflow.
    pub fn count_points(&self, param_values: &[i64]) -> Result<u64> {
        let scanner = crate::scan::Scanner::new(self, param_values)?;
        scanner.count()
    }

    /// The smallest axis-aligned box `[lo_k, hi_k]` containing the set, for
    /// the given parameter values. Returns `None` when the set is empty.
    ///
    /// # Errors
    /// Returns an error if the set is unbounded or on overflow.
    pub fn rect_hull(&self, param_values: &[i64]) -> Result<Option<Vec<(i64, i64)>>> {
        let n = self.space.n_dim();
        let mut out = Vec::with_capacity(n);
        for k in 0..n {
            // Project away all dims except k, then take 1-D bounds. The
            // clone of `self` is only needed when no projection runs.
            let tail = if k + 1 < n {
                self.project_out_dims(k + 1, n - k - 1)?
            } else {
                self.clone()
            };
            let s = if k > 0 {
                tail.project_out_dims(0, k)?
            } else {
                tail
            };
            let mut lo = i64::MAX;
            let mut hi = i64::MIN;
            let mut any = false;
            for b in s.basics() {
                let Some((l, h)) = one_dim_bounds(b, param_values)? else {
                    continue;
                };
                any = true;
                lo = lo.min(l);
                hi = hi.max(h);
            }
            if !any {
                return Ok(None);
            }
            out.push((lo, hi));
        }
        Ok(Some(out))
    }

    /// Substitutes concrete parameter values, leaving a parameter-free set.
    ///
    /// # Errors
    /// Returns an error if the number of values differs from the number of
    /// parameters.
    pub fn fixed_params(&self, values: &[i64]) -> Result<Set> {
        if values.len() != self.space.n_param() {
            return Err(Error::DimOutOfBounds {
                index: values.len(),
                len: self.space.n_param(),
            });
        }
        let mut s = self.clone();
        for (p, &v) in values.iter().enumerate() {
            s = s.fix_param(p, v)?;
        }
        Ok(s)
    }
}

/// Bounds of a 1-dimensional basic set for given parameter values, from
/// the symbolic level bounds (a box over-approximation for strided sets —
/// the documented `rect_hull` semantics). Returns `None` if empty.
fn one_dim_bounds(b: &BasicSet, param_values: &[i64]) -> Result<Option<(i64, i64)>> {
    if b.is_empty()? {
        return Ok(None);
    }
    let set = Set::from_basic(b.clone());
    let scanner = crate::scan::Scanner::new(&set, param_values)?;
    let mut lo = i64::MAX;
    let mut hi = i64::MIN;
    let mut any = false;
    for br in 0..scanner.n_branch() {
        let levels = scanner.branch_bounds(br);
        let Some(lb) = levels.first() else {
            continue;
        };
        if let Some((l, h)) = crate::scan::eval_bounds(lb, param_values, 0)? {
            any = true;
            lo = lo.min(l);
            hi = hi.max(h);
        }
    }
    Ok(if any { Some((lo, hi)) } else { None })
}

/// A disjunct's transferable constraints as ineq rows over
/// `[params | dims | const]` (`nv = n_param + n_dim`); rows touching
/// existential columns are skipped, equalities contribute both directions.
fn pub_rows(bs: &BasicSet, nv: usize) -> Vec<Vec<i64>> {
    let dv = bs.n_div();
    let narrow = |r: &[i64]| -> Option<Vec<i64>> {
        if r[nv..nv + dv].iter().any(|&c| c != 0) {
            return None;
        }
        let mut row = r[..nv].to_vec();
        row.push(r[nv + dv]);
        Some(row)
    };
    let mut rows = Vec::new();
    for r in bs.ineq_rows() {
        rows.extend(narrow(r));
    }
    for r in bs.eq_rows() {
        if let Some(row) = narrow(r) {
            rows.push(row.iter().map(|&c| -c).collect());
            rows.push(row);
        }
    }
    rows
}

/// Whether `row ≥ 0` holds everywhere on `bs`: bs ∩ { row ≤ −1 } = ∅.
fn row_holds_for(row: &[i64], bs: &BasicSet, nv: usize) -> Result<bool> {
    let dv = bs.n_div();
    let mut neg = vec![0i64; nv + dv + 1];
    for (dst, &c) in neg[..nv].iter_mut().zip(&row[..nv]) {
        *dst = -c;
    }
    neg[nv + dv] = -row[nv] - 1;
    let mut cut = bs.clone();
    cut.push_ineq(neg);
    cut.is_empty()
}

/// Attempts to replace `a ∪ b` with one basic set via the valid-constraint
/// hull: collect every constraint of `a` (over params and dims only — rows
/// touching existential columns are skipped) that also holds for `b`, and
/// vice versa. The candidate built from those rows contains both disjuncts
/// by construction; when it additionally has no integer point outside
/// `a ∪ b`, it equals the union exactly and is returned.
fn merge_pair(space: &Space, a: &BasicSet, b: &BasicSet) -> Result<Option<BasicSet>> {
    // Cheap pre-filters keep the expensive exactness subtract rare: only
    // div-free pairs (existential complements are costly and such merges
    // almost never succeed), and at most one "cut" constraint per side —
    // a mergeable adjacent pair disagrees in exactly the facet where the
    // two pieces meet.
    if a.n_div() != 0 || b.n_div() != 0 {
        return Ok(None);
    }
    let nv = space.n_param() + space.n_dim();
    let mut valid: Vec<Vec<i64>> = Vec::new();
    for (own, other) in [(a, b), (b, a)] {
        let mut cuts = 0usize;
        for row in pub_rows(own, nv) {
            if row_holds_for(&row, other, nv)? {
                if !valid.contains(&row) {
                    valid.push(row);
                }
            } else {
                cuts += 1;
                if cuts > 1 {
                    return Ok(None);
                }
            }
        }
    }
    let mut cand = BasicSet::from_rows(space.clone(), 0, Vec::new(), valid);
    cand.simplify();
    let outside = Set {
        space: space.clone(),
        basics: vec![a.clone(), b.clone()],
    };
    // A disjunct whose existentials cannot be complemented makes the
    // exactness test unanswerable — skip the merge rather than fail.
    match Set::from_basic(cand.clone()).subtract(&outside) {
        Ok(diff) if diff.is_empty()? => Ok(Some(cand)),
        Ok(_) => Ok(None),
        Err(Error::KindMismatch { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

/// `part − b` as a union of basic sets: `part ∩ piece` for each piece of
/// `b`'s complement (divisibility witnesses negate into residue classes;
/// other existentials are removed exactly first where possible).
fn subtract_basic(part: &BasicSet, b: &BasicSet) -> Result<Vec<BasicSet>> {
    match b.complement_pieces() {
        Ok(pieces) => {
            let mut out = Vec::new();
            for piece in pieces {
                out.push(part.intersect(&piece)?);
            }
            Ok(out)
        }
        Err(_) if b.n_div() > 0 => {
            // Try to remove the awkward existentials exactly, then retry.
            let parts = b.project_out_divs()?;
            if parts.len() == 1 && parts[0] == *b {
                return Err(Error::KindMismatch {
                    expected: "complementable basic set",
                });
            }
            let mut current = vec![part.clone()];
            for p in &parts {
                let mut next = Vec::new();
                for piece in &current {
                    next.extend(subtract_basic(piece, p)?);
                }
                current = next;
            }
            Ok(current)
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aff::AffExpr;
    use crate::space::{Space, Tuple};

    fn sp1() -> Space {
        Space::set(&[], Tuple::new(Some("S"), &["i"]))
    }

    /// `{ S[i] : lo <= i <= hi }`
    fn interval(lo: i64, hi: i64) -> Set {
        let sp = sp1();
        let i = AffExpr::dim(&sp, 0).unwrap();
        let b = BasicSet::universe(sp.clone())
            .constrain(&i.ge(&AffExpr::constant(&sp, lo)).unwrap())
            .unwrap()
            .constrain(&i.le(&AffExpr::constant(&sp, hi)).unwrap())
            .unwrap();
        Set::from_basic(b)
    }

    #[test]
    fn union_and_membership() {
        let s = interval(0, 3).union(&interval(10, 12)).unwrap();
        assert!(s.contains(&[2]).unwrap());
        assert!(s.contains(&[11]).unwrap());
        assert!(!s.contains(&[5]).unwrap());
        assert_eq!(s.n_basic(), 2);
    }

    #[test]
    fn intersect_intervals() {
        let s = interval(0, 10).intersect(&interval(5, 20)).unwrap();
        assert!(s.contains(&[5]).unwrap());
        assert!(s.contains(&[10]).unwrap());
        assert!(!s.contains(&[4]).unwrap());
        assert!(!s.contains(&[11]).unwrap());
    }

    #[test]
    fn intersect_disjoint_is_empty() {
        let s = interval(0, 3).intersect(&interval(5, 8)).unwrap();
        assert!(s.is_empty().unwrap());
    }

    #[test]
    fn subtract_middle_splits() {
        let s = interval(0, 10).subtract(&interval(4, 6)).unwrap();
        for i in -1..12 {
            let expect = (0..=10).contains(&i) && !(4..=6).contains(&i);
            assert_eq!(s.contains(&[i]).unwrap(), expect, "i = {i}");
        }
    }

    #[test]
    fn subtract_self_is_empty() {
        let s = interval(0, 10);
        assert!(s.subtract(&s).unwrap().is_empty().unwrap());
    }

    #[test]
    fn subset_and_equality() {
        let a = interval(2, 5);
        let b = interval(0, 10);
        assert!(a.is_subset(&b).unwrap());
        assert!(!b.is_subset(&a).unwrap());
        assert!(!a.is_equal(&b).unwrap());
        let c = interval(0, 5).union(&interval(5, 10)).unwrap();
        assert!(c.is_equal(&b).unwrap());
    }

    #[test]
    fn empty_and_universe() {
        let e = Set::empty(sp1());
        assert!(e.is_empty().unwrap());
        let u = Set::universe(sp1());
        assert!(!u.is_empty().unwrap());
        assert!(e.is_subset(&u).unwrap());
        assert!(u.subtract(&e).unwrap().is_equal(&u).unwrap());
    }

    #[test]
    fn coalesce_merges_adjacent_intervals() {
        // [0,4] ∪ [5,9] is exactly [0,9] over the integers.
        let s = interval(0, 4).union(&interval(5, 9)).unwrap();
        let c = s.coalesce().unwrap();
        assert_eq!(c.n_basic(), 1);
        assert!(c.is_equal(&interval(0, 9)).unwrap());
        // [0,4] ∪ [6,9] has a hole at 5 and must stay two disjuncts.
        let gap = interval(0, 4).union(&interval(6, 9)).unwrap();
        assert_eq!(gap.coalesce().unwrap().n_basic(), 2);
    }

    #[test]
    fn coalesce_merges_shifted_equalities() {
        // { [i, x] : x = 2i } ∪ { x = 2i + 1 } ∪ { x = 2i + 2 } collapses
        // to the slab 2i ≤ x ≤ 2i + 2 — the downsample-footprint shape.
        let sp = Space::set(&[], Tuple::new(Some("S"), &["i", "x"]));
        let i = AffExpr::dim(&sp, 0).unwrap();
        let x = AffExpr::dim(&sp, 1).unwrap();
        let line = |off: i64| {
            let rhs = i.scale(2).unwrap().with_constant(off);
            Set::from_basic(
                BasicSet::universe(sp.clone())
                    .constrain(&x.eq(&rhs).unwrap())
                    .unwrap(),
            )
        };
        let s = line(0).union(&line(1)).unwrap().union(&line(2)).unwrap();
        let c = s.coalesce().unwrap();
        assert_eq!(c.n_basic(), 1);
        assert!(c.is_equal(&s).unwrap());
        assert!(c.contains(&[3, 7]).unwrap());
        assert!(!c.contains(&[3, 9]).unwrap());
    }

    #[test]
    fn simple_hull_bounds_the_union() {
        let s = interval(0, 3).union(&interval(8, 10)).unwrap();
        let h = s.simple_hull().unwrap();
        assert_eq!(h.n_basic(), 1);
        // Over-approximation: contains the gap, keeps the outer bounds.
        assert!(s.is_subset(&h).unwrap());
        assert!(h.is_equal(&interval(0, 10)).unwrap());
    }

    #[test]
    fn coalesce_removes_subsumed() {
        let s = interval(0, 10).union(&interval(2, 5)).unwrap();
        let c = s.coalesce().unwrap();
        assert_eq!(c.n_basic(), 1);
        assert!(c.is_equal(&interval(0, 10)).unwrap());
    }

    #[test]
    fn rect_hull_of_union() {
        let sp = Space::set(&[], Tuple::new(Some("S"), &["i", "j"]));
        let i = AffExpr::dim(&sp, 0).unwrap();
        let j = AffExpr::dim(&sp, 1).unwrap();
        let mk = |ilo: i64, ihi: i64, jlo: i64, jhi: i64| {
            BasicSet::universe(sp.clone())
                .constrain(&i.ge(&AffExpr::constant(&sp, ilo)).unwrap())
                .unwrap()
                .constrain(&i.le(&AffExpr::constant(&sp, ihi)).unwrap())
                .unwrap()
                .constrain(&j.ge(&AffExpr::constant(&sp, jlo)).unwrap())
                .unwrap()
                .constrain(&j.le(&AffExpr::constant(&sp, jhi)).unwrap())
                .unwrap()
        };
        let s = Set::from_basic(mk(0, 2, 0, 1))
            .union(&Set::from_basic(mk(5, 6, -1, 0)))
            .unwrap();
        let h = s.rect_hull(&[]).unwrap().unwrap();
        assert_eq!(h, vec![(0, 6), (-1, 1)]);
        let e = Set::empty(sp.clone());
        assert_eq!(e.rect_hull(&[]).unwrap(), None);
    }

    #[test]
    fn count_points_interval() {
        assert_eq!(interval(0, 9).count_points(&[]).unwrap(), 10);
        assert_eq!(
            interval(0, 3)
                .union(&interval(2, 5))
                .unwrap()
                .count_points(&[])
                .unwrap(),
            6
        );
    }

    #[test]
    fn fixed_params_binds_all() {
        let sp = Space::set(&["N"], Tuple::new(Some("S"), &["i"]));
        let i = AffExpr::dim(&sp, 0).unwrap();
        let n = AffExpr::param(&sp, 0).unwrap();
        let b = BasicSet::universe(sp.clone())
            .constrain(&i.ge(&AffExpr::zero(&sp)).unwrap())
            .unwrap()
            .constrain(&i.lt(&n).unwrap())
            .unwrap();
        let s = Set::from_basic(b).fixed_params(&[4]).unwrap();
        assert_eq!(s.count_points(&[4]).unwrap(), 4);
        assert!(Set::from_basic(BasicSet::universe(sp))
            .fixed_params(&[1, 2])
            .is_err());
    }

    #[test]
    fn subtract_strided_set_uses_residue_complement() {
        // { S[i] : ∃q: i = 3q, 0 <= q <= 3 } — a strided set whose
        // existential witness survives projection.
        let m: crate::Map = "{ T[q] -> S[3q] : 0 <= q <= 3 }".parse().unwrap();
        let strided = m.range().unwrap();
        assert!(strided.basics().iter().any(|b| b.n_div() > 0) || strided.n_basic() > 1);
        let all = interval(0, 9).cast(strided.space().clone()).unwrap();
        let diff = all.subtract(&strided).unwrap();
        for i in 0..=9 {
            let expect = i % 3 != 0;
            assert_eq!(diff.contains(&[i]).unwrap(), expect, "i = {i}: {diff}");
        }
        // And the reverse: strided − all = ∅.
        assert!(strided.subtract(&all).unwrap().is_empty().unwrap());
    }

    #[test]
    fn strided_sets_compare_exactly() {
        let m3: crate::Map = "{ T[q] -> S[3q] : 0 <= q <= 3 }".parse().unwrap();
        let m6: crate::Map = "{ T[q] -> S[6q] : 0 <= q <= 1 }".parse().unwrap();
        let s3 = m3.range().unwrap();
        let s6 = m6.range().unwrap();
        assert!(s6.is_subset(&s3).unwrap());
        assert!(!s3.is_subset(&s6).unwrap());
    }

    #[test]
    fn project_out_dims_set_level() {
        let sp = Space::set(&[], Tuple::new(Some("S"), &["i", "j"]));
        let i = AffExpr::dim(&sp, 0).unwrap();
        let j = AffExpr::dim(&sp, 1).unwrap();
        let b = BasicSet::universe(sp.clone())
            .constrain(&i.ge(&AffExpr::zero(&sp)).unwrap())
            .unwrap()
            .constrain(&i.le(&AffExpr::constant(&sp, 4)).unwrap())
            .unwrap()
            .constrain(&j.eq(&i).unwrap())
            .unwrap();
        let p = Set::from_basic(b).project_out_dims(0, 1).unwrap();
        assert_eq!(p.space().n_dim(), 1);
        for v in -1..7 {
            assert_eq!(p.contains(&[v]).unwrap(), (0..=4).contains(&v), "v={v}");
        }
    }
}
