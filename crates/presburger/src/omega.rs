//! Exact integer variable elimination and feasibility: the Omega test.
//!
//! This module works on raw constraint rows. A [`System`] holds equality rows
//! (`row · (vars, 1) == 0`) and inequality rows (`row · (vars, 1) >= 0`) over
//! `n_vars` variable columns plus one trailing constant column.
//!
//! Two clients:
//! * [`feasible`] — exact integer satisfiability (all variables existential),
//!   used for emptiness tests;
//! * [`eliminate_col`] — exact projection of a single variable, returning a
//!   *union* of systems (dark shadow + splinters when the dark shadow is
//!   smaller than the real one, i.e. when Fourier–Motzkin alone could
//!   over-approximate). Eliminating a variable may introduce fresh
//!   trailing columns (divisibility witnesses from non-unit equality
//!   elimination); callers treat those as existentials.
//!
//! References: W. Pugh, "The Omega Test: a fast and practical integer
//! programming algorithm for dependence analysis", Supercomputing '91.

use crate::error::Result;
use crate::lin;

/// A raw constraint system: rows over `n_vars` columns plus a constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct System {
    /// Number of variable columns (constant column excluded).
    pub n_vars: usize,
    /// Equality rows: `row · (vars, 1) == 0`.
    pub eqs: Vec<Vec<i64>>,
    /// Inequality rows: `row · (vars, 1) >= 0`.
    pub ineqs: Vec<Vec<i64>>,
}

impl System {
    pub(crate) fn new(n_vars: usize) -> Self {
        System {
            n_vars,
            eqs: Vec::new(),
            ineqs: Vec::new(),
        }
    }

    fn cols(&self) -> usize {
        self.n_vars + 1
    }

    /// Removes variable column `col` from every row (the coefficient must
    /// already be zero everywhere).
    fn drop_col(&mut self, col: usize) {
        debug_assert!(self.eqs.iter().chain(&self.ineqs).all(|r| r[col] == 0));
        for r in self.eqs.iter_mut().chain(self.ineqs.iter_mut()) {
            r.remove(col);
        }
        self.n_vars -= 1;
    }

    /// Appends a fresh variable column (zero coefficients) before the
    /// constant column; returns its index.
    fn push_col(&mut self) -> usize {
        let at = self.n_vars;
        for r in self.eqs.iter_mut().chain(self.ineqs.iter_mut()) {
            r.insert(at, 0);
        }
        self.n_vars += 1;
        at
    }

    /// A quick consistency scan: `Some(false)` if some row is trivially
    /// unsatisfiable, `Some(true)` if there are no constraints left,
    /// `None` if undecided. Trivial rows (no variable coefficients) are
    /// removed as a side effect.
    fn triage(&mut self) -> Option<bool> {
        let mut contradiction = false;
        self.eqs.retain(|r| {
            if r[..r.len() - 1].iter().all(|&c| c == 0) {
                if r[r.len() - 1] != 0 {
                    contradiction = true;
                }
                false
            } else {
                true
            }
        });
        self.ineqs.retain(|r| {
            if r[..r.len() - 1].iter().all(|&c| c == 0) {
                if r[r.len() - 1] < 0 {
                    contradiction = true;
                }
                false
            } else {
                true
            }
        });
        if contradiction {
            Some(false)
        } else if self.eqs.is_empty() && self.ineqs.is_empty() {
            Some(true)
        } else {
            None
        }
    }

    /// Normalizes every row (GCD reduction with integer tightening for
    /// inequalities) and checks equality GCD solvability.
    /// Returns `false` if a contradiction was detected.
    fn normalize(&mut self) -> bool {
        for r in &mut self.eqs {
            let n = r.len();
            let g = lin::gcd_slice(&r[..n - 1]);
            if g == 0 {
                continue; // handled by triage
            }
            // gcd test: g must divide the constant, else infeasible.
            if r[n - 1] % g != 0 {
                return false;
            }
            if g > 1 {
                for x in r.iter_mut() {
                    *x /= g;
                }
            }
        }
        for r in &mut self.ineqs {
            lin::normalize_ineq_row(r);
        }
        true
    }

    /// Substitutes variable `col` using equality row `eq` in which `col` has
    /// coefficient ±1, into all constraints; the equality itself and the
    /// column are removed.
    fn substitute_unit(&mut self, eq_idx: usize, col: usize) -> Result<()> {
        let eq = self.eqs.remove(eq_idx);
        let a = eq[col];
        debug_assert!(a == 1 || a == -1);
        // col = -a * (eq - a*col)  i.e. for a=1: col = -(rest); a=-1: col = rest.
        for r in self.eqs.iter_mut().chain(self.ineqs.iter_mut()) {
            let c = r[col];
            if c == 0 {
                continue;
            }
            // r := r - (c/a) * eq ; since a = ±1, c/a = c*a.
            let k = -(c * a);
            lin::row_add_mul(r, &eq, k)?;
            debug_assert_eq!(r[col], 0);
        }
        self.drop_col(col);
        Ok(())
    }

    /// Removes duplicate rows and inequalities dominated by another row
    /// with identical coefficients and a tighter constant. Keeps the row
    /// count from squaring across successive Fourier–Motzkin steps.
    fn prune(&mut self) {
        self.eqs.sort();
        self.eqs.dedup();
        // For inequalities `coeffs·x + c >= 0`, a smaller `c` is tighter;
        // keep only the tightest row per coefficient vector.
        self.ineqs.sort();
        self.ineqs.dedup_by(|a, b| {
            let n = a.len() - 1;
            a[..n] == b[..n] && {
                // `dedup_by` removes `a` when true and keeps `b` (the
                // earlier element); after sort the earlier has smaller
                // constant, which is the tighter one.
                true
            }
        });
    }

    /// Evaluates the system at a full assignment (for tests).
    #[cfg(test)]
    fn satisfied_by(&self, point: &[i64]) -> bool {
        self.eqs
            .iter()
            .all(|r| lin::eval_row(r, point).unwrap() == 0)
            && self
                .ineqs
                .iter()
                .all(|r| lin::eval_row(r, point).unwrap() >= 0)
    }
}

/// Elimination budget: a guard against pathological splinter recursion.
const MAX_BRANCHES: usize = 4096;

/// Integer feasibility of `sys` with *all* variables existential: exact,
/// except that a search past `MAX_BRANCHES` answers the conservative
/// `Ok(true)` (deterministic process-wide, counted via `stats`). Charges
/// the governor per elimination step.
pub(crate) fn feasible(sys: &System) -> Result<bool> {
    feasible_impl(sys, true)
}

/// Ungoverned, default-cap feasibility for *diagnostic* call sites
/// (`debug_assert!`): charges no budget and records no fallback, so a
/// consistency check can neither trip the governor nor skew its accounting.
#[allow(dead_code)] // referenced only from debug_assert! expressions
pub(crate) fn feasible_unbounded(sys: &System) -> Result<bool> {
    feasible_impl(sys, false)
}

fn feasible_impl(sys: &System, governed: bool) -> Result<bool> {
    let mut work = vec![sys.clone()];
    let mut steps = 0usize;
    while let Some(mut s) = work.pop() {
        steps += 1;
        if governed {
            tilefuse_trace::governor::tick_omega(1)?;
        }
        if steps > MAX_BRANCHES {
            // Conservative answer: treat as feasible (never claims empty
            // wrongly, so legality checks stay sound). Counted instead of
            // silent so over-approximation is observable.
            if governed {
                crate::stats::record_silent_feasible();
            }
            return Ok(true);
        }
        if !s.normalize() {
            continue;
        }
        match s.triage() {
            Some(true) => return Ok(true),
            Some(false) => continue,
            None => {}
        }
        if s.n_vars == 0 {
            // All rows trivial; triage already decided. Unreachable, but be
            // safe.
            continue;
        }
        // Pick a variable to eliminate: prefer one with a unit equality
        // coefficient, then any equality, then the cheapest FM variable.
        let col = pick_col(&s);
        for branch in eliminate_col_inner(s, col, false)? {
            work.push(branch);
        }
    }
    Ok(false)
}

/// Chooses the next variable to eliminate.
fn pick_col(s: &System) -> usize {
    // Unit coefficient in an equality: free elimination.
    for eq in &s.eqs {
        for (c, &v) in eq[..s.n_vars].iter().enumerate() {
            if v == 1 || v == -1 {
                return c;
            }
        }
    }
    // Variable with the smallest non-zero |coefficient| in an equality —
    // Pugh's choice, which makes the sigma reduction shrink coefficients.
    let mut best_eq: Option<(i64, usize)> = None;
    for eq in &s.eqs {
        for (c, &v) in eq[..s.n_vars].iter().enumerate() {
            if v != 0 {
                let key = v.abs();
                if best_eq.is_none_or(|(k, _)| key < k) {
                    best_eq = Some((key, c));
                }
            }
        }
    }
    if let Some((_, c)) = best_eq {
        return c;
    }
    // Cheapest Fourier–Motzkin candidate: minimize (#lower * #upper),
    // breaking ties towards unit coefficients (exact FM).
    let mut best = 0;
    let mut best_cost = usize::MAX;
    for c in 0..s.n_vars {
        let mut lo = 0usize;
        let mut hi = 0usize;
        let mut unit = true;
        for r in &s.ineqs {
            if r[c] > 0 {
                lo += 1;
                if r[c] != 1 {
                    unit = false;
                }
            } else if r[c] < 0 {
                hi += 1;
                if r[c] != -1 {
                    unit = false;
                }
            }
        }
        if lo == 0 && hi == 0 {
            continue;
        }
        let cost = lo * hi * if unit { 1 } else { 4 };
        if cost < best_cost {
            best_cost = cost;
            best = c;
        }
    }
    best
}

/// Exact elimination of variable column `col`.
///
/// Returns a union of systems, none of which mentions `col` (the column is
/// removed, so all result systems have one fewer column *at that index*;
/// fresh trailing witness columns may have been appended).
pub(crate) fn eliminate_col(sys: &System, col: usize) -> Result<Vec<System>> {
    // One governed op per projection step: coarse (a whole elimination,
    // not a branch), but enough for the op budget to bound projection work
    // and for bulk charges to poll the deadline.
    tilefuse_trace::governor::tick_omega(1)?;
    eliminate_col_inner(sys.clone(), col, true)
}

fn eliminate_col_inner(mut s: System, col: usize, for_projection: bool) -> Result<Vec<System>> {
    debug_assert!(col < s.n_vars);
    if !s.normalize() {
        return Ok(vec![]);
    }
    // 1. Equality with this column?
    if let Some(idx) = s.eqs.iter().position(|r| r[col] != 0) {
        let a = s.eqs[idx][col];
        if a == 1 || a == -1 {
            s.substitute_unit(idx, col)?;
            return Ok(vec![s]);
        }
        // Try to find an equality where col *is* unit before doing work.
        if let Some(u) = s.eqs.iter().position(|r| r[col] == 1 || r[col] == -1) {
            s.substitute_unit(u, col)?;
            return Ok(vec![s]);
        }
        if for_projection {
            // Scaling elimination: remove `col` from every other
            // constraint by scaling (sound over the integers), then keep
            // the defining equality with `col` renamed into a fresh
            // trailing witness — a *pure divisibility* constraint the
            // complement machinery understands.
            return eliminate_nonunit_equality_scaling(s, col, idx);
        }
        // Feasibility: Pugh's mod-hat reduction shrinks coefficients and
        // terminates.
        return eliminate_nonunit_equality(s, col, idx);
    }
    // 2. Pure inequality elimination: Fourier–Motzkin with exactness repair.
    eliminate_fm(s, col, for_projection)
}

/// Removes `col` from all constraints except its defining equality by
/// scaling, then moves the column into a fresh trailing witness position.
fn eliminate_nonunit_equality_scaling(
    mut s: System,
    col: usize,
    idx: usize,
) -> Result<Vec<System>> {
    let eq = s.eqs[idx].clone();
    let a = eq[col];
    let scale = a.unsigned_abs() as i64;
    for (i, r) in s.eqs.iter_mut().enumerate() {
        if i == idx || r[col] == 0 {
            continue;
        }
        // |a|·r − sign(a)·c·eq cancels col.
        let c = r[col];
        let combined = lin::row_combine(scale, r, -a.signum() * c, &eq)?;
        *r = combined;
        debug_assert_eq!(r[col], 0);
        lin::normalize_eq_row(r);
    }
    for r in s.ineqs.iter_mut() {
        if r[col] == 0 {
            continue;
        }
        let c = r[col];
        let combined = lin::row_combine(scale, r, -a.signum() * c, &eq)?;
        *r = combined;
        debug_assert_eq!(r[col], 0);
        lin::normalize_ineq_row(r);
    }
    // Move `col`'s role into a fresh trailing witness column.
    let q = s.push_col();
    s.eqs[idx][q] = a;
    s.eqs[idx][col] = 0;
    s.drop_col(col);
    s.prune();
    Ok(vec![s])
}

/// Pugh's equality reduction: given `eqs[idx]` with non-unit coefficient on
/// `col`, introduce witness variables until some equality has coefficient ±1
/// on `col`, then substitute.
fn eliminate_nonunit_equality(mut s: System, col: usize, idx: usize) -> Result<Vec<System>> {
    let eq = s.eqs[idx].clone();
    let a = eq[col].unsigned_abs() as i64;
    debug_assert!(a > 1);
    let m = a + 1;
    // sigma = sum mod_hat(c_i, m) x_i + mod_hat(const, m), with
    // m | (that sum); introduce sigma as a fresh variable:
    //   sum mod_hat(c_i, m) x_i + mod_hat(c, m) - m*sigma = 0
    // One application suffices to make `col` unit: mod_hat(±a, a+1) = ∓1.
    let sigma = s.push_col();
    let cols = s.cols();
    let mut new_eq = vec![0i64; cols];
    for (i, item) in new_eq.iter_mut().enumerate().take(cols) {
        if i == sigma {
            *item = -m;
        } else {
            // Map old row positions: positions >= sigma shifted by one.
            let old = if i < sigma { i } else { i - 1 };
            *item = lin::mod_hat(eq[old], m);
        }
    }
    debug_assert!(new_eq[col] == 1 || new_eq[col] == -1);
    s.eqs.push(new_eq);
    let new_idx = s.eqs.len() - 1;
    s.substitute_unit(new_idx, col)?;
    Ok(vec![s])
}

/// Fourier–Motzkin elimination of `col` with the Omega test's exactness
/// repair (dark shadow + splinters) when the dark shadow is strictly
/// smaller than the real shadow.
fn eliminate_fm(mut s: System, col: usize, for_projection: bool) -> Result<Vec<System>> {
    let mut lowers = Vec::new(); // rows with positive coefficient on col
    let mut uppers = Vec::new(); // rows with negative coefficient on col
    let mut rest = Vec::new();
    for r in std::mem::take(&mut s.ineqs) {
        if r[col] > 0 {
            lowers.push(r);
        } else if r[col] < 0 {
            uppers.push(r);
        } else {
            rest.push(r);
        }
    }
    // Unconstrained in one direction: projection drops all rows mentioning
    // the variable.
    if lowers.is_empty() || uppers.is_empty() {
        s.ineqs = rest;
        s.drop_col(col);
        return Ok(vec![s]);
    }

    // Per (lower, upper) pair
    //   lower: a*x + e_L >= 0, upper: -b*x + e_U >= 0  (a, b > 0)
    // the real shadow has `b*e_L + a*e_U >= 0` and the dark shadow the same
    // row with the slack `(a-1)(b-1)` subtracted. Dark shadow ⊆ integer
    // projection ⊆ real shadow, and `normalize_ineq_row` keeps a row's
    // integer points, so when every pair's two rows normalize to the same
    // row — always for a unit coefficient; also e.g. `4t <= h <= 4t+3`,
    // where both are variable-free and satisfied — the three sets coincide
    // and the real shadow alone is the exact projection: no splinters.
    let mut shadow = s.clone();
    shadow.ineqs = rest.clone();
    // (index into `shadow.ineqs`, dark row) where the two rows differ.
    let mut darker: Vec<(usize, Vec<i64>)> = Vec::new();
    for lo in &lowers {
        let a = lo[col];
        for up in &uppers {
            let b = -up[col];
            let mut row = lin::row_combine(b, lo, a, up)?;
            row[col] = 0;
            lin::normalize_ineq_row(&mut row);
            let slack = (a - 1) * (b - 1);
            if slack != 0 {
                // No gcd reduction before subtracting the slack: it is
                // defined against the raw combination.
                let mut d = lin::row_combine_raw(b, lo, a, up)?;
                d[col] = 0;
                let cc = d.len() - 1;
                d[cc] = lin::add(d[cc], -slack)?;
                lin::normalize_ineq_row(&mut d);
                let satisfied = d[cc] >= 0 && d[..cc].iter().all(|&c| c == 0);
                if !satisfied && d != row {
                    darker.push((shadow.ineqs.len(), d));
                }
            }
            shadow.ineqs.push(row);
        }
    }

    if darker.is_empty() {
        shadow.drop_col(col);
        shadow.prune();
        return Ok(vec![shadow]);
    }

    let mut dark = shadow;
    for (i, d) in darker {
        dark.ineqs[i] = d;
    }
    dark.drop_col(col);
    dark.prune();
    let mut out = vec![dark];

    // Splinters: any integer point in the real shadow missed by the dark
    // shadow has a*x = -e_L + j for some lower bound and small j.
    let b_max = uppers.iter().map(|r| -r[col]).max().unwrap();
    for lo in &lowers {
        let a = lo[col];
        if a == 1 {
            continue; // unit lower bounds never splinter
        }
        // j ranges over 0 ..= (a*b_max - a - b_max) / b_max  (Pugh '91).
        let j_max = (a * b_max - a - b_max) / b_max;
        for j in 0..=j_max {
            let mut sp = s.clone();
            sp.ineqs = rest.clone();
            sp.ineqs.extend(lowers.iter().cloned());
            sp.ineqs.extend(uppers.iter().cloned());
            // a*x + e_L - j = 0
            let mut eq = lo.clone();
            let cc = eq.len() - 1;
            eq[cc] = lin::add(eq[cc], -j)?;
            sp.eqs.push(eq);
            // Recurse: the equality now admits elimination of `col`.
            out.extend(eliminate_col_inner(sp, col, for_projection)?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a system over `n` variables from (eqs, ineqs) row lists.
    fn sys(n: usize, eqs: &[&[i64]], ineqs: &[&[i64]]) -> System {
        System {
            n_vars: n,
            eqs: eqs.iter().map(|r| r.to_vec()).collect(),
            ineqs: ineqs.iter().map(|r| r.to_vec()).collect(),
        }
    }

    /// Whether some system of the union `rs` holds with column 0 fixed to
    /// `y`; trailing witness columns are existential.
    fn admits(rs: &[System], y: i64) -> bool {
        rs.iter().any(|r| {
            let mut fixed = r.clone();
            let mut eq = vec![0i64; fixed.cols()];
            eq[0] = 1;
            *eq.last_mut().unwrap() = -y;
            fixed.eqs.push(eq);
            feasible(&fixed).unwrap()
        })
    }

    #[test]
    fn feasible_simple_box() {
        // 0 <= x <= 5
        let s = sys(1, &[], &[&[1, 0], &[-1, 5]]);
        assert!(feasible(&s).unwrap());
    }

    #[test]
    fn infeasible_contradiction() {
        // x >= 3 and x <= 2
        let s = sys(1, &[], &[&[1, -3], &[-1, 2]]);
        assert!(!feasible(&s).unwrap());
    }

    #[test]
    fn equality_gcd_test() {
        // 2x = 5 has no integer solution.
        let s = sys(1, &[&[2, -5]], &[]);
        assert!(!feasible(&s).unwrap());
        // 2x = 6 does.
        let s = sys(1, &[&[2, -6]], &[]);
        assert!(feasible(&s).unwrap());
    }

    #[test]
    fn dark_shadow_catches_integer_gap() {
        // 2x <= 2y-1 <= 2x+1 has no integer solutions for y... check:
        // 2y - 1 >= 2x  ->  -2x + 2y - 1 >= 0
        // 2y - 1 <= 2x + 1 -> 2x - 2y + 2 >= 0
        // Eliminate y: lower on y: 2y >= 2x + 1; upper: 2y <= 2x + 2.
        // Real shadow ok (x any), but y must satisfy 2x+1 <= 2y <= 2x+2:
        // 2y = 2x+2 works (y = x+1). So actually feasible.
        let s = sys(2, &[], &[&[-2, 2, -1], &[2, -2, 2]]);
        assert!(feasible(&s).unwrap());
        // Tighten: 2x+1 <= 2y <= 2x+1 -> 2y = 2x+1, infeasible (parity).
        let s = sys(2, &[], &[&[-2, 2, -1], &[2, -2, 1]]);
        assert!(!feasible(&s).unwrap());
    }

    #[test]
    fn classic_omega_example() {
        // From Pugh '91: 27 <= 11x + 13y <= 45, -10 <= 7x - 9y <= 4
        // (has integer solutions, e.g. x = 3, y = 1: 33+13=46? no...)
        // Check x=1..: 11x+13y in [27,45]. x=1,y=2: 37 ok; 7-18=-11 no.
        // x=3,y=1: 33+13=46 no. x=2,y=1: 35 ok; 14-9=5 no. x=1,y=1: 24 no.
        // x=2,y=2: 48 no. x=0,y=3: 39 ok; -27 no. x=3,y=0: 33 ok; 21 no.
        // x=4,y=0: 44 ok; 28 no. x=0,y=2: 26 no. Pugh's famous example is
        // infeasible over integers (it is the standard dark-shadow demo).
        let s = sys(
            2,
            &[],
            &[
                &[11, 13, -27],  // 11x + 13y - 27 >= 0
                &[-11, -13, 45], // 45 - 11x - 13y >= 0
                &[7, -9, 10],    // 7x - 9y + 10 >= 0
                &[-7, 9, 4],     // 4 - 7x + 9y >= 0
            ],
        );
        assert!(!feasible(&s).unwrap());
    }

    #[test]
    fn eliminate_unit_fm_is_exact() {
        // 0 <= x <= 9, x <= y <= x+2, eliminate x:
        // expected: 0 <= y <= 11 (y >= x >= 0 and y <= x+2 <= 11).
        let s = sys(
            2,
            &[],
            &[
                &[1, 0, 0],  // x >= 0
                &[-1, 0, 9], // x <= 9
                &[-1, 1, 0], // y >= x
                &[1, -1, 2], // y <= x + 2
            ],
        );
        let rs = eliminate_col(&s, 0).unwrap();
        assert_eq!(rs.len(), 1);
        let r = &rs[0];
        assert_eq!(r.n_vars, 1);
        // Check semantics by sampling y in -2..14.
        for y in -2..14 {
            let expect = (0..=9).any(|x| y >= x && y <= x + 2);
            let got = r
                .eqs
                .iter()
                .all(|row| lin::eval_row(row, &[y]).unwrap() == 0)
                && r.ineqs
                    .iter()
                    .all(|row| lin::eval_row(row, &[y]).unwrap() >= 0);
            assert_eq!(got, expect, "y = {y}");
        }
    }

    #[test]
    fn eliminate_nonunit_exact_via_splinters() {
        // S = { (x, y) : 3x <= y <= 3x + 1, 0 <= x <= 4 }.
        // Projection onto y: y in {0,1,3,4,6,7,9,10,12,13} — NOT an interval;
        // exact elimination must return a union covering exactly these.
        let s = sys(
            2,
            &[],
            &[
                &[-3, 1, 0], // y - 3x >= 0
                &[3, -1, 1], // 3x + 1 - y >= 0
                &[1, 0, 0],  // x >= 0
                &[-1, 0, 4], // x <= 4
            ],
        );
        let rs = eliminate_col(&s, 0).unwrap();
        assert!(!rs.is_empty());
        for y in -3..16 {
            let expect = (0..=4).any(|x| 3 * x <= y && y <= 3 * x + 1);
            // y is now column 0.
            assert_eq!(admits(&rs, y), expect, "y = {y}");
        }
    }

    #[test]
    fn equal_shadows_need_no_splinters() {
        // { (t, h, N) : 4t <= h <= 4t + 3, 0 <= h < N }: every h lies in
        // some tile, so the dark-shadow row (3 >= 0) says what the
        // real-shadow row (12 >= 0) says and the projection is one
        // div-free system.
        let s = sys(
            3,
            &[],
            &[
                &[-4, 1, 0, 0],  // h - 4t >= 0
                &[4, -1, 0, 3],  // 4t + 3 - h >= 0
                &[0, 1, 0, 0],   // h >= 0
                &[0, -1, 1, -1], // N - 1 - h >= 0
            ],
        );
        let rs = eliminate_col(&s, 0).unwrap();
        assert_eq!(rs.len(), 1, "{rs:?}");
        assert_eq!(rs[0].n_vars, 2, "a witness column appeared: {rs:?}");
        assert!(rs[0].eqs.is_empty());
        for h in -2..8 {
            for n in 0..8 {
                assert_eq!(rs[0].satisfied_by(&[h, n]), 0 <= h && h < n, "h={h} N={n}");
            }
        }
        // 4t <= h <= 4t + 2 skips h = 3 (mod 4): the dark row reads
        // -1 >= 0, so this one must still splinter.
        let s = sys(2, &[], &[&[-4, 1, 0], &[4, -1, 2]]);
        let rs = eliminate_col(&s, 0).unwrap();
        assert!(rs.len() > 1, "{rs:?}");
        for h in -9i64..9 {
            assert_eq!(admits(&rs, h), h.rem_euclid(4) != 3, "h = {h}");
        }
    }

    #[test]
    fn eliminate_nonunit_equality_keeps_divisibility() {
        // { (x, y) : 3x = y, 0 <= y <= 9 } projected onto y must be the
        // multiples of 3 in [0, 9].
        let s = sys(
            2,
            &[&[3, -1, 0]], // 3x - y = 0
            &[&[0, 1, 0], &[0, -1, 9]],
        );
        let rs = eliminate_col(&s, 0).unwrap();
        for y in -2..12 {
            let expect = (0..=9).contains(&y) && y % 3 == 0;
            assert_eq!(admits(&rs, y), expect, "y = {y}");
        }
    }

    #[test]
    fn scaling_elimination_keeps_pure_divisibility_witness() {
        // { (x, y) : 3x = y, 0 <= y <= 9, y >= x } — eliminate x for
        // projection. The witness must appear in exactly one equality and
        // no inequality (so the complement machinery can negate it).
        let s = sys(2, &[&[3, -1, 0]], &[&[0, 1, 0], &[0, -1, 9], &[-1, 1, 0]]);
        let rs = eliminate_col(&s, 0).unwrap();
        assert_eq!(rs.len(), 1);
        let r = &rs[0];
        // Column layout now: [y, q]. q appears only in the equality.
        assert_eq!(r.n_vars, 2);
        let q_col = 1;
        assert!(r.ineqs.iter().all(|row| row[q_col] == 0), "{:?}", r.ineqs);
        assert_eq!(r.eqs.iter().filter(|row| row[q_col] != 0).count(), 1);
        // Semantics: y in {0, 3, 6, 9} (y = 3x and y >= x forces x >= 0).
        for y in -1..11 {
            let expect = (0..=9).contains(&y) && y % 3 == 0;
            assert_eq!(admits(&rs, y), expect, "y = {y}");
        }
    }

    #[test]
    fn prune_drops_dominated_inequalities() {
        let mut s = sys(1, &[], &[&[1, 0], &[1, 5], &[1, 0], &[-1, 9]]);
        s.prune();
        // x >= 0 dominates x >= 5? No: smaller constant is tighter; the
        // kept row per coefficient vector is the tightest one.
        assert_eq!(s.ineqs.len(), 2);
        assert!(s.ineqs.contains(&vec![1, 0]));
        assert!(s.ineqs.contains(&vec![-1, 9]));
    }

    #[test]
    fn substitution_preserves_solutions() {
        // x = y + 1, 0 <= x <= 3  -- eliminate x, expect -1 <= y <= 2.
        let s = sys(2, &[&[1, -1, -1]], &[&[1, 0, 0], &[-1, 0, 3]]);
        let rs = eliminate_col(&s, 0).unwrap();
        assert_eq!(rs.len(), 1);
        let r = &rs[0];
        for y in -4..6 {
            let expect = (-1..=2).contains(&y);
            let got = r
                .ineqs
                .iter()
                .all(|row| lin::eval_row(row, &[y]).unwrap() >= 0)
                && r.eqs
                    .iter()
                    .all(|row| lin::eval_row(row, &[y]).unwrap() == 0);
            assert_eq!(got, expect, "y = {y}");
        }
    }

    #[test]
    fn unbounded_direction_drops_constraints() {
        // x <= y, eliminate x (no lower bound on x): result is everything.
        let s = sys(2, &[], &[&[-1, 1, 0]]);
        let rs = eliminate_col(&s, 0).unwrap();
        assert_eq!(rs.len(), 1);
        assert!(rs[0].ineqs.is_empty());
        assert_eq!(rs[0].n_vars, 1);
    }

    #[test]
    fn satisfied_by_helper() {
        let s = sys(2, &[&[1, -1, 0]], &[&[1, 0, 0]]);
        assert!(s.satisfied_by(&[2, 2]));
        assert!(!s.satisfied_by(&[2, 3]));
        assert!(!s.satisfied_by(&[-1, -1]));
    }

    #[test]
    fn feasible_with_equalities_and_inequalities() {
        // x = 2y, x >= 3, x <= 5 -> x = 4, y = 2.
        let s = sys(2, &[&[1, -2, 0]], &[&[1, 0, -3], &[-1, 0, 5]]);
        assert!(feasible(&s).unwrap());
        // x = 2y, x >= 3, x <= 3 -> x = 3 odd, infeasible.
        let s = sys(2, &[&[1, -2, 0]], &[&[1, 0, -3], &[-1, 0, 3]]);
        assert!(!feasible(&s).unwrap());
    }
}
