//! Property-based tests of the set/map algebra.
//!
//! The Omega-test implementation is compared against brute-force
//! enumeration on bounded random systems, and the algebra is checked
//! against its laws. Randomness comes from a small deterministic
//! xorshift generator so the suite is reproducible and has no external
//! dependencies.

use std::sync::{Mutex, MutexGuard, PoisonError};
use tilefuse_presburger::{stats, AffExpr, BasicSet, Map, Set, Space, Tuple};

/// Two tests toggle the process-global memo switch and one of them reads
/// the process-global hit/miss counters around single calls, so every
/// test in this binary serializes on this lock.
static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Deterministic xorshift64* PRNG; good enough for test-case generation.
#[derive(Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }

    /// Uniform value in `lo..hi` (half-open).
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi);
        lo + (self.next() % (hi - lo) as u64) as i64
    }

    /// Up to `max_n - 1` random `(a, c, k)` constraint triples.
    fn extras(&mut self, max_n: u64, c: i64, k: i64) -> Vec<(i64, i64, i64)> {
        let n = self.next() % max_n;
        (0..n)
            .map(|_| {
                (
                    self.range(-c, c + 1),
                    self.range(-c, c + 1),
                    self.range(-k, k + 1),
                )
            })
            .collect()
    }
}

const CASES: u64 = 64;

/// A random bounded basic set over two dims: a box plus `extra` random
/// affine inequalities.
fn random_set(ilo: i64, ihi: i64, jlo: i64, jhi: i64, extra: &[(i64, i64, i64)]) -> BasicSet {
    let sp = Space::set(&[], Tuple::new(Some("S"), &["i", "j"]));
    let i = AffExpr::dim(&sp, 0).unwrap();
    let j = AffExpr::dim(&sp, 1).unwrap();
    let mut b = BasicSet::universe(sp.clone());
    b.add_constraint(&i.ge(&AffExpr::constant(&sp, ilo.min(ihi))).unwrap())
        .unwrap();
    b.add_constraint(&i.le(&AffExpr::constant(&sp, ilo.max(ihi))).unwrap())
        .unwrap();
    b.add_constraint(&j.ge(&AffExpr::constant(&sp, jlo.min(jhi))).unwrap())
        .unwrap();
    b.add_constraint(&j.le(&AffExpr::constant(&sp, jlo.max(jhi))).unwrap())
        .unwrap();
    for &(a, c, k) in extra {
        // a*i + c*j + k >= 0
        let e = AffExpr::zero(&sp)
            .with_dim_coeff(0, a)
            .with_dim_coeff(1, c)
            .with_constant(k);
        b.add_constraint(&e.ge_zero()).unwrap();
    }
    b
}

fn brute_points(b: &BasicSet, lo: i64, hi: i64) -> Vec<(i64, i64)> {
    let mut out = Vec::new();
    for i in lo..=hi {
        for j in lo..=hi {
            if b.contains(&[i, j]).unwrap() {
                out.push((i, j));
            }
        }
    }
    out
}

#[test]
fn emptiness_matches_brute_force() {
    let _serial = serial();
    let mut rng = Rng::new(0xe17);
    for _ in 0..CASES {
        let (ilo, ihi) = (rng.range(-6, 6), rng.range(-6, 6));
        let (jlo, jhi) = (rng.range(-6, 6), rng.range(-6, 6));
        let extra = rng.extras(3, 3, 6);
        let b = random_set(ilo, ihi, jlo, jhi, &extra);
        let brute = brute_points(&b, -8, 8);
        assert_eq!(b.is_empty().unwrap(), brute.is_empty(), "set = {b}");
    }
}

/// A random bounded system over `n` dims named `x0..`: a box at most 8 wide
/// per dim, up to three rows with coefficients in `-4..=4`, and in half the
/// cases a strip `a*xt <= xh <= a*xt + r` — the shape tiling produces,
/// whose projection along `xt` is exact without splinters iff `r >= a - 1`.
/// Returns the set and its box.
fn random_system(rng: &mut Rng, n: usize) -> (BasicSet, Vec<(i64, i64)>) {
    let names: Vec<String> = (0..n).map(|d| format!("x{d}")).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let sp = Space::set(&[], Tuple::new(Some("S"), &names));
    let mut b = BasicSet::universe(sp.clone());
    let row = |coeffs: &[i64], k: i64| {
        let e = coeffs
            .iter()
            .enumerate()
            .fold(AffExpr::zero(&sp), |e, (d, &c)| e.with_dim_coeff(d, c));
        e.with_constant(k).ge_zero()
    };
    let unit = |d: usize, c: i64| {
        let mut v = vec![0; n];
        v[d] = c;
        v
    };
    let mut bounds = Vec::new();
    for d in 0..n {
        let lo = rng.range(-4, 1);
        let hi = lo + rng.range(0, 8);
        b.add_constraint(&row(&unit(d, 1), -lo)).unwrap();
        b.add_constraint(&row(&unit(d, -1), hi)).unwrap();
        bounds.push((lo, hi));
    }
    for _ in 0..rng.range(0, 4) {
        let coeffs: Vec<i64> = (0..n).map(|_| rng.range(-4, 5)).collect();
        b.add_constraint(&row(&coeffs, rng.range(-8, 9))).unwrap();
    }
    if rng.range(0, 2) == 0 {
        let t = rng.range(0, n as i64) as usize;
        let h = (t + 1) % n;
        let a = rng.range(2, 5);
        let mut lower = unit(h, 1);
        lower[t] = -a;
        let mut upper = unit(h, -1);
        upper[t] = a;
        b.add_constraint(&row(&lower, 0)).unwrap();
        b.add_constraint(&row(&upper, rng.range(0, a + 1))).unwrap();
    }
    (b, bounds)
}

#[test]
fn projection_is_exact() {
    let _serial = serial();
    // Same cases with the memo on and off: the flag only decides whether
    // work is cached, never a result.
    for memo in [true, false] {
        stats::set_memo_enabled(memo);
        let mut rng = Rng::new(0x9a0);
        for _ in 0..CASES {
            let n = rng.range(2, 4) as usize;
            let (b, bounds) = random_system(&mut rng, n);
            let col = rng.range(0, n as i64) as usize;
            let projected = Set::from_basic(b.clone()).project_out_dims(col, 1).unwrap();
            for_each_kept_point(&bounds, col, &mut |p| {
                assert_eq!(
                    projected.contains(p).unwrap(),
                    shadow_contains(&b, &bounds, col, p),
                    "memo {memo}, {b} without x{col} at {p:?}: {projected}"
                );
            });
        }
    }
    stats::set_memo_enabled(true);
}

/// One bounded random set for the emptiness/counting properties, with the
/// system and box its points are enumerated from: the system itself, or —
/// one case in three — its projection along a hidden last dim tied to a
/// kept one by `x0 = m*e + r`, whose disjuncts carry an existential div.
/// Deterministic in `rng`, so two calls from equal generator states build
/// structurally identical sets out of distinct objects.
fn random_bounded_set(rng: &mut Rng) -> (Set, BasicSet, Vec<(i64, i64)>, Option<usize>) {
    let n = rng.range(2, 4) as usize;
    let (mut b, bounds) = random_system(rng, n);
    if rng.range(0, 3) > 0 {
        return (Set::from_basic(b.clone()), b, bounds, None);
    }
    let e = n - 1;
    let stride = AffExpr::zero(b.space())
        .with_dim_coeff(0, 1)
        .with_dim_coeff(e, -rng.range(2, 5))
        .with_constant(-rng.range(0, 4));
    b.add_constraint(&stride.eq_zero()).unwrap();
    // The basic-set projection, so the disjuncts arrive untested.
    let names: Vec<String> = (0..e).map(|d| format!("x{d}")).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let kept_space = Space::set(&[], Tuple::new(Some("S"), &names));
    let set = Set::from_basics(kept_space, b.project_out_dims(e, 1).unwrap()).unwrap();
    (set, b, bounds, Some(e))
}

/// Calls `f` on every point of the box over the dims other than `hidden`,
/// one step beyond it on each side.
fn for_each_kept_point(bounds: &[(i64, i64)], hidden: usize, f: &mut dyn FnMut(&[i64])) {
    let kept: Vec<(i64, i64)> = (0..bounds.len())
        .filter(|&d| d != hidden)
        .map(|d| (bounds[d].0 - 1, bounds[d].1 + 1))
        .collect();
    let mut p: Vec<i64> = kept.iter().map(|b| b.0).collect();
    'points: loop {
        f(&p);
        for (v, b) in p.iter_mut().zip(&kept) {
            if *v < b.1 {
                *v += 1;
                continue 'points;
            }
            *v = b.0;
        }
        return;
    }
}

/// Whether `b` holds at `p` (the dims other than `hidden`) for some value
/// of `hidden` inside its box.
fn shadow_contains(b: &BasicSet, bounds: &[(i64, i64)], hidden: usize, p: &[i64]) -> bool {
    let mut full = p.to_vec();
    full.insert(hidden, 0);
    (bounds[hidden].0..=bounds[hidden].1).any(|v| {
        full[hidden] = v;
        b.contains(&full).unwrap()
    })
}

/// Number of points of the case's set, by enumerating its box.
fn brute_count(b: &BasicSet, bounds: &[(i64, i64)], hidden: Option<usize>) -> u64 {
    let mut n = 0;
    match hidden {
        Some(h) => for_each_kept_point(bounds, h, &mut |p| {
            n += u64::from(shadow_contains(b, bounds, h, p));
        }),
        None => for_each_kept_point(bounds, bounds.len(), &mut |p| {
            n += u64::from(b.contains(p).unwrap());
        }),
    }
    n
}

/// `is_empty` and `count_points` against enumeration, memo on and off,
/// through fresh, reused and cloned objects — so that each memo layer
/// (interval pre-check, inline flag, table) is the one that answers at
/// least once, and each of those answers is checked like an Omega one.
#[test]
fn emptiness_and_counts_match_enumeration_through_every_memo_layer() {
    let _serial = serial();
    // Which layer answered a `Set::is_empty` call, from the counters it
    // moved: a table probe records one hit or miss per disjunct reached;
    // the inline flag and the interval pre-check record nothing.
    let ask = |s: &Set| {
        let before = stats::snapshot().is_empty;
        let empty = s.is_empty().unwrap();
        let after = stats::snapshot().is_empty;
        (
            empty,
            after.hits - before.hits,
            after.misses - before.misses,
        )
    };
    let (mut by_interval, mut by_flag, mut by_table, mut by_omega) = (0, 0, 0, 0);
    let (mut empties, mut with_div) = (0, 0);
    for memo in [true, false] {
        stats::set_memo_enabled(memo);
        stats::clear_cache();
        let mut rng = Rng::new(0xe3b7);
        for case in 0..2 * CASES {
            let mut twin_rng = rng.clone();
            let (set, b, bounds, hidden) = random_bounded_set(&mut rng);
            let (twin, ..) = random_bounded_set(&mut twin_rng);
            let expect = brute_count(&b, &bounds, hidden);
            let ctx = format!("memo {memo}, case {case}: {set}");
            empties += u64::from(expect == 0);
            with_div += u64::from(set.basics().iter().any(|d| d.n_div() > 0));

            // Fresh object: Omega, the interval pre-check, or (a system a
            // previous case left behind) the table.
            let (empty, hits, misses) = ask(&set);
            assert_eq!(empty, expect == 0, "fresh, {ctx}");
            if !memo {
                assert!(
                    set.n_basic() == 0 || misses > 0,
                    "memo off must run Omega, {ctx}"
                );
                assert_eq!(hits, 0, "{ctx}");
            } else if hits + misses == 0 && set.n_basic() > 0 {
                assert!(empty, "the pre-check only ever proves emptiness, {ctx}");
                by_interval += 1;
            }
            by_omega += misses;

            // Same object and its clone: the inline flag, no table traffic.
            for again in [&set, &set.clone()] {
                let (empty, hits, misses) = ask(again);
                assert_eq!(empty, expect == 0, "reused, {ctx}");
                if memo {
                    assert_eq!(hits + misses, 0, "inline flag must answer, {ctx}");
                    by_flag += 1;
                }
            }

            // Structurally identical fresh object: nothing is recomputed.
            let (empty, hits, misses) = ask(&twin);
            assert_eq!(empty, expect == 0, "twin, {ctx}");
            if memo {
                assert_eq!(misses, 0, "twin must not recompute, {ctx}");
                by_table += hits;
            }

            assert_eq!(set.count_points(&[]).unwrap(), expect, "count, {ctx}");
            assert_eq!(twin.count_points(&[]).unwrap(), expect, "twin count, {ctx}");
        }
    }
    stats::set_memo_enabled(true);
    assert!(
        by_interval > 0 && by_flag > 0 && by_table > 0 && by_omega > 0,
        "a layer never answered: interval {by_interval}, flag {by_flag}, \
         table {by_table}, omega {by_omega}"
    );
    assert!(
        empties > 0 && with_div > 0,
        "{empties} empty, {with_div} with a div"
    );
}

#[test]
fn subtraction_laws() {
    let _serial = serial();
    let mut rng = Rng::new(0x5b);
    for _ in 0..CASES {
        let (a_lo, a_hi) = (rng.range(-5, 5), rng.range(-5, 5));
        let (b_lo, b_hi) = (rng.range(-5, 5), rng.range(-5, 5));
        let a = Set::from_basic(random_set(a_lo, a_hi, 0, 0, &[]));
        let b = Set::from_basic(random_set(b_lo, b_hi, 0, 0, &[]));
        let diff = a.subtract(&b).unwrap();
        // (A - B) ∩ B = ∅
        assert!(diff.intersect(&b).unwrap().is_empty().unwrap());
        // (A - B) ∪ (A ∩ B) = A
        let back = diff.union(&a.intersect(&b).unwrap()).unwrap();
        assert!(back.is_equal(&a).unwrap());
        // A - A = ∅
        assert!(a.subtract(&a).unwrap().is_empty().unwrap());
    }
}

#[test]
fn union_and_intersection_bounds() {
    let _serial = serial();
    let mut rng = Rng::new(0xbeef);
    for _ in 0..CASES {
        let (a_lo, a_hi) = (rng.range(-5, 5), rng.range(-5, 5));
        let (b_lo, b_hi) = (rng.range(-5, 5), rng.range(-5, 5));
        let a = Set::from_basic(random_set(a_lo, a_hi, 0, 0, &[]));
        let b = Set::from_basic(random_set(b_lo, b_hi, 0, 0, &[]));
        let u = a.union(&b).unwrap();
        let i = a.intersect(&b).unwrap();
        assert!(a.is_subset(&u).unwrap());
        assert!(b.is_subset(&u).unwrap());
        assert!(i.is_subset(&a).unwrap());
        assert!(i.is_subset(&b).unwrap());
    }
}

#[test]
fn scanner_agrees_with_contains() {
    let _serial = serial();
    let mut rng = Rng::new(0x5ca9);
    for _ in 0..CASES {
        let (ilo, ihi) = (rng.range(-4, 4), rng.range(-4, 4));
        let (jlo, jhi) = (rng.range(-4, 4), rng.range(-4, 4));
        let extra = rng.extras(2, 2, 5);
        let b = random_set(ilo, ihi, jlo, jhi, &extra);
        let brute = brute_points(&b, -8, 8);
        let set = Set::from_basic(b);
        let scanner = tilefuse_presburger::Scanner::new(&set, &[]).unwrap();
        let mut scanned = Vec::new();
        scanner
            .for_each(&mut |p| {
                scanned.push((p[0], p[1]));
                true
            })
            .unwrap();
        assert_eq!(scanned, brute);
    }
}

#[test]
fn map_reverse_involution() {
    let _serial = serial();
    let mut rng = Rng::new(0x1e5);
    for _ in 0..CASES {
        let shift = rng.range(-5, 6);
        let (lo, hi) = (rng.range(-5, 5), rng.range(-5, 5));
        let m: Map = format!(
            "{{ S[i] -> A[i + {shift}] : {} <= i <= {} }}",
            lo.min(hi),
            lo.max(hi)
        )
        .parse()
        .unwrap();
        assert!(m.reverse().reverse().is_equal(&m).unwrap());
        // domain(reverse) = range, range(reverse) = domain.
        assert!(m
            .reverse()
            .domain()
            .unwrap()
            .is_equal(
                &m.range()
                    .unwrap()
                    .cast(m.reverse().space().domain_space())
                    .unwrap()
            )
            .unwrap());
    }
}

#[test]
fn compose_respects_images() {
    let _serial = serial();
    let mut rng = Rng::new(0xc0);
    for _ in 0..CASES {
        let s1 = rng.range(-3, 4);
        let s2 = rng.range(-3, 4);
        let lo = rng.range(0, 3);
        let hi = rng.range(3, 7);
        let x = rng.range(0, 3);
        let f: Map = format!("{{ S[i] -> T[i + {s1}] : {lo} <= i <= {hi} }}")
            .parse()
            .unwrap();
        let g: Map = format!("{{ T[j] -> U[j + {s2}] }}").parse().unwrap();
        let fg = f.compose(&g).unwrap();
        // (g ∘ f)(x) = g(f(x)) pointwise.
        let img = fg.image_of(&[x]).unwrap();
        let expect: Set = if (lo..=hi).contains(&x) {
            format!("{{ U[v] : v = {} }}", x + s1 + s2).parse().unwrap()
        } else {
            Set::empty(img.space().clone())
        };
        assert!(img.is_equal(&expect).unwrap(), "x={x} img={img}");
    }
}

#[test]
fn rect_hull_contains_all_points() {
    let _serial = serial();
    let mut rng = Rng::new(0x4a11);
    for _ in 0..CASES {
        let (ilo, ihi) = (rng.range(-4, 4), rng.range(-4, 4));
        let (jlo, jhi) = (rng.range(-4, 4), rng.range(-4, 4));
        let extra = rng.extras(2, 2, 4);
        let b = random_set(ilo, ihi, jlo, jhi, &extra);
        let brute = brute_points(&b, -8, 8);
        let hull = Set::from_basic(b).rect_hull(&[]).unwrap();
        match hull {
            None => assert!(brute.is_empty()),
            Some(h) => {
                for (i, j) in brute {
                    assert!(h[0].0 <= i && i <= h[0].1);
                    assert!(h[1].0 <= j && j <= h[1].1);
                }
            }
        }
    }
}
