//! Property-based tests of the set/map algebra.
//!
//! The Omega-test implementation is compared against brute-force
//! enumeration on bounded random systems, and the algebra is checked
//! against its laws. Randomness comes from a small deterministic
//! xorshift generator so the suite is reproducible and has no external
//! dependencies.

use tilefuse_presburger::{AffExpr, BasicSet, Map, Set, Space, Tuple};

/// Deterministic xorshift64* PRNG; good enough for test-case generation.
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
    // Same cases with the memo on and off: the flag is process-global, but
    // it only decides whether work is cached, never a result.
    for memo in [true, false] {
        tilefuse_presburger::stats::set_memo_enabled(memo);
        let mut rng = Rng::new(0x9a0);
        for _ in 0..CASES {
            let n = rng.range(2, 4) as usize;
            let (b, bounds) = random_system(&mut rng, n);
            let col = rng.range(0, n as i64) as usize;
            let projected = Set::from_basic(b.clone()).project_out_dims(col, 1).unwrap();
            // Every point of the kept dims, one step beyond the box.
            let kept: Vec<usize> = (0..n).filter(|&d| d != col).collect();
            let mut p: Vec<i64> = kept.iter().map(|&d| bounds[d].0 - 1).collect();
            'points: loop {
                let mut full = vec![0; n];
                for (&d, &v) in kept.iter().zip(&p) {
                    full[d] = v;
                }
                let expect = (bounds[col].0..=bounds[col].1).any(|v| {
                    full[col] = v;
                    b.contains(&full).unwrap()
                });
                assert_eq!(
                    projected.contains(&p).unwrap(),
                    expect,
                    "memo {memo}, {b} without x{col} at {p:?}: {projected}"
                );
                for (k, &d) in kept.iter().enumerate() {
                    if p[k] <= bounds[d].1 {
                        p[k] += 1;
                        continue 'points;
                    }
                    p[k] = bounds[d].0 - 1;
                }
                break;
            }
        }
    }
    tilefuse_presburger::stats::set_memo_enabled(true);
}

#[test]
fn subtraction_laws() {
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
