//! Maps: binary relations on integer tuples, as unions of basic maps.
//!
//! A [`Map`] relates points of an input tuple to points of an output tuple
//! (`{ S2[h,w,kh,kw] -> A[h+kh, w+kw] }`). Maps share the constraint
//! machinery with [`Set`] — a basic map is a [`BasicSet`] whose space has
//! two tuples.

use crate::aff::AffExpr;
use crate::bset::BasicSet;
use crate::error::{Error, Result};
use crate::set::Set;
use crate::space::Space;

/// A union of basic maps over a common map [`Space`].
#[derive(Debug, Clone)]
pub struct Map {
    inner: Set,
}

impl Map {
    /// The empty map in `space`.
    ///
    /// # Errors
    /// Returns an error if `space` is not a map space.
    pub fn empty(space: Space) -> Result<Self> {
        require_map(&space)?;
        Ok(Map {
            inner: Set::empty(space),
        })
    }

    /// The universal relation in `space`.
    ///
    /// # Errors
    /// Returns an error if `space` is not a map space.
    pub fn universe(space: Space) -> Result<Self> {
        require_map(&space)?;
        Ok(Map {
            inner: Set::universe(space),
        })
    }

    /// Wraps a single basic map.
    ///
    /// # Errors
    /// Returns an error if the basic set's space is not a map space.
    pub fn from_basic(basic: BasicSet) -> Result<Self> {
        require_map(basic.space())?;
        Ok(Map {
            inner: Set::from_basic(basic),
        })
    }

    /// Builds the graph of an affine function: `{ x -> y : y_k = expr_k }`.
    ///
    /// Each `exprs[k]` is an [`AffExpr`] over the *map space* whose output
    /// coefficients must be zero; it defines output dimension `k`.
    ///
    /// # Errors
    /// Returns an error if `space` is not a map space, the number of
    /// expressions differs from the output arity, or an expression involves
    /// output dimensions.
    pub fn from_affine(space: Space, exprs: &[AffExpr]) -> Result<Self> {
        require_map(&space)?;
        if exprs.len() != space.n_out() {
            return Err(Error::DimOutOfBounds {
                index: exprs.len(),
                len: space.n_out(),
            });
        }
        let mut b = BasicSet::universe(space.clone());
        for (k, e) in exprs.iter().enumerate() {
            space.check_compatible(e.space(), "from_affine")?;
            for j in space.n_in()..space.n_dim() {
                if e.dim_coeff(j) != 0 {
                    return Err(Error::DimOutOfBounds {
                        index: j,
                        len: space.n_in(),
                    });
                }
            }
            let out_k = AffExpr::dim(&space, space.n_in() + k)?;
            b.add_constraint(&out_k.eq(e)?)?;
        }
        Map::from_basic(b)
    }

    /// The identity map on a set space.
    ///
    /// # Errors
    /// Returns an error if `set_space` is not a set space.
    pub fn identity(set_space: &Space) -> Result<Self> {
        if !set_space.is_set() {
            return Err(Error::KindMismatch { expected: "set" });
        }
        let space = set_space.join_map(set_space)?;
        let exprs: Vec<AffExpr> = (0..set_space.n_dim())
            .map(|k| AffExpr::dim(&space, k))
            .collect::<Result<_>>()?;
        Map::from_affine(space, &exprs)
    }

    /// The lexicographic strict order `{ x -> y : x ≺ y }` on a map space
    /// with equal input and output arity.
    ///
    /// # Errors
    /// Returns an error if `space` is not a map space with equal arities.
    pub fn lex_lt(space: Space) -> Result<Self> {
        require_map(&space)?;
        let n = space.n_in();
        if n != space.n_out() {
            return Err(Error::DimOutOfBounds {
                index: space.n_out(),
                len: n,
            });
        }
        let mut m = Map::empty(space.clone())?;
        for level in 0..n {
            let mut b = BasicSet::universe(space.clone());
            for k in 0..level {
                let xi = AffExpr::dim(&space, k)?;
                let yi = AffExpr::dim(&space, n + k)?;
                b.add_constraint(&xi.eq(&yi)?)?;
            }
            let xl = AffExpr::dim(&space, level)?;
            let yl = AffExpr::dim(&space, n + level)?;
            b.add_constraint(&xl.lt(&yl)?)?;
            m = m.union(&Map::from_basic(b)?)?;
        }
        Ok(m)
    }

    /// The map's space.
    pub fn space(&self) -> &Space {
        self.inner.space()
    }

    /// The disjunct basic maps.
    pub fn basics(&self) -> &[BasicSet] {
        self.inner.basics()
    }

    /// Number of disjuncts.
    pub fn n_basic(&self) -> usize {
        self.inner.n_basic()
    }

    /// Views the map as a set over the combined `(in, out)` tuple space.
    pub fn as_wrapped_set(&self) -> &Set {
        &self.inner
    }

    /// Interprets a set over a map space as a map (inverse of
    /// [`Map::as_wrapped_set`]).
    ///
    /// # Errors
    /// Returns an error if the set's space is not a map space.
    pub fn from_wrapped_set(set: Set) -> Result<Self> {
        require_map(set.space())?;
        Ok(Map { inner: set })
    }

    /// Exact emptiness test.
    ///
    /// # Errors
    /// Returns an error on overflow.
    pub fn is_empty(&self) -> Result<bool> {
        self.inner.is_empty()
    }

    /// Union of two maps in the same space.
    ///
    /// # Errors
    /// Returns an error on space mismatch.
    pub fn union(&self, other: &Map) -> Result<Map> {
        Ok(Map {
            inner: self.inner.union(&other.inner)?,
        })
    }

    /// Intersection of two maps in the same space.
    ///
    /// # Errors
    /// Returns an error on space mismatch or overflow.
    pub fn intersect(&self, other: &Map) -> Result<Map> {
        Ok(Map {
            inner: self.inner.intersect(&other.inner)?,
        })
    }

    /// Relation difference.
    ///
    /// # Errors
    /// See [`Set::subtract`].
    pub fn subtract(&self, other: &Map) -> Result<Map> {
        Ok(Map {
            inner: self.inner.subtract(&other.inner)?,
        })
    }

    /// Whether `self ⊆ other` as relations.
    ///
    /// # Errors
    /// See [`Set::is_subset`].
    pub fn is_subset(&self, other: &Map) -> Result<bool> {
        self.inner.is_subset(&other.inner)
    }

    /// Whether the two maps relate exactly the same pairs.
    ///
    /// # Errors
    /// See [`Set::is_equal`].
    pub fn is_equal(&self, other: &Map) -> Result<bool> {
        self.inner.is_equal(&other.inner)
    }

    /// The reversed relation `{ y -> x : x -> y ∈ self }`.
    pub fn reverse(&self) -> Map {
        crate::stats::record(crate::stats::Op::Reverse, false);
        let _timer = crate::stats::op_timer(crate::stats::Op::Reverse);
        let space = self.space().reversed();
        let n_param = self.space().n_param();
        let n_in = self.space().n_in();
        let n_out = self.space().n_out();
        let basics = self
            .basics()
            .iter()
            .map(|b| {
                let swap = |rows: &[Vec<i64>]| -> Vec<Vec<i64>> {
                    rows.iter()
                        .map(|r| {
                            let mut out = r.clone();
                            // new layout: [p | out | in | divs | c]
                            out[n_param..n_param + n_out]
                                .copy_from_slice(&r[n_param + n_in..n_param + n_in + n_out]);
                            out[n_param + n_out..n_param + n_out + n_in]
                                .copy_from_slice(&r[n_param..n_param + n_in]);
                            out
                        })
                        .collect()
                };
                BasicSet::from_rows(
                    space.clone(),
                    b.n_div(),
                    swap(b.eq_rows()),
                    swap(b.ineq_rows()),
                )
            })
            .collect();
        Map {
            inner: Set::from_basics(space, basics).expect("reversed basics share space"),
        }
    }

    /// The domain `{ x : ∃y, x -> y }`.
    ///
    /// # Errors
    /// Returns an error on overflow.
    pub fn domain(&self) -> Result<Set> {
        let n_in = self.space().n_in();
        let n_out = self.space().n_out();
        self.inner
            .project_out_dims(n_in, n_out)?
            .cast(self.space().domain_space())
    }

    /// The range `{ y : ∃x, x -> y }`.
    ///
    /// # Errors
    /// Returns an error on overflow.
    pub fn range(&self) -> Result<Set> {
        let n_in = self.space().n_in();
        self.inner
            .project_out_dims(0, n_in)?
            .cast(self.space().range_space())
    }

    /// Restricts the domain to `set`.
    ///
    /// # Errors
    /// Returns an error if `set` is not in the domain space.
    pub fn intersect_domain(&self, set: &Set) -> Result<Map> {
        self.space()
            .domain_space()
            .check_compatible(set.space(), "intersect_domain")?;
        let embedded = embed_set(set, self.space(), 0)?;
        Ok(Map {
            inner: self.inner.intersect(&embedded)?,
        })
    }

    /// Restricts the range to `set`.
    ///
    /// # Errors
    /// Returns an error if `set` is not in the range space.
    pub fn intersect_range(&self, set: &Set) -> Result<Map> {
        self.space()
            .range_space()
            .check_compatible(set.space(), "intersect_range")?;
        let embedded = embed_set(set, self.space(), self.space().n_in())?;
        Ok(Map {
            inner: self.inner.intersect(&embedded)?,
        })
    }

    /// Relation composition `other ∘ self`: for `self : X -> Y` and
    /// `other : Y -> Z`, returns `{ x -> z : ∃y, x->y ∈ self ∧ y->z ∈ other }`.
    ///
    /// # Errors
    /// Returns an error if `self`'s range tuple is incompatible with
    /// `other`'s domain tuple, or on overflow.
    pub fn compose(&self, other: &Map) -> Result<Map> {
        let y_self = self.space().range_space();
        let y_other = other.space().domain_space();
        y_self.check_compatible(&y_other, "compose")?;
        if self.space().params() != other.space().params() {
            return Err(Error::SpaceMismatch {
                op: "compose",
                lhs: self.space().to_string(),
                rhs: other.space().to_string(),
            });
        }
        let space = self
            .space()
            .domain_space()
            .join_map(&other.space().range_space())?;
        let np = self.space().n_param();
        let nx = self.space().n_in();
        let ny = self.space().n_out();
        let nz = other.space().n_out();
        let mut basics = Vec::new();
        for a in self.basics() {
            for b in other.basics() {
                let n_div = ny + a.n_div() + b.n_div();
                let cols = np + nx + nz + n_div + 1;
                // target layout: [p | x | z | y | divs_a | divs_b | c]
                let map_a = |r: &Vec<i64>| -> Vec<i64> {
                    let mut o = vec![0i64; cols];
                    o[..np].copy_from_slice(&r[..np]);
                    o[np..np + nx].copy_from_slice(&r[np..np + nx]);
                    o[np + nx + nz..np + nx + nz + ny].copy_from_slice(&r[np + nx..np + nx + ny]);
                    o[np + nx + nz + ny..np + nx + nz + ny + a.n_div()]
                        .copy_from_slice(&r[np + nx + ny..np + nx + ny + a.n_div()]);
                    o[cols - 1] = r[r.len() - 1];
                    o
                };
                let map_b = |r: &Vec<i64>| -> Vec<i64> {
                    let mut o = vec![0i64; cols];
                    o[..np].copy_from_slice(&r[..np]);
                    o[np + nx + nz..np + nx + nz + ny].copy_from_slice(&r[np..np + ny]);
                    o[np + nx..np + nx + nz].copy_from_slice(&r[np + ny..np + ny + nz]);
                    o[np + nx + nz + ny + a.n_div()..np + nx + nz + ny + a.n_div() + b.n_div()]
                        .copy_from_slice(&r[np + ny + nz..np + ny + nz + b.n_div()]);
                    o[cols - 1] = r[r.len() - 1];
                    o
                };
                let eqs: Vec<Vec<i64>> = a
                    .eq_rows()
                    .iter()
                    .map(map_a)
                    .chain(b.eq_rows().iter().map(map_b))
                    .collect();
                let ineqs: Vec<Vec<i64>> = a
                    .ineq_rows()
                    .iter()
                    .map(map_a)
                    .chain(b.ineq_rows().iter().map(map_b))
                    .collect();
                let combined = BasicSet::from_rows(space.clone(), n_div, eqs, ineqs);
                // Try to eliminate the y-existentials exactly; whatever
                // remains stays existential (same semantics).
                for piece in combined.project_out_divs()? {
                    if !piece.is_empty()? {
                        basics.push(piece);
                    }
                }
            }
        }
        Ok(Map {
            inner: Set::from_basics(space, basics)?,
        })
    }

    /// The flat range product: for `self : X -> [m]` and `other : X -> [n]`
    /// (same domain tuple), returns `{ x -> [m..., n...] }` — the relation
    /// pairing each domain point with the concatenation of both images.
    /// The output tuple is anonymous.
    ///
    /// # Errors
    /// Returns an error if the domain tuples or parameters differ.
    pub fn flat_range_product(&self, other: &Map) -> Result<Map> {
        self.space()
            .domain_space()
            .check_compatible(&other.space().domain_space(), "flat_range_product")?;
        let np = self.space().n_param();
        let nx = self.space().n_in();
        let nm = self.space().n_out();
        let nn = other.space().n_out();
        let params: Vec<&str> = self.space().params().iter().map(String::as_str).collect();
        let space = Space::map(
            &params,
            self.space().in_tuple().clone(),
            crate::space::Tuple::anonymous(nm + nn),
        );
        let mut basics = Vec::new();
        for a in self.basics() {
            for b in other.basics() {
                let n_div = a.n_div() + b.n_div();
                let cols = np + nx + nm + nn + n_div + 1;
                let map_a = |r: &Vec<i64>| -> Vec<i64> {
                    let mut o = vec![0i64; cols];
                    o[..np + nx + nm].copy_from_slice(&r[..np + nx + nm]);
                    o[np + nx + nm + nn..np + nx + nm + nn + a.n_div()]
                        .copy_from_slice(&r[np + nx + nm..np + nx + nm + a.n_div()]);
                    o[cols - 1] = r[r.len() - 1];
                    o
                };
                let map_b = |r: &Vec<i64>| -> Vec<i64> {
                    let mut o = vec![0i64; cols];
                    o[..np + nx].copy_from_slice(&r[..np + nx]);
                    o[np + nx + nm..np + nx + nm + nn].copy_from_slice(&r[np + nx..np + nx + nn]);
                    o[np + nx + nm + nn + a.n_div()..np + nx + nm + nn + n_div]
                        .copy_from_slice(&r[np + nx + nn..np + nx + nn + b.n_div()]);
                    o[cols - 1] = r[r.len() - 1];
                    o
                };
                let eqs: Vec<Vec<i64>> = a
                    .eq_rows()
                    .iter()
                    .map(map_a)
                    .chain(b.eq_rows().iter().map(map_b))
                    .collect();
                let ineqs: Vec<Vec<i64>> = a
                    .ineq_rows()
                    .iter()
                    .map(map_a)
                    .chain(b.ineq_rows().iter().map(map_b))
                    .collect();
                basics.push(BasicSet::from_rows(space.clone(), n_div, eqs, ineqs));
            }
        }
        Ok(Map {
            inner: Set::from_basics(space, basics)?,
        })
    }

    /// Applies the map to a set: `{ y : ∃x ∈ set, x -> y }`.
    ///
    /// # Errors
    /// Returns an error if `set` is not in the domain space, or on overflow.
    pub fn apply(&self, set: &Set) -> Result<Set> {
        crate::stats::record(crate::stats::Op::Apply, false);
        let _timer = crate::stats::op_timer(crate::stats::Op::Apply);
        self.intersect_domain(set)?.range()
    }

    /// The image of a single input point: `{ y : point -> y }`.
    ///
    /// # Errors
    /// Returns an error if the point arity is wrong, or on overflow.
    pub fn image_of(&self, point: &[i64]) -> Result<Set> {
        if point.len() != self.space().n_in() {
            return Err(Error::DimOutOfBounds {
                index: point.len(),
                len: self.space().n_in(),
            });
        }
        let mut m = self.inner.clone();
        for (k, &v) in point.iter().enumerate() {
            m = m.fix_dim(k, v)?;
        }
        Map { inner: m }.range()
    }

    /// Removes input dimensions `first .. first+count` by exact projection
    /// (the output tuple is unchanged; the new input tuple is anonymous).
    ///
    /// # Errors
    /// Returns an error on out-of-range indices or overflow.
    pub fn remove_in_dims(&self, first: usize, count: usize) -> Result<Map> {
        let n_in = self.space().n_in();
        if first + count > n_in {
            return Err(Error::DimOutOfBounds {
                index: first + count,
                len: n_in,
            });
        }
        let projected = self.inner.project_out_dims(first, count)?;
        let params: Vec<&str> = self.space().params().iter().map(String::as_str).collect();
        let space = Space::map(
            &params,
            crate::space::Tuple::anonymous(n_in - count),
            self.space().out_tuple().clone(),
        );
        Map::from_wrapped_set(projected.cast(space)?)
    }

    /// Keeps only the first `k` output dimensions, projecting the rest out
    /// exactly (the input tuple is unchanged; the new output tuple is
    /// anonymous). Used to truncate a schedule to a tile-band prefix.
    ///
    /// # Errors
    /// Returns an error if `k` exceeds the output arity, or on overflow.
    pub fn range_truncate(&self, k: usize) -> Result<Map> {
        let n_in = self.space().n_in();
        let n_out = self.space().n_out();
        if k > n_out {
            return Err(Error::DimOutOfBounds {
                index: k,
                len: n_out,
            });
        }
        let projected = self.inner.project_out_dims(n_in + k, n_out - k)?;
        let params: Vec<&str> = self.space().params().iter().map(String::as_str).collect();
        let space = Space::map(
            &params,
            self.space().in_tuple().clone(),
            crate::space::Tuple::anonymous(k),
        );
        Map::from_wrapped_set(projected.cast(space)?)
    }

    /// The difference set `{ y - x : x -> y ∈ self }` for a map whose
    /// input and output tuples have equal arity. For a dependence relation
    /// composed into a common (tile) schedule space, this is the set of
    /// dependence distance vectors.
    ///
    /// # Errors
    /// Returns an error if the arities differ, or on overflow.
    pub fn deltas(&self) -> Result<Set> {
        let n = self.space().n_in();
        if self.space().n_out() != n {
            return Err(Error::KindMismatch {
                expected: "map with equal input/output arity",
            });
        }
        let np = self.space().n_param();
        let params: Vec<&str> = self.space().params().iter().map(String::as_str).collect();
        // Widened layout: [p | in (n) | out (n) | delta (n) | divs | c].
        let wide_space = Space::set(&params, crate::space::Tuple::anonymous(3 * n));
        let basics = self
            .basics()
            .iter()
            .map(|b| {
                let widen = |rows: &[Vec<i64>]| -> Vec<Vec<i64>> {
                    rows.iter()
                        .map(|r| {
                            let mut out = Vec::with_capacity(r.len() + n);
                            out.extend_from_slice(&r[..np + 2 * n]);
                            out.extend(std::iter::repeat_n(0, n));
                            out.extend_from_slice(&r[np + 2 * n..]);
                            out
                        })
                        .collect()
                };
                let mut eqs = widen(b.eq_rows());
                // out_j - in_j - delta_j = 0
                for j in 0..n {
                    let mut row = vec![0i64; np + 3 * n + b.n_div() + 1];
                    row[np + j] = -1;
                    row[np + n + j] = 1;
                    row[np + 2 * n + j] = -1;
                    eqs.push(row);
                }
                BasicSet::from_rows(wide_space.clone(), b.n_div(), eqs, widen(b.ineq_rows()))
            })
            .collect();
        let wide = Set::from_basics(wide_space, basics)?;
        let space = Space::set(&params, crate::space::Tuple::anonymous(n));
        wide.project_out_dims(0, 2 * n)?.cast(space)
    }

    /// Fixes parameter `p` to `value`.
    ///
    /// # Errors
    /// Returns an error if `p` is out of range.
    pub fn fix_param(&self, p: usize, value: i64) -> Result<Map> {
        Ok(Map {
            inner: self.inner.fix_param(p, value)?,
        })
    }

    /// Renames tuples without changing content.
    ///
    /// # Errors
    /// Returns an error if arities differ.
    pub fn cast(&self, space: Space) -> Result<Map> {
        require_map(&space)?;
        Ok(Map {
            inner: self.inner.cast(space)?,
        })
    }

    /// Whether the pair `(x, y)` (with parameter values prepended) is in the
    /// relation: `point = [params..., in..., out...]`.
    ///
    /// # Errors
    /// Returns an error on overflow.
    pub fn contains_pair(&self, point: &[i64]) -> Result<bool> {
        self.inner.contains(point)
    }

    /// Whether the relation is a (partial) function: every input relates to
    /// at most one output. Point schedules are single-valued; tile-band
    /// relations and extension schedules are not.
    ///
    /// # Errors
    /// Returns an error on overflow.
    pub fn is_single_valued(&self) -> Result<bool> {
        // self is single-valued iff (self⁻¹ ∘ self) ⊆ identity.
        let roundtrip = self.reverse().compose(self)?;
        let out_space = self.space().range_space();
        let ident = Map::identity(&out_space)?.cast(roundtrip.space().clone())?;
        roundtrip.is_subset(&ident)
    }
}

fn require_map(space: &Space) -> Result<()> {
    if space.is_map() {
        Ok(())
    } else {
        Err(Error::KindMismatch { expected: "map" })
    }
}

/// Embeds a set's constraints into a map space at dim offset `at`
/// (0 = domain, `n_in` = range).
fn embed_set(set: &Set, map_space: &Space, at: usize) -> Result<Set> {
    let np = map_space.n_param();
    let nd = map_space.n_dim();
    let set_nd = set.space().n_dim();
    let basics = set
        .basics()
        .iter()
        .map(|b| {
            let cols = np + nd + b.n_div() + 1;
            let widen = |rows: &[Vec<i64>]| -> Vec<Vec<i64>> {
                rows.iter()
                    .map(|r| {
                        let mut o = vec![0i64; cols];
                        o[..np].copy_from_slice(&r[..np]);
                        o[np + at..np + at + set_nd].copy_from_slice(&r[np..np + set_nd]);
                        o[np + nd..np + nd + b.n_div()]
                            .copy_from_slice(&r[np + set_nd..np + set_nd + b.n_div()]);
                        o[cols - 1] = r[r.len() - 1];
                        o
                    })
                    .collect()
            };
            BasicSet::from_rows(
                map_space.clone(),
                b.n_div(),
                widen(b.eq_rows()),
                widen(b.ineq_rows()),
            )
        })
        .collect();
    Set::from_basics(map_space.clone(), basics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(s: &str) -> Map {
        s.parse().unwrap()
    }

    fn set(s: &str) -> Set {
        s.parse().unwrap()
    }

    #[test]
    fn reverse_swaps_tuples() {
        let m = map("{ S[i] -> A[i+1] : 0 <= i <= 5 }");
        let r = m.reverse();
        assert_eq!(r.space().in_tuple().name(), Some("A"));
        assert!(r.contains_pair(&[3, 2]).unwrap());
        assert!(!r.contains_pair(&[2, 3]).unwrap());
        assert!(m.reverse().reverse().is_equal(&m).unwrap());
    }

    #[test]
    fn domain_and_range() {
        let m = map("{ S[i] -> A[i+2] : 0 <= i <= 3 }");
        let d = m.domain().unwrap();
        assert!(d.is_equal(&set("{ S[i] : 0 <= i <= 3 }")).unwrap());
        let r = m.range().unwrap();
        assert!(r.is_equal(&set("{ A[a] : 2 <= a <= 5 }")).unwrap());
    }

    #[test]
    fn apply_shifts_set() {
        let m = map("{ S[i] -> A[i+2] }");
        let s = set("{ S[i] : 0 <= i <= 3 }");
        let a = m.apply(&s).unwrap();
        assert!(a.is_equal(&set("{ A[a] : 2 <= a <= 5 }")).unwrap());
    }

    #[test]
    fn compose_stencil_with_producer() {
        // Paper-like chain: tile -> statement, statement -> array.
        let rev_tile = map("{ T[o] -> S[i] : 2o <= i <= 2o+1 }");
        let access = map("{ S[i] -> A[i+1] }");
        let footprint = rev_tile.compose(&access).unwrap();
        // T[o] -> A[a] : 2o+1 <= a <= 2o+2
        assert!(footprint.contains_pair(&[0, 1]).unwrap());
        assert!(footprint.contains_pair(&[0, 2]).unwrap());
        assert!(!footprint.contains_pair(&[0, 3]).unwrap());
        assert!(footprint.contains_pair(&[1, 3]).unwrap());
    }

    #[test]
    fn compose_rejects_mismatched_tuples() {
        let a = map("{ S[i] -> A[i] }");
        let b = map("{ B[i] -> C[i] }");
        assert!(a.compose(&b).is_err());
    }

    #[test]
    fn intersect_domain_restricts() {
        let m = map("{ S[i] -> A[i] }");
        let s = set("{ S[i] : 0 <= i <= 2 }");
        let r = m.intersect_domain(&s).unwrap();
        assert!(r.contains_pair(&[1, 1]).unwrap());
        assert!(!r.contains_pair(&[5, 5]).unwrap());
        let rng = m.intersect_range(&set("{ A[a] : a = 7 }")).unwrap();
        assert!(rng.contains_pair(&[7, 7]).unwrap());
        assert!(!rng.contains_pair(&[1, 1]).unwrap());
    }

    #[test]
    fn identity_map() {
        let sp = Space::set(&[], crate::space::Tuple::new(Some("S"), &["i", "j"]));
        let id = Map::identity(&sp).unwrap();
        assert!(id.contains_pair(&[1, 2, 1, 2]).unwrap());
        assert!(!id.contains_pair(&[1, 2, 2, 1]).unwrap());
    }

    #[test]
    fn lex_lt_order() {
        let sp = Space::map(
            &[],
            crate::space::Tuple::new(None, &["a", "b"]),
            crate::space::Tuple::new(None, &["c", "d"]),
        );
        let lt = Map::lex_lt(sp).unwrap();
        assert!(lt.contains_pair(&[0, 5, 1, 0]).unwrap()); // (0,5) < (1,0)
        assert!(lt.contains_pair(&[1, 0, 1, 1]).unwrap()); // (1,0) < (1,1)
        assert!(!lt.contains_pair(&[1, 1, 1, 1]).unwrap());
        assert!(!lt.contains_pair(&[2, 0, 1, 9]).unwrap());
    }

    #[test]
    fn image_of_point() {
        let m = map("{ S[i] -> A[a] : i <= a <= i+2 }");
        let img = m.image_of(&[10]).unwrap();
        assert!(img.is_equal(&set("{ A[a] : 10 <= a <= 12 }")).unwrap());
        assert!(m.image_of(&[1, 2]).is_err());
    }

    #[test]
    fn from_affine_builds_graph() {
        let space = Space::map(
            &[],
            crate::space::Tuple::new(Some("S"), &["i", "j"]),
            crate::space::Tuple::new(Some("A"), &["a"]),
        );
        // a = i + 2j + 1
        let e = AffExpr::zero(&space)
            .with_dim_coeff(0, 1)
            .with_dim_coeff(1, 2)
            .with_constant(1);
        let m = Map::from_affine(space, &[e]).unwrap();
        assert!(m.contains_pair(&[1, 1, 4]).unwrap());
        assert!(!m.contains_pair(&[1, 1, 5]).unwrap());
    }

    #[test]
    fn map_algebra_union_subtract() {
        let a = map("{ S[i] -> A[i] : 0 <= i <= 5 }");
        let b = map("{ S[i] -> A[i] : 3 <= i <= 8 }");
        let u = a.union(&b).unwrap();
        assert!(u.contains_pair(&[7, 7]).unwrap());
        let d = u.subtract(&a).unwrap();
        assert!(d.contains_pair(&[7, 7]).unwrap());
        assert!(!d.contains_pair(&[4, 4]).unwrap());
        assert!(a.is_subset(&u).unwrap());
    }

    #[test]
    fn wrapped_set_roundtrip() {
        let m = map("{ S[i] -> A[i] : 0 <= i <= 2 }");
        let w = m.as_wrapped_set().clone();
        let m2 = Map::from_wrapped_set(w).unwrap();
        assert!(m.is_equal(&m2).unwrap());
    }

    #[test]
    fn flat_range_product_concatenates_images() {
        let a = map("{ S[i] -> [o] : 2o <= i <= 2o + 1 }");
        let b = map("{ S[i] -> [i] }");
        let p = a.flat_range_product(&b).unwrap();
        assert_eq!(p.space().n_out(), 2);
        // i = 5 -> (o = 2, 5)
        assert!(p.contains_pair(&[5, 2, 5]).unwrap());
        assert!(!p.contains_pair(&[5, 3, 5]).unwrap());
        assert!(!p.contains_pair(&[5, 2, 4]).unwrap());
    }

    #[test]
    fn flat_range_product_rejects_different_domains() {
        let a = map("{ S[i] -> [i] }");
        let b = map("{ T[i] -> [i] }");
        assert!(a.flat_range_product(&b).is_err());
    }

    #[test]
    fn single_valued_detection() {
        let f = map("{ S[i] -> A[i + 1] : 0 <= i <= 9 }");
        assert!(f.is_single_valued().unwrap());
        let r = map("{ S[i] -> A[a] : i <= a <= i + 1 }");
        assert!(!r.is_single_valued().unwrap());
        // A tile relation is not single-valued in reverse: several points
        // per tile.
        let tile = map("{ S[i] -> [o] : 4o <= i <= 4o + 3 and 0 <= i <= 15 }");
        assert!(tile.is_single_valued().unwrap(), "i determines its tile");
        assert!(!tile.reverse().is_single_valued().unwrap());
    }

    #[test]
    fn range_truncate_keeps_prefix() {
        let m = map("{ S[i] -> [a, b, c] : a = i and b = 2i and c = 3i and 0 <= i <= 4 }");
        let t = m.range_truncate(2).unwrap();
        assert_eq!(t.space().n_out(), 2);
        assert!(t.contains_pair(&[3, 3, 6]).unwrap());
        assert!(!t.contains_pair(&[3, 3, 7]).unwrap());
        // k == n_out is the identity; k > n_out errors.
        assert!(m.range_truncate(3).unwrap().is_equal(&m).unwrap());
        assert!(m.range_truncate(4).is_err());
    }

    #[test]
    fn deltas_of_constant_offset_dependence() {
        let m = map("{ [t, i] -> [t + 1, i - 1] : 0 <= t <= 9 and 0 <= i <= 9 }");
        let d = m.deltas().unwrap();
        assert!(d.contains(&[1, -1]).unwrap());
        assert!(!d.contains(&[1, 0]).unwrap());
        assert!(!d.contains(&[0, -1]).unwrap());
        // Non-constant distances produce several points.
        let spread = map("{ [i] -> [j] : i <= j <= i + 2 and 0 <= i <= 5 }");
        let ds = spread.deltas().unwrap();
        assert!(ds.contains(&[0]).unwrap());
        assert!(ds.contains(&[2]).unwrap());
        assert!(!ds.contains(&[3]).unwrap());
        // Arity mismatch is rejected.
        assert!(map("{ [i] -> [a, b] : a = i and b = i }").deltas().is_err());
    }

    #[test]
    fn lex_lt_requires_equal_arity() {
        let sp = Space::map(
            &[],
            crate::space::Tuple::new(None, &["a"]),
            crate::space::Tuple::new(None, &["c", "d"]),
        );
        assert!(Map::lex_lt(sp).is_err());
    }
}
