//! Union sets and maps: collections over *different* tuple spaces.
//!
//! A schedule tree's domain node holds instances of many statements at once
//! (`{ S0[h,w]; S1[h,w]; S2[h,w,kh,kw] }`); a program's access function maps
//! many statement tuples to many array tuples. [`UnionSet`] and [`UnionMap`]
//! are thin keyed collections of per-space [`Set`]s/[`Map`]s with the
//! pointwise algebra the optimizer needs.

use crate::error::Result;
use crate::map::Map;
use crate::set::Set;

/// A collection of [`Set`]s, at most one per tuple space.
#[derive(Debug, Clone, Default)]
pub struct UnionSet {
    parts: Vec<Set>,
}

impl UnionSet {
    /// The empty union set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a union set from parts (parts in equal spaces are unioned).
    ///
    /// # Errors
    /// Returns an error if two parts have compatible spaces but merging
    /// fails (cannot happen in practice).
    pub fn from_parts(parts: impl IntoIterator<Item = Set>) -> Result<Self> {
        let mut u = Self::new();
        for p in parts {
            u.add(p)?;
        }
        Ok(u)
    }

    /// Adds a set, merging with an existing part in the same space.
    ///
    /// # Errors
    /// Returns an error if union with the existing part fails.
    pub fn add(&mut self, set: Set) -> Result<()> {
        for p in &mut self.parts {
            if p.space().compatible(set.space()) {
                *p = p.union(&set)?;
                return Ok(());
            }
        }
        self.parts.push(set);
        Ok(())
    }

    /// The parts, one per space.
    pub fn parts(&self) -> &[Set] {
        &self.parts
    }

    /// The part in the space with tuple name `name`, if present.
    pub fn part_named(&self, name: &str) -> Option<&Set> {
        self.parts
            .iter()
            .find(|p| p.space().tuple().name() == Some(name))
    }

    /// Whether every part is empty.
    ///
    /// # Errors
    /// Returns an error on overflow.
    pub fn is_empty(&self) -> Result<bool> {
        for p in &self.parts {
            if !p.is_empty()? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Pointwise union.
    ///
    /// # Errors
    /// Returns an error if a merge fails.
    pub fn union(&self, other: &UnionSet) -> Result<UnionSet> {
        let mut u = self.clone();
        for p in &other.parts {
            u.add(p.clone())?;
        }
        Ok(u)
    }

    /// Pointwise subtraction (parts of `other` in spaces absent from `self`
    /// are ignored).
    ///
    /// # Errors
    /// See [`Set::subtract`].
    pub fn subtract(&self, other: &UnionSet) -> Result<UnionSet> {
        let mut parts = Vec::new();
        for p in &self.parts {
            let mut cur = p.clone();
            for q in &other.parts {
                if cur.space().compatible(q.space()) {
                    cur = cur.subtract(q)?;
                }
            }
            parts.push(cur);
        }
        Ok(UnionSet { parts })
    }

    /// Applies a union map: unions the images of every (set part, map part)
    /// pair whose spaces line up.
    ///
    /// # Errors
    /// See [`Map::apply`].
    pub fn apply(&self, map: &UnionMap) -> Result<UnionSet> {
        let mut out = UnionSet::new();
        for s in &self.parts {
            for m in map.parts() {
                if m.space().domain_space().compatible(s.space()) {
                    out.add(m.apply(s)?)?;
                }
            }
        }
        Ok(out)
    }
}

impl std::fmt::Display for UnionSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{ ")?;
        for (i, p) in self.parts.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            // Strip the outer braces of each part's rendering.
            let s = p.to_string();
            let inner = s.trim_start_matches(|c| c != '{').trim_start_matches('{');
            let inner = inner.trim_end_matches('}').trim();
            write!(f, "{inner}")?;
        }
        write!(f, " }}")
    }
}

/// A collection of [`Map`]s, at most one per (in, out) space pair.
#[derive(Debug, Clone, Default)]
pub struct UnionMap {
    parts: Vec<Map>,
}

impl UnionMap {
    /// The empty union map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a union map from parts (parts in equal spaces are unioned).
    ///
    /// # Errors
    /// Returns an error if merging fails.
    pub fn from_parts(parts: impl IntoIterator<Item = Map>) -> Result<Self> {
        let mut u = Self::new();
        for p in parts {
            u.add(p)?;
        }
        Ok(u)
    }

    /// Adds a map, merging with an existing part in the same space.
    ///
    /// # Errors
    /// Returns an error if union with the existing part fails.
    pub fn add(&mut self, map: Map) -> Result<()> {
        for p in &mut self.parts {
            if p.space().compatible(map.space()) {
                *p = p.union(&map)?;
                return Ok(());
            }
        }
        self.parts.push(map);
        Ok(())
    }

    /// The parts.
    pub fn parts(&self) -> &[Map] {
        &self.parts
    }

    /// Parts whose domain tuple is named `name`.
    pub fn parts_from(&self, name: &str) -> Vec<&Map> {
        self.parts
            .iter()
            .filter(|p| p.space().in_tuple().name() == Some(name))
            .collect()
    }

    /// Whether every part is empty.
    ///
    /// # Errors
    /// Returns an error on overflow.
    pub fn is_empty(&self) -> Result<bool> {
        for p in &self.parts {
            if !p.is_empty()? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Pointwise union.
    ///
    /// # Errors
    /// Returns an error if merging fails.
    pub fn union(&self, other: &UnionMap) -> Result<UnionMap> {
        let mut u = self.clone();
        for p in &other.parts {
            u.add(p.clone())?;
        }
        Ok(u)
    }

    /// The reversed union map.
    pub fn reverse(&self) -> UnionMap {
        UnionMap {
            parts: self.parts.iter().map(Map::reverse).collect(),
        }
    }

    /// Composes with `other`: all pairs `self_part : X->Y`,
    /// `other_part : Y->Z` with matching `Y`.
    ///
    /// # Errors
    /// See [`Map::compose`].
    pub fn compose(&self, other: &UnionMap) -> Result<UnionMap> {
        let mut out = UnionMap::new();
        for a in &self.parts {
            for b in &other.parts {
                if a.space()
                    .range_space()
                    .compatible(&b.space().domain_space())
                {
                    out.add(a.compose(b)?)?;
                }
            }
        }
        Ok(out)
    }

    /// The union of all part domains.
    ///
    /// # Errors
    /// See [`Map::domain`].
    pub fn domain(&self) -> Result<UnionSet> {
        let mut out = UnionSet::new();
        for p in &self.parts {
            out.add(p.domain()?)?;
        }
        Ok(out)
    }

    /// The union of all part ranges.
    ///
    /// # Errors
    /// See [`Map::range`].
    pub fn range(&self) -> Result<UnionSet> {
        let mut out = UnionSet::new();
        for p in &self.parts {
            out.add(p.range()?)?;
        }
        Ok(out)
    }

    /// Restricts every part's domain by the matching part of `domain`
    /// (parts with no matching space are dropped).
    ///
    /// # Errors
    /// See [`Map::intersect_domain`].
    pub fn intersect_domain(&self, domain: &UnionSet) -> Result<UnionMap> {
        let mut out = UnionMap::new();
        for p in &self.parts {
            for d in domain.parts() {
                if p.space().domain_space().compatible(d.space()) {
                    out.add(p.intersect_domain(d)?)?;
                }
            }
        }
        Ok(out)
    }
}

impl std::fmt::Display for UnionMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{ ")?;
        for (i, p) in self.parts.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            let s = p.to_string();
            let inner = s.trim_start_matches(|c| c != '{').trim_start_matches('{');
            let inner = inner.trim_end_matches('}').trim();
            write!(f, "{inner}")?;
        }
        write!(f, " }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(s: &str) -> Set {
        s.parse().unwrap()
    }

    fn map(s: &str) -> Map {
        s.parse().unwrap()
    }

    #[test]
    fn union_set_merges_same_space() {
        let mut u = UnionSet::new();
        u.add(set("{ S[i] : 0 <= i <= 2 }")).unwrap();
        u.add(set("{ T[i] : 0 <= i <= 2 }")).unwrap();
        u.add(set("{ S[i] : 5 <= i <= 6 }")).unwrap();
        assert_eq!(u.parts().len(), 2);
        let s = u.part_named("S").unwrap();
        assert!(s.contains(&[6]).unwrap());
        assert!(u.part_named("Q").is_none());
    }

    #[test]
    fn union_set_subtract_per_space() {
        let a =
            UnionSet::from_parts([set("{ S[i] : 0 <= i <= 9 }"), set("{ T[i] : 0 <= i <= 9 }")])
                .unwrap();
        let b = UnionSet::from_parts([set("{ S[i] : 0 <= i <= 9 }")]).unwrap();
        let d = a.subtract(&b).unwrap();
        assert!(d.part_named("S").unwrap().is_empty().unwrap());
        assert!(!d.part_named("T").unwrap().is_empty().unwrap());
    }

    #[test]
    fn union_map_apply() {
        let us = UnionSet::from_parts([set("{ S[i] : 0 <= i <= 3 }")]).unwrap();
        let um =
            UnionMap::from_parts([map("{ S[i] -> A[i+1] }"), map("{ T[i] -> B[i] }")]).unwrap();
        let img = us.apply(&um).unwrap();
        assert_eq!(img.parts().len(), 1);
        assert!(img
            .part_named("A")
            .unwrap()
            .is_equal(&set("{ A[a] : 1 <= a <= 4 }"))
            .unwrap());
    }

    #[test]
    fn union_map_compose_and_reverse() {
        let w = UnionMap::from_parts([map("{ S[i] -> A[i] }")]).unwrap();
        let r = UnionMap::from_parts([map("{ T[j] -> A[j+1] }")]).unwrap();
        // dependence-style composition: S -> A -> T
        let dep = w.compose(&r.reverse()).unwrap();
        assert_eq!(dep.parts().len(), 1);
        let m = &dep.parts()[0];
        assert_eq!(m.space().in_tuple().name(), Some("S"));
        assert_eq!(m.space().out_tuple().name(), Some("T"));
        // S[i] writes A[i]; T[j] reads A[j+1]; so i = j+1, i.e. S[i] -> T[i-1].
        assert!(m.contains_pair(&[3, 2]).unwrap());
        assert!(!m.contains_pair(&[3, 3]).unwrap());
    }

    #[test]
    fn union_map_domain_range_and_filters() {
        let um = UnionMap::from_parts([map("{ S[i] -> A[i] : 0 <= i <= 1 }")]).unwrap();
        assert!(um.domain().unwrap().part_named("S").is_some());
        assert!(um.range().unwrap().part_named("A").is_some());
        assert_eq!(um.parts_from("S").len(), 1);
        assert_eq!(um.parts_from("X").len(), 0);
        assert!(!um.is_empty().unwrap());
    }

    #[test]
    fn union_map_intersect_domain() {
        let um = UnionMap::from_parts([map("{ S[i] -> A[i] }")]).unwrap();
        let dom = UnionSet::from_parts([set("{ S[i] : 0 <= i <= 1 }")]).unwrap();
        let r = um.intersect_domain(&dom).unwrap();
        let rng = r.range().unwrap();
        assert!(rng
            .part_named("A")
            .unwrap()
            .is_equal(&set("{ A[i] : 0 <= i <= 1 }"))
            .unwrap());
    }

    #[test]
    fn display_lists_all_parts() {
        let u = UnionSet::from_parts([set("{ S[i] : i = 0 }"), set("{ T[j] : j = 1 }")]).unwrap();
        let text = u.to_string();
        assert!(text.contains("S[i]"), "{text}");
        assert!(text.contains("T[j]"), "{text}");
    }
}
