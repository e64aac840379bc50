//! Flattening: converting a schedule tree into per-statement schedule
//! relations.
//!
//! The result assigns every (possibly extension-introduced) statement
//! occurrence a relation `{ Stmt[i] -> [d0, d1, ...] }` into one common
//! lexicographic schedule space. Execution order is the lexicographic order
//! of the schedule tuples — the interpreter and the cost models both
//! consume this form, and the "skipped" mark prunes subtrees exactly like
//! the paper's code generator does.
//!
//! For a *tile* band the relation is not a function of the instance alone
//! (an extension-introduced instance can appear under several tiles); the
//! relation's graph enumerates each (tile, instance) execution pair, which
//! is precisely the recomputation semantics of overlapped tiling.

use crate::error::{Error, Result};
use crate::tree::{Node, ScheduleTree, MARK_SKIPPED};
use tilefuse_presburger::{AffExpr, Map, Scanner, Set, Space, Tuple};

/// One scheduled statement occurrence.
#[derive(Debug, Clone)]
pub struct FlatEntry {
    /// Statement (tuple) name.
    pub stmt: String,
    /// The instances executed by this occurrence.
    pub domain: Set,
    /// `{ Stmt[i] -> [schedule tuple] }`, padded to the common length.
    pub schedule: Map,
    /// Marks on the path from the root (e.g. `"kernel"`, `"thread"`).
    pub marks: Vec<String>,
    /// One flag per schedule dimension: `true` iff the dimension comes
    /// from a band member whose `coincident` bit is set, meaning no
    /// dependence crosses distinct values of that dimension (for a fixed
    /// outer prefix) and the parallel interpreter may fan it out across
    /// threads. Sequence dimensions and padding are always `false`.
    pub par_depths: Vec<bool>,
    /// The entry's schedule length *before* padding to the common length.
    /// Dimensions `>= sched_len` are constant-0 padding: the entry does not
    /// iterate them, so it must be *neutral* — not a veto — when deciding
    /// whether a depth may be parallelized across entries.
    pub sched_len: usize,
}

#[derive(Debug, Clone)]
struct Active {
    name: String,
    domain: Set,
    prefix: Map,
    /// Coincidence flag for each dimension of `prefix` (see
    /// [`FlatEntry::par_depths`]).
    flags: Vec<bool>,
}

/// Flattens a schedule tree (see module docs).
///
/// # Errors
/// Returns an error on malformed trees or set-operation failures.
pub fn flatten(tree: &ScheduleTree) -> Result<Vec<FlatEntry>> {
    let Node::Domain { domain, child } = tree.root() else {
        return Err(Error::Structure("root must be a domain node".into()));
    };
    let mut actives = Vec::new();
    for part in domain.parts() {
        let name = part
            .space()
            .tuple()
            .name()
            .ok_or_else(|| Error::Structure("domain tuples must be named".into()))?
            .to_owned();
        let prefix = const_map(part.space(), &[])?;
        actives.push(Active {
            name,
            domain: part.clone(),
            prefix,
            flags: Vec::new(),
        });
    }
    let mut out = Vec::new();
    walk(child, &actives, &mut Vec::new(), &mut out)?;
    // Pad schedules to the maximum length (padding dims are sequential).
    let max_len = out
        .iter()
        .map(|e| e.schedule.space().n_out())
        .max()
        .unwrap_or(0);
    for e in &mut out {
        let have = e.schedule.space().n_out();
        e.sched_len = have;
        if have < max_len {
            let pad = const_map(e.domain.space(), &vec![0; max_len - have])?;
            e.schedule = e.schedule.flat_range_product(&pad)?;
        }
        e.par_depths.resize(max_len, false);
    }
    Ok(out)
}

fn walk(
    node: &Node,
    actives: &[Active],
    marks: &mut Vec<String>,
    out: &mut Vec<FlatEntry>,
) -> Result<()> {
    match node {
        Node::Domain { .. } => Err(Error::Structure("nested domain node".into())),
        Node::Leaf => {
            for a in actives {
                if a.domain.is_empty()? {
                    continue;
                }
                out.push(FlatEntry {
                    stmt: a.name.clone(),
                    domain: a.domain.clone(),
                    schedule: a.prefix.clone(),
                    marks: marks.clone(),
                    par_depths: a.flags.clone(),
                    sched_len: a.prefix.space().n_out(),
                });
            }
            Ok(())
        }
        Node::Mark { mark, child } => {
            if mark == MARK_SKIPPED {
                return Ok(());
            }
            marks.push(mark.clone());
            walk(child, actives, marks, out)?;
            marks.pop();
            Ok(())
        }
        Node::Filter { filter, child } => {
            let mut kept = Vec::new();
            for a in actives {
                if let Some(part) = filter.part_named(&a.name) {
                    let domain = a.domain.intersect(part)?;
                    if !domain.is_empty()? {
                        kept.push(Active {
                            name: a.name.clone(),
                            domain,
                            prefix: a.prefix.clone(),
                            flags: a.flags.clone(),
                        });
                    }
                }
            }
            walk(child, &kept, marks, out)
        }
        Node::Sequence { children } => {
            for (i, c) in children.iter().enumerate() {
                // A filter child keeps only the actives it names: extending
                // the rest is work its first step throws away.
                let named = |a: &&Active| match c {
                    Node::Filter { filter, .. } => filter.part_named(&a.name).is_some(),
                    _ => true,
                };
                let mut extended = Vec::new();
                for a in actives.iter().filter(named) {
                    let k = const_map(a.domain.space(), &[i as i64])?;
                    let mut flags = a.flags.clone();
                    flags.push(false);
                    extended.push(Active {
                        name: a.name.clone(),
                        domain: a.domain.clone(),
                        prefix: a.prefix.flat_range_product(&k)?,
                        flags,
                    });
                }
                walk(c, &extended, marks, out)?;
            }
            Ok(())
        }
        Node::Band { band, child } => {
            let n = band.n_member();
            let mut extended = Vec::with_capacity(actives.len());
            for a in actives {
                let part = band
                    .sched()
                    .parts()
                    .iter()
                    .find(|m| m.space().in_tuple().name() == Some(a.name.as_str()));
                let mut flags = a.flags.clone();
                let ext = match part {
                    Some(m) => {
                        flags.extend_from_slice(band.coincident());
                        a.prefix.flat_range_product(m)?
                    }
                    None => {
                        // Statement not scheduled by this band: pad with
                        // zeros so lengths stay aligned. The padded dims
                        // are constant, but the coincidence claim was not
                        // computed for this statement, so stay sequential.
                        flags.extend(std::iter::repeat_n(false, n));
                        let zeros = const_map(a.domain.space(), &vec![0; n])?;
                        a.prefix.flat_range_product(&zeros)?
                    }
                };
                extended.push(Active {
                    name: a.name.clone(),
                    domain: a.domain.clone(),
                    prefix: ext,
                    flags,
                });
            }
            walk(child, &extended, marks, out)
        }
        Node::Extension { extension, child } => {
            let mut extended = actives.to_vec();
            // The enclosing loop context: every outer-schedule prefix tuple
            // actually executed by the statements already active here.
            // Extension relations produced from footprint hulls can leave a
            // tile dimension unconstrained (the hull over-approximation
            // drops the tile↔instance link); such pieces are unbounded on
            // their own but finite once clipped to the prefixes that exist.
            // The clip is computed lazily and applied only to parts whose
            // relation the scanner cannot bound, so already-tight
            // extensions keep their exact relations (and downstream golden
            // lowerings) unchanged.
            let mut context: Option<Set> = None;
            for part in extension.parts() {
                let name = part
                    .space()
                    .out_tuple()
                    .name()
                    .ok_or_else(|| {
                        Error::Structure("extension target tuples must be named".into())
                    })?
                    .to_owned();
                if extended.iter().any(|a| a.name == name) {
                    return Err(Error::Structure(format!(
                        "extension re-introduces active statement {name}"
                    )));
                }
                let prefix_len = actives
                    .first()
                    .map(|a| a.prefix.space().n_out())
                    .unwrap_or(part.space().n_in());
                if part.space().n_in() != prefix_len {
                    return Err(Error::Structure(format!(
                        "extension over {} outer dims inserted at depth {prefix_len}",
                        part.space().n_in()
                    )));
                }
                // The extension statement shares the outer schedule prefix
                // with the existing actives, so it inherits their per-depth
                // coincidence flags: an extension-introduced producer is
                // tile-local (its writes land in tile-private scratch), so
                // a dimension that is parallel for the consumers stays
                // parallel with the producers fused in.
                let flags = actives
                    .first()
                    .map(|a| a.flags.clone())
                    .unwrap_or_else(|| vec![false; prefix_len]);
                let mut part = part.clone();
                if !Scanner::symbolic(part.as_wrapped_set())?.is_bounded() {
                    if context.is_none() {
                        context = enclosing_context(actives)?;
                    }
                    if let Some(ctx) = &context {
                        part = part.intersect_domain(ctx)?;
                    }
                }
                extended.push(Active {
                    name,
                    domain: part.range()?,
                    prefix: part.reverse(),
                    flags,
                });
            }
            walk(child, &extended, marks, out)
        }
    }
}

/// The union of outer-schedule prefix tuples executed by the given actives
/// (the "enclosing loop context" at an extension insertion point). `None`
/// when there are no actives to derive it from.
fn enclosing_context(actives: &[Active]) -> Result<Option<Set>> {
    let mut ctx: Option<Set> = None;
    for a in actives {
        let r = a.prefix.intersect_domain(&a.domain)?.range()?;
        ctx = Some(match ctx {
            None => r,
            Some(c) => c.union(&r)?,
        });
    }
    Ok(ctx)
}

/// `{ Stmt[i] -> [values...] }` over a statement's set space.
fn const_map(stmt_space: &Space, values: &[i64]) -> Result<Map> {
    let params: Vec<&str> = stmt_space.params().iter().map(String::as_str).collect();
    let space = Space::map(
        &params,
        stmt_space.tuple().clone(),
        Tuple::anonymous(values.len()),
    );
    let exprs: Vec<AffExpr> = values
        .iter()
        .map(|&v| AffExpr::constant(&space, v))
        .collect();
    Ok(Map::from_affine(space, &exprs)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::band::Band;
    use crate::tree::{band, extension, filter, mark, sequence};
    use tilefuse_presburger::{UnionMap, UnionSet};

    fn uset(s: &str) -> UnionSet {
        UnionSet::from_parts([s.parse::<Set>().unwrap()]).unwrap()
    }

    fn umap(s: &str) -> UnionMap {
        UnionMap::from_parts([s.parse::<Map>().unwrap()]).unwrap()
    }

    fn band1(m: &str) -> Band {
        Band::new(umap(m), true, vec![true]).unwrap()
    }

    #[test]
    fn flatten_two_statement_sequence() {
        // domain { S[i]; T[i] }, sequence(filter S -> band i, filter T -> band i)
        let dom = uset("{ S[i] : 0 <= i <= 3 }")
            .union(&uset("{ T[i] : 0 <= i <= 3 }"))
            .unwrap();
        let t = ScheduleTree::new(
            dom,
            sequence(vec![
                filter(uset("{ S[i] }"), band(band1("{ S[i] -> [i] }"), Node::Leaf)),
                filter(uset("{ T[i] }"), band(band1("{ T[i] -> [i] }"), Node::Leaf)),
            ]),
        );
        let flat = flatten(&t).unwrap();
        assert_eq!(flat.len(), 2);
        let s = flat.iter().find(|e| e.stmt == "S").unwrap();
        // S[2] -> [0, 2]
        assert!(s.schedule.contains_pair(&[2, 0, 2]).unwrap());
        let tt = flat.iter().find(|e| e.stmt == "T").unwrap();
        assert!(tt.schedule.contains_pair(&[2, 1, 2]).unwrap());
        assert_eq!(s.schedule.space().n_out(), tt.schedule.space().n_out());
    }

    #[test]
    fn skipped_subtree_produces_no_entries() {
        let dom = uset("{ S[i] : 0 <= i <= 3 }");
        let t = ScheduleTree::new(
            dom,
            sequence(vec![
                filter(
                    uset("{ S[i] : i <= 1 }"),
                    mark(MARK_SKIPPED, band(band1("{ S[i] -> [i] }"), Node::Leaf)),
                ),
                filter(
                    uset("{ S[i] : i >= 2 }"),
                    band(band1("{ S[i] -> [i] }"), Node::Leaf),
                ),
            ]),
        );
        let flat = flatten(&t).unwrap();
        assert_eq!(flat.len(), 1);
        assert!(flat[0].domain.contains(&[2]).unwrap());
        assert!(!flat[0].domain.contains(&[1]).unwrap());
    }

    #[test]
    fn marks_are_recorded() {
        let dom = uset("{ S[i] : 0 <= i <= 3 }");
        let t = ScheduleTree::new(
            dom,
            mark("kernel", band(band1("{ S[i] -> [i] }"), Node::Leaf)),
        );
        let flat = flatten(&t).unwrap();
        assert_eq!(flat[0].marks, vec!["kernel".to_owned()]);
    }

    #[test]
    fn extension_introduces_instances_per_tile() {
        // Tile band over T[o] for S (o = i/2), extension adds P instances
        // per tile: (o) -> P[p] : 2o <= p <= 2o+2 (overlap!).
        let dom = uset("{ S[i] : 0 <= i <= 5 }");
        let tile_band = Band::new(
            umap("{ S[i] -> [o] : 2o <= i <= 2o + 1 }"),
            true,
            vec![true],
        )
        .unwrap();
        let ext = umap("{ [o] -> P[p] : 2o <= p <= 2o + 2 and 0 <= p <= 6 }");
        let t = ScheduleTree::new(
            dom,
            band(
                tile_band,
                extension(
                    ext,
                    sequence(vec![
                        filter(uset("{ P[p] }"), band(band1("{ P[p] -> [p] }"), Node::Leaf)),
                        filter(uset("{ S[i] }"), band(band1("{ S[i] -> [i] }"), Node::Leaf)),
                    ]),
                ),
            ),
        );
        let flat = flatten(&t).unwrap();
        let p = flat.iter().find(|e| e.stmt == "P").unwrap();
        // P[2] runs under tile o=0 (2 <= 2+2) AND tile o=1 (2 <= 2): pairs
        // (instance 2 -> sched [0, 0, 2]) and (2 -> [1, 0, 2]).
        assert!(p.schedule.contains_pair(&[2, 0, 0, 2]).unwrap());
        assert!(p.schedule.contains_pair(&[2, 1, 0, 2]).unwrap());
        assert!(!p.schedule.contains_pair(&[2, 2, 0, 2]).unwrap());
        let s = flat.iter().find(|e| e.stmt == "S").unwrap();
        // S[3] in tile 1, sequence slot 1: [1, 1, 3]
        assert!(s.schedule.contains_pair(&[3, 1, 1, 3]).unwrap());
    }

    #[test]
    fn unbounded_extension_is_clipped_by_enclosing_context() {
        // An extension relation that lost the tile↔instance link (footprint
        // hull over-approximation): the P side never mentions o, so the
        // flattened pair set is unbounded in o unless the enclosing tile
        // context (o ∈ {0, 1, 2} from S's tile band) is clipped in.
        let dom = uset("{ S[i] : 0 <= i <= 5 }");
        let tile_band = Band::new(
            umap("{ S[i] -> [o] : 2o <= i <= 2o + 1 }"),
            true,
            vec![true],
        )
        .unwrap();
        let ext = umap("{ [o] -> P[p] : 0 <= p <= 2 }");
        let t = ScheduleTree::new(
            dom,
            band(
                tile_band,
                extension(
                    ext,
                    sequence(vec![
                        filter(uset("{ P[p] }"), band(band1("{ P[p] -> [p] }"), Node::Leaf)),
                        filter(uset("{ S[i] }"), band(band1("{ S[i] -> [i] }"), Node::Leaf)),
                    ]),
                ),
            ),
        );
        let flat = flatten(&t).unwrap();
        let p = flat.iter().find(|e| e.stmt == "P").unwrap();
        let graph = p.schedule.intersect_domain(&p.domain).unwrap();
        let sc = Scanner::new(graph.as_wrapped_set(), &[]).unwrap();
        // Without the clip this is Err(Unbounded { .. }).
        assert_eq!(sc.count().unwrap(), 9); // 3 tiles × 3 instances
        assert!(p.schedule.contains_pair(&[1, 2, 0, 1]).unwrap());
        assert!(!p.schedule.contains_pair(&[1, 3, 0, 1]).unwrap());
    }

    #[test]
    fn band_pads_missing_statements() {
        let dom = uset("{ S[i] : 0 <= i <= 1 }")
            .union(&uset("{ T[i] : 0 <= i <= 1 }"))
            .unwrap();
        // Band only schedules S; T must still flatten with padded zeros.
        let t = ScheduleTree::new(
            dom,
            band(
                band1("{ S[i] -> [i] }"),
                sequence(vec![
                    filter(uset("{ S[i] }"), Node::Leaf),
                    filter(uset("{ T[i] }"), Node::Leaf),
                ]),
            ),
        );
        let flat = flatten(&t).unwrap();
        let tt = flat.iter().find(|e| e.stmt == "T").unwrap();
        assert!(tt.schedule.contains_pair(&[1, 0, 1]).unwrap());
    }

    #[test]
    fn nested_sequences_order_lexicographically() {
        let dom = uset("{ S[i] : 0 <= i <= 5 }");
        let t = ScheduleTree::new(
            dom,
            sequence(vec![
                filter(
                    uset("{ S[i] : i <= 2 }"),
                    sequence(vec![
                        filter(uset("{ S[i] : i <= 0 }"), Node::Leaf),
                        filter(uset("{ S[i] : i >= 1 }"), Node::Leaf),
                    ]),
                ),
                filter(uset("{ S[i] : i >= 3 }"), Node::Leaf),
            ]),
        );
        let flat = flatten(&t).unwrap();
        assert_eq!(flat.len(), 3);
        // All schedules padded to the same length; distinct sequence
        // prefixes keep the three occurrences ordered.
        let l = flat[0].schedule.space().n_out();
        assert!(flat.iter().all(|e| e.schedule.space().n_out() == l));
        // First occurrence: i = 0 at prefix (0, 0); last: i >= 3 at (1, _).
        assert!(flat[0].domain.contains(&[0]).unwrap());
        assert!(!flat[0].domain.contains(&[1]).unwrap());
        assert!(flat[2].domain.contains(&[4]).unwrap());
    }

    #[test]
    fn mark_below_extension_is_preserved() {
        let dom = uset("{ S[i] : 0 <= i <= 1 }");
        let ext = umap("{ [] -> P[p] : 0 <= p <= 1 }");
        let t = ScheduleTree::new(
            dom,
            extension(
                ext,
                mark(
                    "kernel",
                    sequence(vec![
                        filter(uset("{ P[p] }"), band(band1("{ P[p] -> [p] }"), Node::Leaf)),
                        filter(uset("{ S[i] }"), band(band1("{ S[i] -> [i] }"), Node::Leaf)),
                    ]),
                ),
            ),
        );
        let flat = flatten(&t).unwrap();
        assert_eq!(flat.len(), 2);
        assert!(flat.iter().all(|e| e.marks == vec!["kernel".to_owned()]));
    }

    #[test]
    fn par_depths_track_band_coincidence() {
        let dom = uset("{ S[i] : 0 <= i <= 3 }")
            .union(&uset("{ T[i] : 0 <= i <= 3 }"))
            .unwrap();
        let seq_band = Band::new(umap("{ T[i] -> [i] }"), true, vec![false]).unwrap();
        let t = ScheduleTree::new(
            dom,
            sequence(vec![
                filter(uset("{ S[i] }"), band(band1("{ S[i] -> [i] }"), Node::Leaf)),
                filter(uset("{ T[i] }"), band(seq_band, Node::Leaf)),
            ]),
        );
        let flat = flatten(&t).unwrap();
        let s = flat.iter().find(|e| e.stmt == "S").unwrap();
        // Dim 0 is the sequence dim (never parallel); dim 1 is the
        // coincident band member.
        assert_eq!(s.par_depths, vec![false, true]);
        let tt = flat.iter().find(|e| e.stmt == "T").unwrap();
        assert_eq!(tt.par_depths, vec![false, false]);
    }

    #[test]
    fn par_depths_inherited_by_extension_and_padded_with_false() {
        // Same shape as extension_introduces_instances_per_tile: a
        // coincident tile band, then an extension introducing P.
        let dom = uset("{ S[i] : 0 <= i <= 5 }");
        let tile_band = Band::new(
            umap("{ S[i] -> [o] : 2o <= i <= 2o + 1 }"),
            true,
            vec![true],
        )
        .unwrap();
        let ext = umap("{ [o] -> P[p] : 2o <= p <= 2o + 2 and 0 <= p <= 6 }");
        let t = ScheduleTree::new(
            dom,
            band(
                tile_band,
                extension(
                    ext,
                    sequence(vec![
                        filter(uset("{ P[p] }"), Node::Leaf),
                        filter(uset("{ S[i] }"), band(band1("{ S[i] -> [i] }"), Node::Leaf)),
                    ]),
                ),
            ),
        );
        let flat = flatten(&t).unwrap();
        let p = flat.iter().find(|e| e.stmt == "P").unwrap();
        // P inherits the tile dim's coincidence, gets false for the
        // sequence dim, and false padding up to the common length.
        assert_eq!(p.par_depths, vec![true, false, false]);
        let s = flat.iter().find(|e| e.stmt == "S").unwrap();
        assert_eq!(s.par_depths, vec![true, false, true]);
    }

    #[test]
    fn empty_filtered_domains_drop_out() {
        let dom = uset("{ S[i] : 0 <= i <= 3 }");
        let t = ScheduleTree::new(
            dom,
            sequence(vec![
                filter(uset("{ S[i] : i >= 10 }"), Node::Leaf),
                filter(uset("{ S[i] }"), Node::Leaf),
            ]),
        );
        let flat = flatten(&t).unwrap();
        assert_eq!(flat.len(), 1);
    }
}
