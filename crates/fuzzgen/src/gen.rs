//! Seeded random generation of program specs.
//!
//! Programs are grown stage by stage: each stage picks a random earlier
//! output and a random access pattern (pointwise, stencil, shift, stride,
//! diamond combine), with fallbacks that keep every domain comfortably
//! non-empty at the default parameters. A third of the specs additionally
//! receive a *shared-intermediate scenario* — two live-out slice consumers
//! of one earlier temp — because that is where Algorithm 3's rules (and
//! historically their bugs) live.

use crate::rng::Rng;
use crate::spec::{kind_extents, Extents, ProgramSpec, StageKind, StageSpec};

/// Minimum rows/columns a generated stage may shrink the image to at the
/// default parameters; below this, stages degrade to pointwise.
const MIN_ROWS: i64 = 4;

fn pick_kind(rng: &mut Rng, exts: &[Extents], src: usize, size: i64) -> StageKind {
    for _ in 0..4 {
        let cand = match rng.range(0, 6) {
            0 => StageKind::Point,
            1 => StageKind::StencilX(rng.range(1, 3) as i64),
            2 => StageKind::StencilY(rng.range(1, 3) as i64),
            3 => {
                let dh = rng.range(0, 2) as i64;
                let dw = rng.range(0, 2) as i64;
                StageKind::Shift {
                    dh: if dh == 0 && dw == 0 { 1 } else { dh },
                    dw,
                }
            }
            4 => StageKind::Stride2,
            _ => StageKind::Combine {
                src2: rng.range(0, exts.len() as u64) as usize,
            },
        };
        if let Some(e) = kind_extents(&cand, exts, src) {
            if e.min_rows(size) >= MIN_ROWS {
                return cand;
            }
        }
    }
    StageKind::Point
}

/// Draws one random spec from `rng`. Same generator state → same spec.
pub fn random_spec(rng: &mut Rng) -> ProgramSpec {
    let size = *rng.pick(&[8, 10, 12, 14]);
    let mut spec = ProgramSpec {
        size,
        tile: rng.range(2, 7) as i64,
        smart_startup: rng.chance(1, 2),
        parallel_cap: *rng.pick(&[None, Some(1), Some(2)]),
        param_delta: if rng.chance(1, 3) { 2 } else { 0 },
        stages: Vec::new(),
    };
    let mut exts = vec![Extents::id()];
    let n = rng.range(1, 6) as usize;
    for _ in 0..n {
        let src = rng.range(0, exts.len() as u64) as usize;
        let kind = pick_kind(rng, &exts, src, size);
        let e = kind_extents(&kind, &exts, src).expect("picked kind is applicable");
        exts.push(e);
        spec.stages.push(StageSpec {
            kind,
            src,
            liveout: rng.chance(1, 8),
        });
    }
    if rng.chance(1, 3) {
        // Shared-intermediate scenario: two live-out slice consumers of
        // one non-live-out stage output (never the raw input — slicing an
        // input creates no producer to share).
        let cands: Vec<usize> = (1..exts.len())
            .filter(|&k| {
                !spec.stages[k - 1].liveout
                    && kind_extents(
                        &StageKind::Slice {
                            lo: true,
                            overlap: false,
                        },
                        &exts,
                        k,
                    )
                    .is_some_and(|e| e.min_rows(size) >= MIN_ROWS)
            })
            .collect();
        if !cands.is_empty() {
            let src = *rng.pick(&cands);
            let overlap = rng.chance(1, 2);
            for lo in [true, false] {
                spec.stages.push(StageSpec {
                    kind: StageKind::Slice { lo, overlap },
                    src,
                    liveout: true,
                });
                exts.push(exts[src]);
            }
        }
    }
    spec.stages.last_mut().expect("n >= 1").liveout = true;
    spec
}

/// Draws a random — deliberately aggressive — resource budget for the
/// `--budget-fuzz` soak mode. The distribution is skewed toward budgets
/// that WILL trip (zero-op grants, 1 ms deadlines) because the property
/// under test is the degradation ladder, not the happy path; `None`
/// entries keep a share of effectively-unlimited axes so rung-1 runs stay
/// in the mix.
pub fn random_budget(rng: &mut Rng) -> tilefuse_trace::Budget {
    tilefuse_trace::Budget {
        deadline_ms: *rng.pick(&[None, None, Some(0), Some(1), Some(5), Some(50)]),
        max_omega_ops: *rng.pick(&[None, Some(0), Some(1), Some(100), Some(10_000)]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::build_program;

    #[test]
    fn generated_specs_always_lower() {
        for seed in 0..200 {
            let mut rng = Rng::new(seed);
            let spec = random_spec(&mut rng);
            let p = build_program(&spec)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", crate::spec::describe(&spec)));
            assert!(!p.stmts().is_empty());
            // Every statement's domain is non-empty at the defaults.
            for s in p.stmts() {
                let hull = s
                    .domain()
                    .rect_hull(&[spec.size, spec.size])
                    .unwrap()
                    .expect("non-empty domain");
                assert!(hull.iter().all(|(l, u)| l <= u), "{}: {hull:?}", s.name());
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = random_spec(&mut Rng::new(99));
        let b = random_spec(&mut Rng::new(99));
        assert_eq!(a, b);
    }

    #[test]
    fn shared_intermediate_scenarios_appear() {
        let mut with_slices = 0;
        for seed in 0..100 {
            let spec = random_spec(&mut Rng::new(seed));
            if spec
                .stages
                .iter()
                .any(|s| matches!(s.kind, StageKind::Slice { .. }))
            {
                with_slices += 1;
            }
        }
        assert!(with_slices > 10, "only {with_slices}/100 specs had slices");
    }
}
