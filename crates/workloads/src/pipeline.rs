//! A small builder for image-processing pipelines.
//!
//! PolyMage-style pipelines are chains and DAGs of stages over 2-D images:
//! pointwise maps, separable/2-D stencils, downsampling, and upsampling.
//! The builder produces a [`Program`] whose dependence structure matches
//! the real benchmarks (stencil halos, pyramid levels, stage fan-out), so
//! fusion heuristics and the post-tiling optimizer face the same decisions
//! the paper's compiler did.
//!
//! Upsampling is expressed polyhedrally (no integer division) with four
//! statements writing the (even/odd row) × (even/odd column) points:
//! `U[2i, 2j] = D[i, j]`, `U[2i, 2j+1] = D[i, j]`, and so on.

use tilefuse_pir::{ArrayId, ArrayKind, Body, Expr, IdxExpr, Program, Result, SchedTerm};

/// The extent of one image dimension, tracked per stage: `(param, offset,
/// divisor)` meaning `(param + offset) / divisor` with exact division
/// assumed (sizes are powers of two in the pyramids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    offset: i64,
    divisor: i64,
}

/// A stage: the array holding its result plus its extents.
#[derive(Debug, Clone, Copy)]
pub struct Stage {
    /// The stage's output array.
    pub array: ArrayId,
    h: Extent,
    w: Extent,
}

/// Builds pipelines stage by stage.
#[derive(Debug)]
pub struct PipelineBuilder {
    program: Program,
    counter: usize,
    h_param: String,
    w_param: String,
}

impl PipelineBuilder {
    /// Starts a pipeline over an `h × w` input image (defaults for the
    /// parameters `H` and `W`).
    pub fn new(name: &str, h: i64, w: i64) -> (Self, Stage) {
        let mut program = Program::new(name).with_param("H", h).with_param("W", w);
        let input = program.add_array(
            "in0",
            vec![("H", 0).into(), ("W", 0).into()],
            ArrayKind::Input,
        );
        let b = PipelineBuilder {
            program,
            counter: 0,
            h_param: "H".into(),
            w_param: "W".into(),
        };
        let stage = Stage {
            array: input,
            h: Extent {
                offset: 0,
                divisor: 1,
            },
            w: Extent {
                offset: 0,
                divisor: 1,
            },
        };
        (b, stage)
    }

    /// Adds a second full-size input image.
    pub fn input(&mut self) -> Stage {
        self.counter += 1;
        let arr = self.program.add_array(
            &format!("in{}", self.counter),
            vec![
                (self.h_param.as_str(), 0).into(),
                (self.w_param.as_str(), 0).into(),
            ],
            ArrayKind::Input,
        );
        Stage {
            array: arr,
            h: Extent {
                offset: 0,
                divisor: 1,
            },
            w: Extent {
                offset: 0,
                divisor: 1,
            },
        }
    }

    /// Number of *statements* added so far.
    pub fn n_stmts(&self) -> usize {
        self.program.stmts().len()
    }

    fn fresh_array(&mut self, h: Extent, w: Extent, kind: ArrayKind) -> ArrayId {
        self.counter += 1;
        let name = format!("t{}", self.counter);
        // Decimated stages logically have extent (H + offset)/divisor; the
        // buffer is sized generously at H + offset (iteration domains are
        // exact, so the surplus is merely unused memory in the simulator).
        let he: tilefuse_pir::Extent = match h.divisor {
            1 => (self.h_param.as_str(), h.offset).into(),
            _ => (self.h_param.as_str(), h.offset.max(0)).into(),
        };
        let we: tilefuse_pir::Extent = match w.divisor {
            1 => (self.w_param.as_str(), w.offset).into(),
            _ => (self.w_param.as_str(), w.offset.max(0)).into(),
        };
        self.program.add_array(&name, vec![he, we], kind)
    }

    fn domain_str(&self, name: &str, h: Extent, w: Extent) -> String {
        // 0 <= d*h' <= H + offset - d  (i.e. h' < (H + offset)/d)
        let hp = &self.h_param;
        let wp = &self.w_param;
        let hcond = if h.divisor == 1 {
            format!("0 <= h and h <= {hp} + {}", h.offset - 1)
        } else {
            format!(
                "0 <= h and {}h <= {hp} + {}",
                h.divisor,
                h.offset - h.divisor
            )
        };
        let wcond = if w.divisor == 1 {
            format!("0 <= w and w <= {wp} + {}", w.offset - 1)
        } else {
            format!(
                "0 <= w and {}w <= {wp} + {}",
                w.divisor,
                w.offset - w.divisor
            )
        };
        format!("{{ {name}[h, w] : {hcond} and {wcond} }}")
    }

    fn next_stmt_name(&self) -> String {
        format!("S{}", self.program.stmts().len())
    }

    fn add_stage_stmt(
        &mut self,
        domain_h: Extent,
        domain_w: Extent,
        target: ArrayId,
        target_idx: Vec<IdxExpr>,
        rhs: Expr,
        work_scale: f64,
    ) -> Result<()> {
        let name = self.next_stmt_name();
        let domain = self.domain_str(&name, domain_h, domain_w);
        let seq = self.program.stmts().len() as i64;
        self.program.add_stmt_full(
            &domain,
            vec![SchedTerm::Cst(seq), SchedTerm::Var(0), SchedTerm::Var(1)],
            Body {
                target,
                target_idx,
                rhs,
            },
            false,
            work_scale,
        )?;
        Ok(())
    }

    /// A pointwise stage: `out[h,w] = f(in[h,w])`.
    ///
    /// # Errors
    /// Returns an error if program construction fails.
    pub fn pointwise(&mut self, src: Stage) -> Result<Stage> {
        let arr = self.fresh_array(src.h, src.w, ArrayKind::Temp);
        let d = |k| IdxExpr::dim(2, k);
        self.add_stage_stmt(
            src.h,
            src.w,
            arr,
            vec![d(0), d(1)],
            Expr::add(
                Expr::mul(Expr::load(src.array, vec![d(0), d(1)]), Expr::Const(0.75)),
                Expr::Const(0.125),
            ),
            1.0,
        )?;
        Ok(Stage { array: arr, ..src })
    }

    /// A binary pointwise stage combining two same-extent stages.
    ///
    /// # Errors
    /// Returns an error if program construction fails.
    pub fn combine(&mut self, a: Stage, b: Stage) -> Result<Stage> {
        let h = Extent {
            offset: a.h.offset.min(b.h.offset),
            divisor: a.h.divisor,
        };
        let w = Extent {
            offset: a.w.offset.min(b.w.offset),
            divisor: a.w.divisor,
        };
        let arr = self.fresh_array(h, w, ArrayKind::Temp);
        let d = |k| IdxExpr::dim(2, k);
        self.add_stage_stmt(
            h,
            w,
            arr,
            vec![d(0), d(1)],
            Expr::add(
                Expr::mul(Expr::load(a.array, vec![d(0), d(1)]), Expr::Const(0.5)),
                Expr::mul(Expr::load(b.array, vec![d(0), d(1)]), Expr::Const(0.5)),
            ),
            1.0,
        )?;
        Ok(Stage { array: arr, h, w })
    }

    /// An `r`-radius horizontal stencil: shrinks `w` by `2r`.
    ///
    /// # Errors
    /// Returns an error if program construction fails.
    pub fn stencil_x(&mut self, src: Stage, r: i64) -> Result<Stage> {
        let w = Extent {
            offset: src.w.offset - 2 * r * src.w.divisor,
            divisor: src.w.divisor,
        };
        let arr = self.fresh_array(src.h, w, ArrayKind::Temp);
        let d = |k| IdxExpr::dim(2, k);
        let mut rhs = Expr::load(src.array, vec![d(0), d(1)]);
        for o in 1..=r {
            rhs = Expr::add(
                rhs,
                Expr::add(
                    Expr::load(src.array, vec![d(0), d(1).offset(o)]),
                    Expr::load(src.array, vec![d(0), d(1).offset(2 * r - o)]),
                ),
            );
        }
        rhs = Expr::mul(rhs, Expr::Const(1.0 / (2.0 * r as f64 + 1.0)));
        self.add_stage_stmt(src.h, w, arr, vec![d(0), d(1)], rhs, 1.0)?;
        Ok(Stage {
            array: arr,
            h: src.h,
            w,
        })
    }

    /// An `r`-radius vertical stencil: shrinks `h` by `2r`.
    ///
    /// # Errors
    /// Returns an error if program construction fails.
    pub fn stencil_y(&mut self, src: Stage, r: i64) -> Result<Stage> {
        let h = Extent {
            offset: src.h.offset - 2 * r * src.h.divisor,
            divisor: src.h.divisor,
        };
        let arr = self.fresh_array(h, src.w, ArrayKind::Temp);
        let d = |k| IdxExpr::dim(2, k);
        let mut rhs = Expr::load(src.array, vec![d(0), d(1)]);
        for o in 1..=r {
            rhs = Expr::add(
                rhs,
                Expr::add(
                    Expr::load(src.array, vec![d(0).offset(o), d(1)]),
                    Expr::load(src.array, vec![d(0).offset(2 * r - o), d(1)]),
                ),
            );
        }
        rhs = Expr::mul(rhs, Expr::Const(1.0 / (2.0 * r as f64 + 1.0)));
        self.add_stage_stmt(h, src.w, arr, vec![d(0), d(1)], rhs, 1.0)?;
        Ok(Stage {
            array: arr,
            h,
            w: src.w,
        })
    }

    /// A full 3×3 stencil as *two* separable stages (x then y).
    ///
    /// # Errors
    /// Returns an error if program construction fails.
    pub fn stencil3x3(&mut self, src: Stage) -> Result<Stage> {
        let mid = self.stencil_x(src, 1)?;
        self.stencil_y(mid, 1)
    }

    /// A full `(2r+1)²` box stencil as a *single* stage (one statement
    /// reading the whole window).
    ///
    /// # Errors
    /// Returns an error if program construction fails.
    pub fn stencil_box(&mut self, src: Stage, r: i64) -> Result<Stage> {
        let h = Extent {
            offset: src.h.offset - 2 * r * src.h.divisor,
            divisor: src.h.divisor,
        };
        let w = Extent {
            offset: src.w.offset - 2 * r * src.w.divisor,
            divisor: src.w.divisor,
        };
        let arr = self.fresh_array(h, w, ArrayKind::Temp);
        let d = |k| IdxExpr::dim(2, k);
        let mut rhs = Expr::Const(0.0);
        for oh in 0..=2 * r {
            for ow in 0..=2 * r {
                rhs = Expr::add(
                    rhs,
                    Expr::load(src.array, vec![d(0).offset(oh), d(1).offset(ow)]),
                );
            }
        }
        let win = (2 * r + 1) as f64;
        rhs = Expr::mul(rhs, Expr::Const(1.0 / (win * win)));
        self.add_stage_stmt(h, w, arr, vec![d(0), d(1)], rhs, 1.0)?;
        Ok(Stage { array: arr, h, w })
    }

    /// 2× decimation: `out[h,w] = in[2h, 2w]` (plus neighbour average).
    ///
    /// # Errors
    /// Returns an error if program construction fails.
    pub fn downsample(&mut self, src: Stage) -> Result<Stage> {
        let h = Extent {
            offset: src.h.offset,
            divisor: src.h.divisor * 2,
        };
        let w = Extent {
            offset: src.w.offset,
            divisor: src.w.divisor * 2,
        };
        let arr = self.fresh_array(h, w, ArrayKind::Temp);
        let d = |k: usize| IdxExpr::dim(2, k);
        let rhs = Expr::mul(
            Expr::add(
                Expr::load(src.array, vec![d(0).scale(2), d(1).scale(2)]),
                Expr::load(
                    src.array,
                    vec![d(0).scale(2).offset(1), d(1).scale(2).offset(1)],
                ),
            ),
            Expr::Const(0.5),
        );
        self.add_stage_stmt(h, w, arr, vec![d(0), d(1)], rhs, 1.0)?;
        Ok(Stage { array: arr, h, w })
    }

    /// 2× upsampling, expressed with four polyhedral statements writing
    /// the (even/odd h) × (even/odd w) points of the result.
    ///
    /// # Errors
    /// Returns an error if program construction fails.
    pub fn upsample(&mut self, src: Stage) -> Result<Stage> {
        let h = Extent {
            offset: src.h.offset,
            divisor: src.h.divisor / 2,
        };
        let w = Extent {
            offset: src.w.offset,
            divisor: src.w.divisor / 2,
        };
        debug_assert!(
            src.h.divisor >= 2 && src.w.divisor >= 2,
            "upsample below full size"
        );
        let arr = self.fresh_array(h, w, ArrayKind::Temp);
        let d = |k: usize| IdxExpr::dim(2, k);
        for (oh, ow) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            // Statement over the *source* coordinates.
            let rhs = Expr::load(src.array, vec![d(0), d(1)]);
            self.add_stage_stmt(
                src.h,
                src.w,
                arr,
                vec![d(0).scale(2).offset(oh), d(1).scale(2).offset(ow)],
                rhs,
                1.0,
            )?;
        }
        Ok(Stage { array: arr, h, w })
    }

    /// Finishes the pipeline: a final pointwise stage writing the live-out
    /// output image.
    ///
    /// # Errors
    /// Returns an error if program construction fails.
    pub fn output(mut self, src: Stage) -> Result<Program> {
        let arr = self.fresh_array(src.h, src.w, ArrayKind::Output);
        let d = |k| IdxExpr::dim(2, k);
        self.add_stage_stmt(
            src.h,
            src.w,
            arr,
            vec![d(0), d(1)],
            Expr::relu(Expr::load(src.array, vec![d(0), d(1)])),
            1.0,
        )?;
        Ok(self.program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilefuse_codegen::{check_outputs_match, execute_tree, reference_execute};
    use tilefuse_scheduler::{schedule, FusionHeuristic};

    #[test]
    fn chain_builds_and_runs() {
        let (mut b, s0) = PipelineBuilder::new("chain", 16, 16);
        let s1 = b.pointwise(s0).unwrap();
        let s2 = b.stencil3x3(s1).unwrap();
        let p = b.output(s2).unwrap();
        assert_eq!(p.stmts().len(), 4);
        let (r, _) = reference_execute(&p, &[]).unwrap();
        let sch = schedule(&p, FusionHeuristic::SmartFuse).unwrap();
        let (t, _) = execute_tree(&p, &sch.tree, &[], &Default::default()).unwrap();
        check_outputs_match(&p, &r, &t, 1e-12).unwrap();
    }

    #[test]
    fn pyramid_down_up_is_polyhedral_and_correct() {
        let (mut b, s0) = PipelineBuilder::new("pyr", 16, 16);
        let down = b.downsample(s0).unwrap();
        let mid = b.pointwise(down).unwrap();
        let up = b.upsample(mid).unwrap();
        let comb = b.combine(up, s0).unwrap();
        let p = b.output(comb).unwrap();
        let (r, _) = reference_execute(&p, &[]).unwrap();
        let sch = schedule(&p, FusionHeuristic::MinFuse).unwrap();
        let (t, _) = execute_tree(&p, &sch.tree, &[], &Default::default()).unwrap();
        check_outputs_match(&p, &r, &t, 1e-12).unwrap();
    }

    #[test]
    fn stencil_shrinks_domain() {
        let (mut b, s0) = PipelineBuilder::new("st", 16, 16);
        let s1 = b.stencil_x(s0, 2).unwrap();
        let p = b.output(s1).unwrap();
        // Stage 1 domain: w in [0, W-5].
        let st = p.stmt_named("S0").unwrap();
        let hull = st.domain().rect_hull(&[16, 16]).unwrap().unwrap();
        assert_eq!(hull[1], (0, 11));
    }

    #[test]
    fn second_input_allowed() {
        let (mut b, s0) = PipelineBuilder::new("two", 8, 8);
        let other = b.input();
        let c = b.combine(s0, other).unwrap();
        let p = b.output(c).unwrap();
        assert_eq!(
            p.arrays()
                .iter()
                .filter(|a| a.kind() == ArrayKind::Input)
                .count(),
            2
        );
        let (r, _) = reference_execute(&p, &[]).unwrap();
        assert!(r.buffer(p.array_named("t3").unwrap().id()).data().len() == 64);
    }

    #[test]
    fn post_tiling_fusion_on_pipeline_is_correct() {
        let (mut b, s0) = PipelineBuilder::new("ptf", 20, 20);
        let s1 = b.pointwise(s0).unwrap();
        let s2 = b.stencil3x3(s1).unwrap();
        let s3 = b.pointwise(s2).unwrap();
        let p = b.output(s3).unwrap();
        let opts = tilefuse_core::Options {
            tile_sizes: vec![4, 4],
            parallel_cap: None,
            startup: FusionHeuristic::SmartFuse,
            ..Default::default()
        };
        let o = tilefuse_core::optimize(&p, &opts).unwrap();
        let (r, _) = reference_execute(&p, &[]).unwrap();
        let (t, stats) = execute_tree(&p, &o.tree, &[], &o.report.scratch_scopes).unwrap();
        check_outputs_match(&p, &r, &t, 1e-12).unwrap();
        assert!(stats.scratch_hits > 0);
    }
}
