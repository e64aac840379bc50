//! Property-based end-to-end validation: random pipelines of pointwise,
//! stencil, downsample and combine stages are optimized with random tile
//! sizes and executed; the output must always match the reference
//! execution, and fusion must never lose instances (recomputation only
//! ever adds). Randomness comes from a deterministic in-tree xorshift
//! generator so the suite is reproducible without external dependencies.

use tilefuse::codegen::{
    check_outputs_match, execute_compiled, execute_tree, execute_tree_dag, lower_tree,
    reference_execute, ExecBackend,
};
use tilefuse::core::{optimize, FaultInjection, Options};
use tilefuse::scheduler::FusionHeuristic;
use tilefuse::workloads::pipeline::PipelineBuilder;

/// Deterministic xorshift64* PRNG for test-case generation.
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

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// Kinds of stages the generator may append.
#[derive(Debug, Clone, Copy)]
enum StageKind {
    Pointwise,
    StencilX,
    StencilY,
    CombineWithInput,
}

const KINDS: [StageKind; 4] = [
    StageKind::Pointwise,
    StageKind::StencilX,
    StageKind::StencilY,
    StageKind::CombineWithInput,
];

fn random_kinds(rng: &mut Rng) -> Vec<StageKind> {
    let n = rng.range(1, 5) as usize;
    (0..n).map(|_| KINDS[rng.range(0, 4) as usize]).collect()
}

fn build_pipeline(kinds: &[StageKind], size: i64) -> tilefuse::pir::Program {
    let (mut b, input) = PipelineBuilder::new("prop", size, size);
    let mut cur = input;
    for k in kinds {
        cur = match k {
            StageKind::Pointwise => b.pointwise(cur).unwrap(),
            StageKind::StencilX => b.stencil_x(cur, 1).unwrap(),
            StageKind::StencilY => b.stencil_y(cur, 1).unwrap(),
            StageKind::CombineWithInput => b.combine(cur, input).unwrap(),
        };
    }
    b.output(cur).unwrap()
}

#[test]
fn random_pipeline_post_tiling_fusion_is_correct() {
    let mut rng = Rng::new(0x70f1);
    for _ in 0..12 {
        let kinds = random_kinds(&mut rng);
        let tile = rng.range(2, 5) as i64;
        let startup_smart = rng.next().is_multiple_of(2);
        let size = 14;
        let p = build_pipeline(&kinds, size);
        let opts = Options {
            tile_sizes: vec![tile, tile],
            parallel_cap: None,
            startup: if startup_smart {
                FusionHeuristic::SmartFuse
            } else {
                FusionHeuristic::MinFuse
            },
            ..Default::default()
        };
        let o = optimize(&p, &opts).unwrap();
        let (reference, ref_stats) = reference_execute(&p, &[]).unwrap();
        let (transformed, stats) =
            execute_tree(&p, &o.tree, &[], &o.report.scratch_scopes).unwrap();
        check_outputs_match(&p, &reference, &transformed, 1e-9).unwrap();
        // Fusion never *loses* output-relevant instances; the live-out
        // statements execute exactly once per domain point.
        for s in p.stmts() {
            if p.is_live_out(s.id()) {
                assert_eq!(
                    stats.instances.get(s.name()),
                    ref_stats.instances.get(s.name()),
                    "kinds = {kinds:?} tile = {tile}"
                );
            }
        }
    }
}

/// Parallel execution — the tile DAG, and the compiled program with its coincident loops cut into pool tasks — must be
/// *bit-identical* to the sequential interpreter — buffers and statistics
/// — on optimized (tiled, post-tiling-fused, scratch-carrying) schedules,
/// for every thread count.
#[test]
fn random_pipeline_parallel_execution_is_bit_identical() {
    let mut rng = Rng::new(0xd1ce);
    for case in 0..10 {
        let kinds = random_kinds(&mut rng);
        let tile = rng.range(2, 5) as i64;
        let size = 14;
        let p = build_pipeline(&kinds, size);
        let opts = Options {
            tile_sizes: vec![tile, tile],
            parallel_cap: None,
            ..Default::default()
        };
        let o = optimize(&p, &opts).unwrap();
        let scopes = &o.report.scratch_scopes;
        let (seq, seq_stats) = execute_tree(&p, &o.tree, &[], scopes).unwrap();
        let compiled = lower_tree(&p, &o.tree, &[], scopes).unwrap();
        for threads in [2, 5] {
            let runs = [
                execute_tree_dag(&p, &o.tree, &[], scopes, threads, ExecBackend::Vm).unwrap(),
                execute_compiled(&p, &compiled, threads).unwrap(),
            ];
            for (par, par_stats) in runs {
                for a in p.arrays() {
                    assert_eq!(
                        seq.max_diff(&par, a.id()).unwrap(),
                        0.0,
                        "case {case}: array {} differs with {threads} threads \
                         (kinds = {kinds:?}, tile = {tile})",
                        a.name()
                    );
                }
                assert_eq!(
                    seq_stats, par_stats,
                    "case {case}: stats differ with {threads} threads (kinds = {kinds:?})"
                );
            }
        }
    }
}

/// Budget exhaustion must degrade identically no matter which execution
/// backend consumes the result: the `DegradationReport` is produced by
/// `optimize` alone (two optimize runs under the same exhausted budget
/// land on the same rung), and the degraded tree — at every rung of the
/// ladder, including real (non-injected) exhaustion — executes
/// bit-exactly on the bytecode VM: identical buffers by f64 bit pattern
/// and identical statistics to the interpreter, sequentially and in
/// parallel.
#[test]
fn degraded_schedules_are_bit_exact_across_backends() {
    let mut rng = Rng::new(0xbadbed);
    let faults: [(FaultInjection, Option<u8>, Option<u64>); 4] = [
        // Injected exhaustion at each pipeline phase → rungs 2, 3, 4.
        (FaultInjection::BudgetExhaustExtension, Some(2), None),
        (FaultInjection::BudgetExhaustSurgery, Some(3), None),
        (FaultInjection::BudgetExhaustTiling, Some(4), None),
        // Real exhaustion: a zero-op omega grant trips wherever the first
        // feasibility test lands; whatever rung results must still be
        // backend-independent and bit-exact.
        (FaultInjection::None, None, Some(0)),
    ];
    for (case, (fault, want_rung, max_ops)) in faults.into_iter().enumerate() {
        let kinds = random_kinds(&mut rng);
        let tile = rng.range(2, 5) as i64;
        let p = build_pipeline(&kinds, 14);
        let opts = Options {
            tile_sizes: vec![tile, tile],
            parallel_cap: None,
            fault,
            budget: tilefuse::trace::Budget {
                max_omega_ops: max_ops,
                ..Default::default()
            },
            ..Default::default()
        };
        // One optimize run per backend: the reports must agree rung for
        // rung (degradation is decided before any backend runs).
        let oi = optimize(&p, &opts).unwrap();
        let ov = optimize(&p, &opts).unwrap();
        assert_eq!(
            oi.report.degradation.rung, ov.report.degradation.rung,
            "case {case} ({fault:?}): rung differs between optimize runs"
        );
        if let Some(want) = want_rung {
            assert_eq!(
                oi.report.degradation.rung, want,
                "case {case} ({fault:?}): {:?}",
                oi.report.degradation
            );
        }
        assert!(
            oi.report.degradation.rung == 1 || !oi.report.degradation.trips.is_empty(),
            "case {case}: degraded without a recorded trip"
        );
        let (seq, seq_stats) = execute_tree(&p, &oi.tree, &[], &oi.report.scratch_scopes).unwrap();
        let compiled = lower_tree(&p, &ov.tree, &[], &ov.report.scratch_scopes).unwrap();
        for threads in [1, 3] {
            let (vm, vm_stats) = execute_compiled(&p, &compiled, threads).unwrap();
            for a in p.arrays() {
                let bi = seq.buffer(a.id()).data();
                let bv = vm.buffer(a.id()).data();
                assert!(
                    bi.len() == bv.len()
                        && bi.iter().zip(bv).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "case {case} ({fault:?}) rung {}: array {} differs on the VM \
                     with {threads} thread(s) (kinds = {kinds:?}, tile = {tile})",
                    oi.report.degradation.rung,
                    a.name()
                );
            }
            assert_eq!(
                seq_stats, vm_stats,
                "case {case} ({fault:?}) rung {}: stats differ with {threads} thread(s)",
                oi.report.degradation.rung
            );
        }
    }
}

#[test]
fn random_pipeline_heuristics_are_correct() {
    let mut rng = Rng::new(0xac3);
    for _ in 0..12 {
        let kinds = random_kinds(&mut rng);
        let which = rng.range(0, 3) as usize;
        let p = build_pipeline(&kinds, 12);
        let h = [
            FusionHeuristic::MinFuse,
            FusionHeuristic::SmartFuse,
            FusionHeuristic::MaxFuse,
        ][which];
        let s = tilefuse::scheduler::schedule(&p, h).unwrap();
        // Legality double-check with the exact checker.
        let flat = tilefuse::schedtree::flatten(&s.tree).unwrap();
        let report = tilefuse::scheduler::check_schedule(&s.deps, &flat).unwrap();
        assert!(report.legal, "{:?}", report.violations);
        let (reference, _) = reference_execute(&p, &[]).unwrap();
        let (transformed, _) = execute_tree(&p, &s.tree, &[], &Default::default()).unwrap();
        check_outputs_match(&p, &reference, &transformed, 1e-9).unwrap();
    }
}
