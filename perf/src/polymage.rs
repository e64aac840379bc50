//! `harris_32`, `pyramid_512`, `laplacian_compile`: one PolyMage pipeline
//! each through the optimizer-driven chain of [`crate::pipeline`].

use std::time::Instant;
use tilefuse::codegen::ExecContext;
use tilefuse::pir::Program;
use tilefuse::workloads::{polymage, Workload};
use tilefuse::Options;

use crate::bench::Recorder;
use crate::native::Nest;
use crate::pipeline::{self, ratio, Reference, Source};
use crate::spans::Spans;
use crate::time_left;

type Builder = fn(i64, i64) -> tilefuse::pir::Result<Workload>;

/// `(builder, image size, tile, hand-written nest)` of a workload name.
/// Sizes and tiles are argued in `BENCHMARK.json` and the README.
fn spec(name: &str) -> Option<(Builder, i64, [i64; 2], bool)> {
    match name {
        "harris_32" => Some((polymage::harris, 32, [4, 4], true)),
        "pyramid_512" => Some((polymage::multiscale_interpolation, 512, [32, 32], false)),
        "laplacian_compile" => Some((polymage::local_laplacian, 32, [4, 4], false)),
        _ => None,
    }
}

/// What set-up leaves for the measured rounds.
pub struct Setup {
    source: [Source; 1],
    reference: [Reference; 1],
    nest: Option<Nest>,
}

/// Builds the program, its expected result, and — for Harris — the
/// hand-written nest, which must equal the reference bit for bit.
pub fn setup(name: &str, rec: &mut Recorder) -> Result<Setup, String> {
    let (builder, size, tile, has_nest) =
        spec(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let source = Source {
        name: name.to_string(),
        build: Box::new(move || -> Result<Program, String> {
            builder(size, size)
                .map(|w| w.program)
                .map_err(|e| e.to_string())
        }),
        opts: Options::cpu(&tile),
        overrides: Vec::new(),
    };
    let reference = Reference::of(&source)?;
    let nest = has_nest.then(|| {
        let program = &reference.program;
        let mut nest = Nest::harris(program, &ExecContext::initialized(program, &[]));
        nest.run();
        rec.expect(
            "native harris",
            nest.matches(program, &reference.ctx),
            "hand-written nest differs from reference_execute",
        );
        nest
    });
    Ok(Setup {
        source: [source],
        reference: [reference],
        nest,
    })
}

/// The end-to-end pass: cold chains until `seconds` have been measured.
pub fn e2e_pass(setup: &Setup, seconds: f64, rec: &mut Recorder) {
    let start = Instant::now();
    let mut rounds = 0;
    while time_left(start, seconds, rounds) {
        let sums = pipeline::e2e_round(&setup.source, &setup.reference, rec);
        sums.record(rec);
        rec.sample("e2e_ms", sums.chain_ms);
        rounds += 1;
    }
}

/// The traced pass, plus the hand-written ceiling where there is one.
pub fn layer_pass(setup: &mut Setup, rec: &mut Recorder, spans: &mut Spans) -> Result<(), String> {
    pipeline::layer_pass(&setup.source, &setup.reference, rec, spans)?;
    if let Some(nest) = &mut setup.nest {
        let (run_ns, _) = spans.scope("native.harris", |_| nest.time_ns());
        let native_ns = run_ns / setup.reference[0].instances as f64;
        let vm_ns = ratio(
            rec.value("codegen.vm_exec_ms") * 1e6,
            setup.reference[0].instances as f64,
        );
        rec.sample("codegen.native_ns_per_instance", native_ns);
        rec.sample("codegen.vm_over_native", ratio(vm_ns, native_ns));
    }
    Ok(())
}
