//! Ceiling rows: the same computations as hand-written Rust loop nests.
//!
//! Each nest runs over plain `Vec<f64>` images that start from the same
//! pseudo-input values the interpreter starts from
//! (`ExecContext::initialized`), evaluates every expression in the order
//! `workloads::wavefront` / `workloads::pipeline` build it — floating-point
//! addition is not associative, so the order is part of the contract — and
//! is compared bit for bit with `reference_execute`. What it costs per
//! statement instance is how far the VM is from the hardware.

use std::hint::black_box;
use std::time::{Duration, Instant};
use tilefuse::codegen::ExecContext;
use tilefuse::pir::Program;

/// A row-major image.
#[derive(Debug, Clone)]
pub struct Image {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f64>,
}

impl Image {
    /// The initial contents of the array named `name`.
    fn initial(program: &Program, init: &ExecContext, name: &str) -> Image {
        let decl = program
            .array_named(name)
            .unwrap_or_else(|| panic!("array {name} exists"));
        let buf = init.buffer(decl.id());
        Image {
            rows: buf.shape()[0] as usize,
            cols: buf.shape()[1] as usize,
            data: buf.data().to_vec(),
        }
    }

    #[inline(always)]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }
}

const TIMED_BATCHES: usize = 5;
const BATCH: Duration = Duration::from_millis(20);

/// One hand-written nest with the images it runs over. [`Nest::run`] is
/// idempotent — every element a nest writes is recomputed from elements it
/// never writes — so one prepared nest can be timed many times.
pub struct Nest {
    names: &'static [&'static str],
    images: Vec<Image>,
    kernel: fn(&mut [Image]),
}

impl Nest {
    fn new(
        program: &Program,
        init: &ExecContext,
        names: &'static [&'static str],
        kernel: fn(&mut [Image]),
    ) -> Nest {
        Nest {
            names,
            images: names
                .iter()
                .map(|n| Image::initial(program, init, n))
                .collect(),
            kernel,
        }
    }

    /// The nest for `wavefront::upwind`.
    pub fn upwind(program: &Program, init: &ExecContext) -> Nest {
        Nest::new(program, init, &["A"], upwind)
    }

    /// The nest for `polymage::harris`.
    pub fn harris(program: &Program, init: &ExecContext) -> Nest {
        Nest::new(program, init, &HARRIS_ARRAYS, harris)
    }

    /// Runs the nest once, in place.
    pub fn run(&mut self) {
        (self.kernel)(black_box(&mut self.images));
        black_box(&self.images);
    }

    /// Nanoseconds per run: the nests take microseconds, so whole batches
    /// are timed and the best batch mean is kept (outside noise only ever
    /// adds time).
    pub fn time_ns(&mut self) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..TIMED_BATCHES {
            let start = Instant::now();
            let mut runs = 0u32;
            while start.elapsed() < BATCH {
                self.run();
                runs += 1;
            }
            best = best.min(start.elapsed().as_secs_f64() * 1e9 / f64::from(runs));
        }
        best
    }

    /// Whether every image equals the reference buffer of the same name,
    /// bit for bit.
    pub fn matches(&self, program: &Program, reference: &ExecContext) -> bool {
        self.names.iter().zip(&self.images).all(|(name, img)| {
            let Some(decl) = program.array_named(name) else {
                return false;
            };
            let want = reference.buffer(decl.id()).data();
            want.len() == img.data.len()
                && want
                    .iter()
                    .zip(&img.data)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        })
    }
}

/// `wavefront::upwind`: `A[t][i] = 0.5·A[t-1][i] + (A[t-1][i-1] + A[t][i-1])`
/// for `1 <= t <= T`, `1 <= i <= N`, in lexicographic `(t, i)` order.
fn upwind(images: &mut [Image]) {
    let a = &mut images[0];
    let cols = a.cols;
    for t in 1..a.rows {
        let (above, row) = a.data.split_at_mut(t * cols);
        let above = &above[(t - 1) * cols..];
        let row = &mut row[..cols];
        for i in 1..cols {
            row[i] = above[i] * 0.5 + (above[i - 1] + row[i - 1]);
        }
    }
}

/// `(x + y)` chains of one `stencil_x` / `stencil_y` stage of radius 1:
/// `(src[0] + (src[1] + src[1])) * (1/3)` — the builder pairs offset `o`
/// with offset `2r - o`, which for `r = 1` is the same tap twice.
#[inline(always)]
fn stencil1(a: f64, b: f64) -> f64 {
    (a + (b + b)) * (1.0 / 3.0)
}

/// `pipeline::stencil_box(src, 1)`: nine taps added left to right, top to
/// bottom, onto a leading `0.0`, then scaled by `1/9`.
fn box3(src: &Image, out: &mut Image) {
    for h in 0..out.rows {
        for w in 0..out.cols {
            let mut acc = 0.0;
            for oh in 0..3 {
                for ow in 0..3 {
                    acc += src.at(h + oh, w + ow);
                }
            }
            out.data[h * out.cols + w] = acc * (1.0 / 9.0);
        }
    }
}

/// `pipeline::combine`: `a·0.5 + b·0.5` over the output's extent.
fn combine(a: &Image, b: &Image, out: &mut Image) {
    for h in 0..out.rows {
        for w in 0..out.cols {
            out.data[h * out.cols + w] = a.at(h, w) * 0.5 + b.at(h, w) * 0.5;
        }
    }
}

/// `pipeline::pointwise`: `src·0.75 + 0.125`.
fn pointwise(src: &Image, out: &mut Image) {
    for h in 0..out.rows {
        for w in 0..out.cols {
            out.data[h * out.cols + w] = src.at(h, w) * 0.75 + 0.125;
        }
    }
}

const HARRIS_ARRAYS: [&str; 12] = [
    "in0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9", "t10", "t11",
];

/// `polymage::harris`, stage by stage in program order.
fn harris(images: &mut [Image]) {
    let [input, ix, iy, ixx, iyy, ixy, sxx, syy, sxy, det, resp, out] = images else {
        unreachable!("harris has twelve arrays");
    };
    for h in 0..ix.rows {
        for w in 0..ix.cols {
            ix.data[h * ix.cols + w] = stencil1(input.at(h, w), input.at(h, w + 1));
        }
    }
    for h in 0..iy.rows {
        for w in 0..iy.cols {
            iy.data[h * iy.cols + w] = stencil1(input.at(h, w), input.at(h + 1, w));
        }
    }
    pointwise(ix, ixx);
    pointwise(iy, iyy);
    combine(ix, iy, ixy);
    box3(ixx, sxx);
    box3(iyy, syy);
    box3(ixy, sxy);
    combine(sxx, syy, det);
    combine(det, sxy, resp);
    for h in 0..out.rows {
        for w in 0..out.cols {
            out.data[h * out.cols + w] = resp.at(h, w).max(0.0);
        }
    }
}
