//! Micro-benchmarks of the polyhedral substrate: the elementary set/map
//! operations Algorithms 1-3 are built from, plus a cached-vs-uncached
//! comparison of the one memoized operation, `is_empty`.

use std::hint::black_box;
use tilefuse_bench::microbench::Harness;
use tilefuse_presburger::{stats, Map, Set};

fn main() {
    let dom: Set = "[H, W] -> { S2[h,w,kh,kw] : 0 <= h <= H - 3 and 0 <= w <= W - 3 \
                    and 0 <= kh <= 2 and 0 <= kw <= 2 }"
        .parse()
        .unwrap();
    let read: Map = "[H, W] -> { S2[h,w,kh,kw] -> A[h+kh, w+kw] }"
        .parse()
        .unwrap();
    let tile: Map = "[H, W] -> { S2[h,w,kh,kw] -> [o0, o1] : 32o0 <= h <= 32o0 + 31 \
                     and 32o1 <= w <= 32o1 + 31 }"
        .parse()
        .unwrap();
    let write: Map = "[H, W] -> { S0[h, w] -> A[h, w] : 0 <= h < H and 0 <= w < W }"
        .parse()
        .unwrap();

    let mut h = Harness::new("presburger_ops");
    h.sample_size(10);

    h.bench("parse_set", |b| {
        b.iter(|| {
            let s: Set = black_box("[N] -> { S[i, j] : 0 <= i < N and 0 <= j <= i }")
                .parse()
                .unwrap();
            black_box(s)
        })
    });
    h.bench("intersect_domain", |b| {
        b.iter(|| black_box(read.intersect_domain(black_box(&dom)).unwrap()))
    });
    h.bench("footprint_relation4", |b| {
        b.iter(|| {
            // reverse(tile) ∘ read — the paper's relation (4).
            black_box(tile.reverse().compose(black_box(&read)).unwrap())
        })
    });
    {
        let fp = tile.reverse().compose(&read).unwrap();
        h.bench("extension_relation6", |b| {
            b.iter(|| black_box(fp.compose(&write.reverse()).unwrap()))
        });
    }
    {
        let s: Set = "{ S[x, y] : 11x + 13y >= 27 and 11x + 13y <= 45 \
                        and 7x - 9y >= -10 and 7x - 9y <= 4 }"
            .parse()
            .unwrap();
        h.bench("emptiness_omega", |b| {
            b.iter(|| black_box(s.is_empty().unwrap()))
        });
    }
    {
        let a: Set = "{ S[i] : 0 <= i <= 100 }".parse().unwrap();
        let c2: Set = "{ S[i] : 40 <= i <= 60 }".parse().unwrap();
        h.bench("subtract_and_subset", |b| {
            b.iter(|| black_box(a.subtract(black_box(&c2)).unwrap()))
        });
    }

    // Cached vs uncached: emptiness with the memo table cleared before
    // every call versus left warm. Projection and apply always compute;
    // clearing the table makes the emptiness tests inside them cold too.
    let fat: Set = "[N] -> { S[i, j, k] : 0 <= i < N and 0 <= j <= i and \
                    3k >= j - 7 and 2k <= i + j and -20 <= k <= 20 }"
        .parse()
        .unwrap();
    h.bench("is_empty_uncached", |b| {
        b.iter(|| {
            stats::clear_cache();
            black_box(fat.is_empty().unwrap())
        })
    });
    h.bench("is_empty_cached", |b| {
        stats::clear_cache();
        let _ = fat.is_empty().unwrap();
        b.iter(|| black_box(fat.is_empty().unwrap()))
    });
    h.bench("project_out_uncached", |b| {
        b.iter(|| {
            stats::clear_cache();
            black_box(fat.project_out_dims(1, 2).unwrap())
        })
    });
    h.bench("apply_uncached", |b| {
        b.iter(|| {
            stats::clear_cache();
            black_box(read.apply(black_box(&dom)).unwrap())
        })
    });

    println!("\npresburger cache stats: {}", stats::snapshot());
}
