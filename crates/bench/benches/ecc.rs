//! Microbenchmarks of the ECC memory fast path: the table-driven codec, the
//! bulk (frame-at-a-time) controller read/write streams, and the cached-plan
//! scrubber. These are the layers every simulated byte funnels through, so
//! regressions here show up directly as campaign throughput (measured end
//! to end by `perfbench`; see `perfbench/README.md`).
//!
//! Set `ECC_BENCH_JSON=<path>` to also emit the results as a JSON record —
//! CI uploads it as a build artifact.

use criterion::{black_box, Criterion};
use safemem_ecc::{Codec, EccController, EccMode, ScrambleScheme};

fn bench_codec(c: &mut Criterion) {
    let codec = Codec::new();
    c.bench_function("ecc/encode", |b| {
        let mut word = 0x9E37_79B9_7F4A_7C15u64;
        b.iter(|| {
            word = word.wrapping_mul(0xD128_1CD4_9A32_DB1D).rotate_left(17);
            codec.encode(black_box(word))
        })
    });
    let code = codec.encode(0xDEAD_BEEF_0123_4567);
    c.bench_function("ecc/decode_clean", |b| {
        b.iter(|| codec.decode(black_box(0xDEAD_BEEF_0123_4567), black_box(code)))
    });
    c.bench_function("ecc/decode_single_bit", |b| {
        b.iter(|| codec.decode(black_box(0xDEAD_BEEF_0123_4567 ^ 2), black_box(code)))
    });
    let scheme = ScrambleScheme::default();
    c.bench_function("ecc/decode_scrambled", |b| {
        b.iter(|| codec.decode(black_box(scheme.apply(0xDEAD_BEEF)), black_box(code)))
    });
}

fn bench_streaming(c: &mut Criterion) {
    // A 1 MiB working set streamed in 4 KiB spans: the shape workload
    // drivers present to the controller.
    const SPAN: usize = 4096;
    const SET: u64 = 1 << 20;
    let mut ctl = EccController::new(SET);
    let payload = [0x5Au8; SPAN];
    let mut addr = 0u64;
    c.bench_function("ecc/stream_write_4k", |b| {
        b.iter(|| {
            ctl.write(black_box(addr), black_box(&payload));
            addr = (addr + SPAN as u64) % SET;
        })
    });
    let mut buf = [0u8; SPAN];
    c.bench_function("ecc/stream_read_4k", |b| {
        b.iter(|| {
            ctl.read(black_box(addr), &mut buf).expect("clean memory");
            addr = (addr + SPAN as u64) % SET;
        })
    });
    // Unaligned small accesses: the partial-group merge path.
    c.bench_function("ecc/read_unaligned_37b", |b| {
        let mut small = [0u8; 37];
        b.iter(|| {
            ctl.read(black_box(addr + 3), &mut small).expect("clean");
            addr = (addr + 64) % (SET - 64);
        })
    });
    c.bench_function("ecc/write_unaligned_37b", |b| {
        let small = [0xC3u8; 37];
        b.iter(|| {
            ctl.write(black_box(addr + 3), black_box(&small));
            addr = (addr + 64) % (SET - 64);
        })
    });
}

fn bench_scrub(c: &mut Criterion) {
    let mut ctl = EccController::new(1 << 20);
    ctl.set_mode(EccMode::CorrectAndScrub);
    // Touch every frame so the scrub plan covers the whole working set.
    let payload = [1u8; 4096];
    for frame in 0..(1u64 << 20) / 4096 {
        ctl.write(frame * 4096, &payload);
    }
    c.bench_function("ecc/scrub_step_512", |b| {
        b.iter(|| black_box(ctl.scrub_step(black_box(512))))
    });
}

fn main() {
    let mut criterion = Criterion::default();
    bench_codec(&mut criterion);
    bench_streaming(&mut criterion);
    bench_scrub(&mut criterion);
    if let Ok(path) = std::env::var("ECC_BENCH_JSON") {
        criterion
            .write_json("safemem-ecc-fastpath", &path)
            .expect("write bench JSON");
        println!("wrote {path}");
    }
}
