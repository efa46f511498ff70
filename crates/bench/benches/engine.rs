//! Criterion bench for the machine's executor:
//! `executor/persistent_pool` vs `executor/spawn_per_run` — repeated
//! small batches on the reusable rank-pinned worker pool vs paying an OS
//! thread spawn per processor per batch, which is what every
//! `Machine::run` used to cost.
//!
//! (Fused vs per-mode dispatch is `repro e1`, which prints run and round
//! counts and asserts equal answers; both sides are the same SPMD
//! program, submitted once or three times.)

use criterion::{criterion_group, criterion_main, Criterion};

use ddrs_cgm::Machine;

/// The old `Machine::run` cost per batch: spawn `p` scoped threads, run a
/// trivial per-rank program, join. Used as the baseline the persistent
/// pool is measured against.
fn spawn_per_run(p: usize) -> u64 {
    let barrier = std::sync::Barrier::new(p);
    let total = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for rank in 0..p {
            let barrier = &barrier;
            let total = &total;
            s.spawn(move || {
                barrier.wait();
                total.fetch_add(rank as u64, std::sync::atomic::Ordering::Relaxed);
                barrier.wait();
            });
        }
    });
    total.into_inner()
}

fn bench_executor(c: &mut Criterion) {
    let p = 8;
    let machine = Machine::new(p).unwrap();
    let mut g = c.benchmark_group("executor");
    g.sample_size(20);
    // Repeated small batches: the shape that exposed the thread-spawn tax.
    g.bench_function("persistent_pool", |b| {
        b.iter(|| {
            let out = machine.run(|ctx| {
                ctx.barrier();
                let s = ctx.rank() as u64;
                ctx.barrier();
                s
            });
            out.iter().sum::<u64>()
        });
    });
    g.bench_function("spawn_per_run", |b| {
        b.iter(|| spawn_per_run(p));
    });
    g.finish();
}

criterion_group!(benches, bench_executor);
criterion_main!(benches);
