//! Criterion bench: cost of the three partitioning algorithms as the
//! process count grows (the paper's §4.3 claim that the CPM algorithm
//! is the fastest, the numerical the most expensive), from p = 4 up to
//! p = 10 000, where the numerical algorithm's O(p) Newton step and
//! the geometric algorithm's bisection must both stay tractable.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fupermod_core::model::{AkimaModel, ConstantModel, Model, PiecewiseModel};
use fupermod_core::partition::{
    ConstantPartitioner, GeometricPartitioner, NumericalPartitioner, Partitioner,
};
use fupermod_core::Point;

fn nonlinear_points(rank: usize) -> Vec<Point> {
    // Each process gets a distinct memory-cliff time function.
    let base = 1.0 + rank as f64 * 0.3;
    let cliff = 500.0 + (rank as f64 * 137.0) % 1500.0;
    [50u64, 200, 400, 800, 1600, 3200, 6400]
        .iter()
        .map(|&d| {
            let x = d as f64;
            let t = if x <= cliff {
                x / (100.0 * base)
            } else {
                cliff / (100.0 * base) + (x - cliff) / (20.0 * base)
            };
            Point::single(d, t)
        })
        .collect()
}

fn bench_partitioners(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition");
    for p in [4usize, 16, 64, 512, 1024, 10_000] {
        let mut cpms = Vec::new();
        let mut pwls = Vec::new();
        let mut akimas = Vec::new();
        for rank in 0..p {
            let pts = nonlinear_points(rank);
            let mut cpm = ConstantModel::new();
            cpm.update(pts[3]).unwrap();
            let mut pwl = PiecewiseModel::new();
            let mut ak = AkimaModel::new();
            for pt in &pts {
                pwl.update(*pt).unwrap();
                ak.update(*pt).unwrap();
            }
            cpms.push(cpm);
            pwls.push(pwl);
            akimas.push(ak);
        }
        let total = 4000 * p as u64;

        let cpm_refs: Vec<&dyn Model> = cpms.iter().map(|m| m as &dyn Model).collect();
        group.bench_with_input(BenchmarkId::new("constant", p), &p, |b, _| {
            b.iter(|| {
                ConstantPartitioner
                    .partition(black_box(total), &cpm_refs)
                    .unwrap()
            })
        });
        let pwl_refs: Vec<&dyn Model> = pwls.iter().map(|m| m as &dyn Model).collect();
        group.bench_with_input(BenchmarkId::new("geometric", p), &p, |b, _| {
            b.iter(|| {
                GeometricPartitioner::default()
                    .partition(black_box(total), &pwl_refs)
                    .unwrap()
            })
        });
        let akima_refs: Vec<&dyn Model> = akimas.iter().map(|m| m as &dyn Model).collect();
        group.bench_with_input(BenchmarkId::new("numerical", p), &p, |b, _| {
            b.iter(|| {
                NumericalPartitioner::default()
                    .partition(black_box(total), &akima_refs)
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_partitioners);
criterion_main!(benches);
