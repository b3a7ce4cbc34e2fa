//! Criterion benches of the quality metrics. MS-SSIM runs twice per
//! scored frame in Table IV's study (foreground and background), so its
//! per-call time is what `exp_table4` and the `quality` workload of
//! `perfbench/` pay for beyond the simulated GPU.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mogpu_frame::{Frame, Resolution, SceneBuilder};
use mogpu_metrics::{mask_confusion, ms_ssim, mse, ssim};

fn pair(res: Resolution) -> (Frame<u8>, Frame<u8>) {
    let scene = SceneBuilder::new(res).seed(9).walkers(2).build();
    let (a, _) = scene.render(0);
    let (b, _) = scene.render(1);
    (a, b)
}

fn bench_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics");
    for res in [Resolution::QQVGA, Resolution::QVGA] {
        let (a, b) = pair(res);
        group.throughput(Throughput::Elements(res.pixels() as u64));
        group.bench_with_input(BenchmarkId::new("mse", res.to_string()), &res, |bch, _| {
            bch.iter(|| mse(&a, &b));
        });
        group.bench_with_input(BenchmarkId::new("ssim", res.to_string()), &res, |bch, _| {
            bch.iter(|| ssim(&a, &b));
        });
        group.bench_with_input(
            BenchmarkId::new("ms_ssim", res.to_string()),
            &res,
            |bch, _| {
                bch.iter(|| ms_ssim(&a, &b));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("mask_confusion", res.to_string()),
            &res,
            |bch, _| {
                bch.iter(|| mask_confusion(&a, &b));
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = metrics;
    config = Criterion::default().sample_size(10);
    targets = bench_metrics
}
criterion_main!(metrics);
