#![allow(clippy::needless_range_loop)]
//! GLM fitting benchmarks: the paper-sized NB2 regression (148 weeks × 19
//! columns) through the warm-started and cold-started profile paths, the
//! fused vs separate normal-equation kernels, the allocation-free
//! workspace re-fit vs the allocating entry point, the Poisson baseline,
//! and OLS.

use booters_glm::irls::{fit_irls, IrlsOptions};
use booters_glm::negbin::{fit_negbin, NegBinOptions};
use booters_glm::ols::fit_ols;
use booters_glm::poisson::fit_poisson;
use booters_glm::workspace::{fit_irls_into, IrlsWorkspace, WarmStart};
use booters_glm::{LogLink, NegBin2};
use booters_linalg::Matrix;
use booters_stats::dist::NegativeBinomial;
use booters_timeseries::design::{its_design, DesignConfig};
use booters_timeseries::{Date, InterventionWindow, WeeklySeries};
use booters_testkit::bench::Criterion;
use booters_testkit::{bench_group, bench_main};
use booters_testkit::rngs::StdRng;
use booters_testkit::SeedableRng;
use std::hint::black_box;

/// Paper-shaped problem: 148 weeks, 5 interventions + Easter + 11
/// seasonals + trend + constant = 19 columns.
fn paper_problem() -> (Matrix, Vec<f64>, Vec<String>) {
    let series = WeeklySeries::covering(Date::new(2016, 6, 6), Date::new(2019, 4, 1));
    let windows = vec![
        InterventionWindow::immediate("xmas", Date::new(2018, 12, 19), 10),
        InterventionWindow::delayed("webstresser", Date::new(2018, 4, 24), 2, 3),
        InterventionWindow::immediate("mirai", Date::new(2018, 10, 26), 8),
        InterventionWindow::immediate("hackforums", Date::new(2016, 10, 28), 13),
        InterventionWindow::immediate("vdos", Date::new(2017, 12, 19), 3),
    ];
    let design = its_design(&series, &windows, &DesignConfig::default());
    let mut rng = StdRng::seed_from_u64(7);
    let mut y = vec![0.0; series.len()];
    for i in 0..series.len() {
        let t = i as f64;
        let mu = (10.0 + 0.01 * t).exp();
        y[i] = NegativeBinomial::new(mu, 0.01).sample(&mut rng) as f64;
    }
    (design.x, y, design.names)
}

fn bench_negbin_fit(c: &mut Criterion) {
    let (x, y, names) = paper_problem();
    // Default options = warm-started profile continuation; same name as
    // the pre-workspace baseline so BENCH_glm.json records the speedup.
    c.bench_function("negbin_fit_paper_size", |b| {
        b.iter(|| {
            let fit = fit_negbin(
                black_box(&x),
                black_box(&y),
                &names,
                &NegBinOptions::default(),
            )
            .unwrap();
            black_box(fit.alpha)
        })
    });
    // Cold-started profile: every profile-score point refits from
    // scratch. The gap to the case above is what warm starting buys.
    c.bench_function("negbin_fit_paper_size_cold_start", |b| {
        let opts = NegBinOptions {
            warm_start: false,
            ..NegBinOptions::default()
        };
        b.iter(|| {
            let fit = fit_negbin(black_box(&x), black_box(&y), &names, &opts).unwrap();
            black_box(fit.alpha)
        })
    });
}

fn bench_irls_kernels(c: &mut Criterion) {
    // One IRLS inner step's linear algebra on the paper-shaped design:
    // separate allocating XᵀWX + XᵀWz vs the fused in-place kernel.
    let (x, y, _) = paper_problem();
    let n = x.rows();
    let p = x.cols();
    let w: Vec<f64> = (0..n).map(|i| 0.5 + (i % 7) as f64 * 0.3).collect();
    let z: Vec<f64> = y.iter().map(|v| (v + 0.5).ln()).collect();
    c.bench_function("irls_kernel_separate_alloc", |b| {
        b.iter(|| {
            let g = x.xtwx(black_box(&w)).unwrap();
            let v = x.xtwy(black_box(&w), black_box(&z)).unwrap();
            black_box((g[(0, 0)], v[0]))
        })
    });
    c.bench_function("irls_kernel_fused_into", |b| {
        let mut g = booters_linalg::Matrix::zeros(p, p);
        let mut v = vec![0.0; p];
        b.iter(|| {
            x.xtwx_xtwz_into(black_box(&w), black_box(&z), &mut g, &mut v)
                .unwrap();
            black_box((g[(0, 0)], v[0]))
        })
    });
}

fn bench_irls_workspace(c: &mut Criterion) {
    // A full NB2 IRLS fit at fixed α: the historic allocating entry point
    // vs a re-used workspace (zero allocations per fit after warm-up —
    // see crates/glm/tests/alloc_counter.rs).
    let (x, y, _) = paper_problem();
    let family = NegBin2::new(0.05);
    let opts = IrlsOptions::default();
    c.bench_function("irls_fit_allocating", |b| {
        b.iter(|| {
            let fit = fit_irls(black_box(&x), black_box(&y), &family, &LogLink, &opts).unwrap();
            black_box(fit.deviance)
        })
    });
    c.bench_function("irls_fit_workspace_reuse", |b| {
        let mut ws = IrlsWorkspace::new();
        fit_irls_into(&mut ws, &x, &y, None, &family, &LogLink, &opts, WarmStart::Cold).unwrap();
        b.iter(|| {
            fit_irls_into(
                &mut ws,
                black_box(&x),
                black_box(&y),
                None,
                &family,
                &LogLink,
                &opts,
                WarmStart::Cold,
            )
            .unwrap();
            black_box(ws.deviance())
        })
    });
}

fn bench_poisson_fit(c: &mut Criterion) {
    let (x, y, names) = paper_problem();
    c.bench_function("poisson_fit_paper_size", |b| {
        b.iter(|| {
            let fit = fit_poisson(
                black_box(&x),
                black_box(&y),
                &names,
                &IrlsOptions::default(),
                0.95,
            )
            .unwrap();
            black_box(fit.fit.deviance)
        })
    });
}

fn bench_ols_fit(c: &mut Criterion) {
    let (x, y, names) = paper_problem();
    c.bench_function("ols_fit_paper_size", |b| {
        b.iter(|| {
            let fit = fit_ols(black_box(&x), black_box(&y), &names, 0.95).unwrap();
            black_box(fit.r_squared)
        })
    });
}

bench_group!(
    benches,
    bench_negbin_fit,
    bench_irls_kernels,
    bench_irls_workspace,
    bench_poisson_fit,
    bench_ols_fit
);
bench_main!(benches);
