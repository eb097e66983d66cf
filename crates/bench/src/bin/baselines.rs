//! Experiment E-X1: the privacy/accuracy trade-off of the baseline
//! perturbation methods, versus RBT's "no trade-off" claim.
//!
//! For each method we release a perturbed version of a labelled mixture,
//! cluster it with k-means (same deterministic init), and report:
//!
//! * misclassification vs the clustering of the *unperturbed* data (the
//!   paper's §1 failure mode),
//! * F-measure vs ground truth,
//! * the mean `Sec = Var(X−X')/Var(X)` privacy level.
//!
//! Shape expected from the paper's argument: noise-family methods buy
//! privacy only at growing misclassification; RBT (and the other
//! isometries) sit at misclassification 0 with tunable Sec.
//!
//! Run: `cargo run -p rbt-bench --release --bin baselines`

use rand::rngs::StdRng;
use rand::SeedableRng;
use rbt_api::{Method, Release};
use rbt_bench::{format_table, workload, WorkloadSpec};
use rbt_cluster::metrics::{f_measure, misclassification_error};
use rbt_cluster::{KMeans, KMeansInit};
use rbt_core::security::security_level;
use rbt_core::{PairwiseSecurityThreshold, RbtConfig, RbtTransformer};
use rbt_data::Normalization;
use rbt_linalg::stats::VarianceMode;
use rbt_linalg::Matrix;
use rbt_transform::{
    AdditiveNoise, HybridPerturbation, Perturbation, RankSwap, ScalingPerturbation, SimpleRotation,
    TranslationPerturbation,
};

fn kmeans_labels(data: &Matrix, k: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(0);
    KMeans::new(k)
        .unwrap()
        .with_init(KMeansInit::FirstK)
        .fit(data, &mut rng)
        .unwrap()
        .labels
}

fn mean_sec(original: &Matrix, released: &Matrix) -> f64 {
    let n = original.cols();
    (0..n)
        .map(|j| {
            security_level(
                &original.column(j),
                &released.column(j),
                VarianceMode::Sample,
            )
            .unwrap_or(f64::NAN)
        })
        .sum::<f64>()
        / n as f64
}

fn main() {
    let k = 4;
    let w = workload(WorkloadSpec {
        rows: 1_200,
        cols: 6,
        k,
        seed: 101,
    });
    let (_, normalized) = Normalization::zscore_paper()
        .fit_transform(&w.matrix)
        .unwrap();
    let baseline_labels = kmeans_labels(&normalized, k);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut record = |name: String, released: Matrix| {
        let labels = kmeans_labels(&released, k);
        let mis = misclassification_error(&baseline_labels, &labels).unwrap();
        let f = f_measure(&w.labels, &labels).unwrap();
        let sec = mean_sec(&normalized, &released);
        rows.push(vec![
            name,
            format!("{mis:.4}"),
            format!("{f:.4}"),
            format!("{sec:.3}"),
        ]);
    };

    // RBT at several thresholds (privacy is tunable, accuracy is exact).
    for rho in [0.25, 0.5, 1.0] {
        let mut rng = StdRng::seed_from_u64(111);
        let out = RbtTransformer::new(RbtConfig::uniform(
            PairwiseSecurityThreshold::uniform(rho).unwrap(),
        ))
        .transform(&normalized, &mut rng)
        .unwrap();
        record(format!("RBT (rho={rho})"), out.transformed);
    }

    // Isometric baselines (accuracy preserved, but untunable/weak privacy).
    let mut rng = StdRng::seed_from_u64(123);
    record(
        "translation (mag=2)".into(),
        TranslationPerturbation::new(2.0)
            .perturb(&normalized, &mut rng)
            .unwrap(),
    );
    record(
        "simple-rotation (45°)".into(),
        SimpleRotation::new(45.0)
            .perturb(&normalized, &mut rng)
            .unwrap(),
    );

    // Distance-breaking baselines: sweep the privacy knob.
    record(
        "scaling [0.5, 2.0]".into(),
        ScalingPerturbation::new(0.5, 2.0)
            .unwrap()
            .perturb(&normalized, &mut rng)
            .unwrap(),
    );
    record(
        "hybrid".into(),
        HybridPerturbation::default()
            .perturb(&normalized, &mut rng)
            .unwrap(),
    );
    for level in [0.25, 0.5, 1.0, 2.0] {
        record(
            format!("additive-gaussian (s={level})"),
            AdditiveNoise::gaussian(level)
                .unwrap()
                .perturb(&normalized, &mut rng)
                .unwrap(),
        );
    }
    for window in [0.1, 0.3, 0.6] {
        record(
            format!("rank-swap (w={window})"),
            RankSwap::new(window)
                .unwrap()
                .perturb(&normalized, &mut rng)
                .unwrap(),
        );
    }

    // Every registered method once more through the unified release API,
    // selected by string — the harness no longer hand-wires each method.
    let api_data = rbt_data::Dataset::from_matrix(normalized.clone());
    for name in ["rbt", "hybrid-isometry", "noise", "swap", "geometric"] {
        let method = Method::from_name(name).expect("registry name");
        let mut rng = StdRng::seed_from_u64(777);
        let fitted = Release::of(&api_data)
            .with_method(method)
            .fit(&mut rng)
            .expect("defaults are feasible on this workload");
        record(format!("api:{name}"), fitted.released.matrix().clone());
    }

    println!("== E-X1: privacy vs clustering accuracy across methods ==\n");
    println!(
        "{}",
        format_table(
            &[
                "method",
                "misclassification vs D",
                "F-measure vs truth",
                "mean Sec"
            ],
            &rows
        )
    );
    println!(
        "Shape check (paper §1/§2): RBT rows show misclassification 0.0000 at \
         every threshold; the additive-noise rows show misclassification \
         growing with the noise level that buys Sec. That is the trade-off \
         RBT eliminates."
    );
}
