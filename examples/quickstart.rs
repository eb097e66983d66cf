//! Quickstart: the paper's Figure 1 pipeline through the release API.
//!
//! A hospital wants to share patient data for clustering without revealing
//! attribute values. Steps: normalize → rotate attribute pairs under
//! security thresholds → release. Any distance-based clustering algorithm
//! then finds the *same* clusters on the release as on the original.
//!
//! The blessed entry point is the typed-state `Release` builder from
//! `rbt::prelude` — pick a method from the registry, set the privacy knob,
//! fit. (`Pipeline`/`ReleaseSession` remain available underneath; the
//! builder wraps them bit-identically.)
//!
//! Run: `cargo run --release --example quickstart`

use rand::SeedableRng;
use rbt::cluster::{KMeans, KMeansInit};
use rbt::core::isometry::dissimilarity_drift;
use rbt::prelude::*;

fn main() {
    // The paper's running example: 5 cardiac-arrhythmia records (Table 1).
    let patients = rbt::data::datasets::arrhythmia_sample();
    println!("Raw data (confidential):\n{patients}");

    // Release via RBT: every attribute pair must be distorted with
    // Var(A - A') >= 0.3 — the owner's privacy knob. The RNG seed is part
    // of the owner's secret state.
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    let fitted = Release::of(&patients)
        .with_method(Method::Rbt)
        .with_thresholds(PairwiseSecurityThreshold::uniform(0.3).unwrap())
        .fit(&mut rng)
        .expect("0.3 is feasible for this data");
    println!(
        "Released data (IDs suppressed, values rotated):\n{}",
        fitted.released
    );
    println!("Method {:?}: {}", fitted.method_name(), fitted.properties());

    // The owner keeps the fitted state; it transforms tomorrow's batch
    // under the same secrets and can invert any release.
    let tomorrow = fitted
        .transform_batch(&patients)
        .expect("same column layout")
        .released;
    let recovered = fitted.invert_batch(&tomorrow).expect("rbt is invertible");
    assert!(recovered.matrix().approx_eq(patients.matrix(), 1e-8));

    // The miner clusters the released data; the owner can check the result
    // is exactly what clustering the original would give (Corollary 1).
    let normalized = Normalization::zscore_paper()
        .fit_transform(patients.matrix())
        .unwrap()
        .1;
    let k = 2;
    let km = KMeans::new(k).unwrap().with_init(KMeansInit::FirstK);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let on_release = km.fit(fitted.released.matrix(), &mut rng).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let on_original = km.fit(&normalized, &mut rng).unwrap();

    println!("clusters on the release:  {:?}", on_release.labels);
    println!("clusters on the original: {:?}", on_original.labels);
    assert_eq!(on_release.labels, on_original.labels, "Corollary 1");

    // Why it works: the transformation is an isometry (Theorem 2).
    let drift = dissimilarity_drift(&normalized, fitted.released.matrix());
    println!("max distance drift: {drift:.2e} (zero up to float rounding)");

    // The same boundary serves every registered method — swap the name,
    // keep the code. Baselines trade the isometry away:
    let noisy = Release::of(&patients)
        .with_method(Method::Noise)
        .fit(&mut rand::rngs::StdRng::seed_from_u64(1))
        .unwrap();
    println!(
        "baseline {:?}: {} (clusters may differ!)",
        noisy.method_name(),
        noisy.properties()
    );
}
