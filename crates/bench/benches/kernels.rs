//! Kernel micro-benchmarks: the pre-PR scalar hot paths against the
//! performance substrate (unrolled kernels, fused column sweeps, blocked
//! matmul, pooled parallelism), with a JSON trail.
//!
//! A custom harness (`harness = false` + plain `main`) with two jobs
//! beyond timing:
//!
//! 1. keep *replicas of the pre-optimisation scalar implementations* around
//!    so every speedup is measured against the real before-state, not a
//!    strawman, and
//! 2. emit `BENCH_kernels.json` at the workspace root so the perf
//!    trajectory of the repo is recorded, run over run.
//!
//! Run the full suite:   `cargo bench -p rbt-bench --bench kernels`
//! CI smoke (seconds):   `cargo bench -p rbt-bench --bench kernels -- --quick-smoke`

use rand::SeedableRng;
use rbt_api::methods::FittedHybridIsometry;
use rbt_api::{Method, Release};
use rbt_bench::{workload, WorkloadSpec};
use rbt_core::key::{KeyStep, RotationStep, TransformationKey};
use rbt_core::reflection::{IsometryKey, IsometryStep};
use rbt_core::{DriftBounds, ReleaseSession};
use rbt_data::{Dataset, FittedNormalizer, Normalization};
use rbt_linalg::dissimilarity::DissimilarityMatrix;
use rbt_linalg::distance::Metric;
use rbt_linalg::matrix::{apply_steps_in_rows, PairStep};
use rbt_linalg::pool::{self, even_chunks, Pool};
use rbt_linalg::rotation::{givens, Reflection2};
use rbt_linalg::{kernels, Matrix, Rotation2};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counting wrapper around the system allocator so the streaming section
/// can *pin* steady-state allocation behaviour: with reused output
/// buffers, per-batch allocation must stay negligible next to the batch
/// payload itself. Only the two counters are touched on the hot path.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Best (minimum) seconds per iteration for each of the competing
/// implementations, measured in **alternating rounds**: scalar, fast,
/// (parallel), scalar, fast, … The minimum filters scheduler and allocator
/// noise, and the alternation keeps a clock-frequency or steal-time drift
/// mid-run from biasing one side of the ratio — which it visibly does on
/// small shared VMs if each side is measured in one contiguous phase.
fn time_competitors(budget_s: f64, rounds: usize, fs: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    for f in fs.iter_mut() {
        f(); // warm-up
    }
    let mut best = vec![f64::INFINITY; fs.len()];
    let round_budget = budget_s / rounds as f64;
    for _ in 0..rounds {
        for (slot, f) in best.iter_mut().zip(fs.iter_mut()) {
            let round = Instant::now();
            loop {
                let t = Instant::now();
                f();
                *slot = slot.min(t.elapsed().as_secs_f64());
                if round.elapsed().as_secs_f64() >= round_budget {
                    break;
                }
            }
        }
    }
    best
}

struct Entry {
    name: &'static str,
    params: String,
    scalar_s: f64,
    fast_s: f64,
    parallel_s: Option<f64>,
}

impl Entry {
    fn speedup(&self) -> f64 {
        self.scalar_s / self.fast_s
    }
    fn speedup_parallel(&self) -> Option<f64> {
        self.parallel_s.map(|p| self.scalar_s / p)
    }
}

/// One point of the end-to-end streaming scaling record: sustained
/// rows/sec through fit → transform (→ invert) at row count `m`.
struct StreamEntry {
    m: usize,
    cols: usize,
    batch_rows: usize,
    fit_seconds: f64,
    baseline_rows_per_sec: f64,
    transform_rows_per_sec: f64,
    roundtrip_rows_per_sec: f64,
    allocs_per_batch: f64,
    alloc_bytes_per_batch: f64,
    memcpy_gbps: f64,
}

impl StreamEntry {
    fn speedup(&self) -> f64 {
        self.transform_rows_per_sec / self.baseline_rows_per_sec
    }
    /// Approximate memory traffic of the transform pass: copy-in (r+w),
    /// normalize in place (r+w), drift scan (r), fused sweep (r+w) — seven
    /// batch-sized streams per batch.
    fn transform_gbps(&self) -> f64 {
        self.transform_rows_per_sec * (self.cols * 8) as f64 * 7.0 / 1e9
    }
}

/// Sustained throughput: repeat `pass` (one sweep over all `total_rows`)
/// until the budget elapses, after one warm-up, and report rows/sec over
/// the whole timed span (throughput, unlike the min-latency
/// `time_competitors`, is what a streaming deployment experiences).
fn sustained_rows_per_sec(budget_s: f64, total_rows: usize, pass: &mut dyn FnMut()) -> f64 {
    pass(); // warm-up: fault in buffers, settle allocator reuse
    let t = Instant::now();
    let mut rows = 0usize;
    loop {
        pass();
        rows += total_rows;
        if t.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    rows as f64 / t.elapsed().as_secs_f64()
}

/// [`time_competitors`] for in-place passes: before each timed call, the
/// side's batch is restored from `input` outside the clock, so every call
/// starts from the same rows.
fn time_in_place(
    budget_s: f64,
    rounds: usize,
    input: &Matrix,
    sides: &mut [&mut dyn FnMut(&mut Dataset)],
) -> Vec<f64> {
    let mut batch = Dataset::from_matrix(input.clone());
    time_restored(budget_s, rounds, &mut batch, sides, |b| {
        b.matrix_mut()
            .as_mut_slice()
            .copy_from_slice(input.as_slice())
    })
}

/// [`time_competitors`] for passes over one state they change: before each
/// timed call, `restore` puts `state` back outside the clock.
fn time_restored<T>(
    budget_s: f64,
    rounds: usize,
    state: &mut T,
    sides: &mut [&mut dyn FnMut(&mut T)],
    restore: impl Fn(&mut T),
) -> Vec<f64> {
    let mut run = |side: &mut dyn FnMut(&mut T)| {
        restore(state);
        let t = Instant::now();
        side(state);
        t.elapsed().as_secs_f64()
    };
    for side in sides.iter_mut() {
        run(*side); // warm-up
    }
    let mut best = vec![f64::INFINITY; sides.len()];
    let round_budget = budget_s / rounds as f64;
    for _ in 0..rounds {
        for (slot, side) in best.iter_mut().zip(sides.iter_mut()) {
            let round = Instant::now();
            while round.elapsed().as_secs_f64() < round_budget {
                *slot = slot.min(run(*side));
            }
        }
    }
    best
}

// ---- pre-PR scalar replicas ------------------------------------------------

/// `DissimilarityMatrix::from_matrix` as it was before the kernel rewrite:
/// one scalar `Metric::distance` call per pair.
fn scalar_dissimilarity(data: &Matrix, metric: Metric) -> Vec<f64> {
    let n = data.rows();
    let mut condensed = Vec::with_capacity(n.saturating_sub(1) * n / 2);
    for i in 0..n {
        let ri = data.row(i);
        for j in (i + 1)..n {
            condensed.push(metric.distance(ri, data.row(j)));
        }
    }
    condensed
}

/// `TransformationKey::apply` as it was before the fused column sweep:
/// extract both columns, rotate the buffers, write both columns back.
fn scalar_apply(key: &TransformationKey, m: &Matrix) -> Matrix {
    let mut out = m.clone();
    let mut xs = Vec::with_capacity(out.rows());
    let mut ys = Vec::with_capacity(out.rows());
    for step in key.steps() {
        out.column_into(step.i, &mut xs);
        out.column_into(step.j, &mut ys);
        Rotation2::from_degrees(step.theta_degrees)
            .apply_columns(&mut xs, &mut ys)
            .unwrap();
        out.set_column(step.i, &xs).unwrap();
        out.set_column(step.j, &ys).unwrap();
    }
    out
}

/// `TransformationKey::composite_matrix` as it was before the row-pair
/// sweep: one full Givens matmul per step.
fn scalar_composite(key: &TransformationKey) -> Matrix {
    let n = key.n_attributes();
    let mut acc = Matrix::identity(n);
    for step in key.steps() {
        let g = givens(
            n,
            step.i,
            step.j,
            &Rotation2::from_degrees(step.theta_degrees),
        )
        .unwrap();
        acc = g.matmul_naive(&acc).unwrap();
    }
    acc
}

/// The k-means assignment loop as it was before the kernel substrate: one
/// scalar `Metric::distance` call per (point, centroid) pair.
fn scalar_assign(data: &Matrix, centroids: &Matrix, labels: &mut [usize]) {
    for (i, point) in data.row_iter().enumerate() {
        let mut best = (0usize, f64::INFINITY);
        for (j, c) in centroids.row_iter().enumerate() {
            let d2 = Metric::SquaredEuclidean.distance(point, c);
            if d2 < best.1 {
                best = (j, d2);
            }
        }
        labels[i] = best.0;
    }
}

/// One column's parameters as the normalizer held them before its row
/// kernels: one `match` on the kind per element.
#[derive(Clone, Copy)]
enum ScalarColumn {
    MinMax {
        min: f64,
        max: f64,
        new_min: f64,
        new_max: f64,
    },
    ZScore {
        mean: f64,
        std: f64,
    },
    Decimal {
        factor: f64,
    },
}

impl ScalarColumn {
    fn apply(&self, v: f64) -> f64 {
        match *self {
            ScalarColumn::MinMax {
                min,
                max,
                new_min,
                new_max,
            } => {
                if max == min {
                    (new_min + new_max) / 2.0
                } else {
                    (v - min) / (max - min) * (new_max - new_min) + new_min
                }
            }
            ScalarColumn::ZScore { mean, std } => {
                if std == 0.0 {
                    0.0
                } else {
                    (v - mean) / std
                }
            }
            ScalarColumn::Decimal { factor } => v / factor,
        }
    }

    fn invert(&self, v: f64) -> f64 {
        match *self {
            ScalarColumn::MinMax {
                min,
                max,
                new_min,
                new_max,
            } => {
                if max == min {
                    min
                } else {
                    (v - new_min) / (new_max - new_min) * (max - min) + min
                }
            }
            ScalarColumn::ZScore { mean, std } => v * std + mean,
            ScalarColumn::Decimal { factor } => v * factor,
        }
    }
}

/// A fitted normalizer's per-column parameters, read back from its text
/// form (17 significant digits, so every bit survives).
fn scalar_columns(normalizer: &FittedNormalizer) -> Vec<ScalarColumn> {
    normalizer
        .to_text()
        .lines()
        .skip(1)
        .map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            let x = |k: usize| f[k].parse::<f64>().expect("to_text writes floats");
            match f[0] {
                "minmax" => ScalarColumn::MinMax {
                    min: x(1),
                    max: x(2),
                    new_min: x(3),
                    new_max: x(4),
                },
                "zscore" => ScalarColumn::ZScore {
                    mean: x(1),
                    std: x(2),
                },
                _ => ScalarColumn::Decimal { factor: x(1) },
            }
        })
        .collect()
}

/// `FittedNormalizer::transform` as it was before the row kernels: per
/// element, a `match` on its column's parameters.
fn scalar_normalize(rows: &mut [f64], columns: &[ScalarColumn]) {
    for row in rows.chunks_exact_mut(columns.len()) {
        for (v, p) in row.iter_mut().zip(columns) {
            *v = p.apply(*v);
        }
    }
}

/// `FittedNormalizer::inverse_transform` as it was before the row
/// kernels.
fn scalar_denormalize(rows: &mut [f64], columns: &[ScalarColumn]) {
    for row in rows.chunks_exact_mut(columns.len()) {
        for (v, p) in row.iter_mut().zip(columns) {
            *v = p.invert(*v);
        }
    }
}

/// Rows per chunk of the replicated pre-row-kernel release passes.
const SESSION_CHUNK_ROWS: usize = 4096;

/// `ReleaseSession`'s in-place forward as it was before the row kernels,
/// per 4096-row chunk: per-element normalize, a short-circuit drift scan,
/// then the same fused sweep. Returns the drift count.
fn scalar_release(
    rows: &mut [f64],
    columns: &[ScalarColumn],
    bounds: &DriftBounds,
    steps: &[PairStep],
) -> usize {
    let n_cols = columns.len();
    let mut drifted = 0;
    for chunk in rows.chunks_mut(SESSION_CHUNK_ROWS * n_cols) {
        scalar_normalize(chunk, columns);
        drifted += chunk
            .chunks_exact(n_cols)
            .filter(|row| !bounds.row_in_range(row))
            .count();
        apply_steps_in_rows(chunk, n_cols, steps);
    }
    drifted
}

/// `ReleaseSession`'s in-place inverse as it was before the row kernels,
/// per chunk: the same fused inverse sweep, then per-element denormalize.
fn scalar_recover(rows: &mut [f64], columns: &[ScalarColumn], steps: &[PairStep]) {
    let n_cols = columns.len();
    for chunk in rows.chunks_mut(SESSION_CHUNK_ROWS * n_cols) {
        apply_steps_in_rows(chunk, n_cols, steps);
        scalar_denormalize(chunk, columns);
    }
}

/// `f64` values the served path staged a frame's cells through before the
/// fused kernel: 32 KiB.
const SERVED_SCRATCH: usize = 4096;

/// The served release as it was before the fused kernel: a frame's cells
/// converted 32 KiB of whole rows at a time into an `f64` scratch, passed
/// to `pass` (the session's row kernels, which then normalized in one pass
/// and swept in a second), and written back. Returns the sum of what
/// `pass` returned.
fn scratch_release(
    cells: &mut [[u8; 8]],
    cols: usize,
    mut pass: impl FnMut(&mut [f64]) -> usize,
) -> usize {
    let mut scratch = [0.0; SERVED_SCRATCH];
    let mut total = 0;
    for slice in cells.chunks_mut(SERVED_SCRATCH / cols * cols) {
        let values = &mut scratch[..slice.len()];
        for (v, c) in values.iter_mut().zip(&*slice) {
            *v = f64::from_le_bytes(*c);
        }
        total += pass(values);
        for (v, c) in values.iter().zip(slice) {
            *c = v.to_le_bytes();
        }
    }
    total
}

/// One whole-slice pass per rotation, as the release applied a key before
/// the fused row sweep: for every row,
/// `(xᵢ, xⱼ) ← (xᵢ·c + xⱼ·s, −xᵢ·s + xⱼ·c)`.
fn rotate_pair_in_rows(rows: &mut [f64], n_cols: usize, i: usize, j: usize, c: f64, s: f64) {
    for row in rows.chunks_exact_mut(n_cols) {
        let (x, y) = (row[i], row[j]);
        row[i] = x * c + y * s;
        row[j] = -x * s + y * c;
    }
}

/// Hybrid isometry's release as it was before the row sweep: normalize a
/// copy per element, then copy each step's two columns out, rotate or
/// reflect them, and write them back.
fn scalar_isometry_release(batch: &Matrix, columns: &[ScalarColumn], key: &IsometryKey) -> Matrix {
    let mut out = batch.clone();
    scalar_normalize(out.as_mut_slice(), columns);
    let mut xs = Vec::with_capacity(out.rows());
    let mut ys = Vec::with_capacity(out.rows());
    for step in key.steps() {
        let (i, j) = step.pair();
        out.column_into(i, &mut xs);
        out.column_into(j, &mut ys);
        match *step {
            IsometryStep::Rotate { theta_degrees, .. } => {
                Rotation2::from_degrees(theta_degrees).apply_columns(&mut xs, &mut ys)
            }
            IsometryStep::Reflect { phi_degrees, .. } => {
                Reflection2::from_degrees(phi_degrees).apply_columns(&mut xs, &mut ys)
            }
        }
        .unwrap();
        out.set_column(i, &xs).unwrap();
        out.set_column(j, &ys).unwrap();
    }
    out
}

/// `rows`×`cols` values drawn uniformly from `[−spread/2, spread/2)`.
fn uniform_matrix(seed: u64, rows: usize, cols: usize, spread: f64) -> Matrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let data = (0..rows * cols)
        .map(|_| rng.random::<f64>() * spread - spread / 2.0)
        .collect();
    Matrix::from_vec(rows, cols, data).unwrap()
}

/// Bit patterns of a matrix, for exact comparisons.
fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The host's CPU model, as `/proc/cpuinfo` names it.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

// ---- harness ---------------------------------------------------------------

/// A synthetic `p`-step key over `n` attributes (pairs wrap around so every
/// attribute is touched at least twice, like sequential pairing on real
/// runs).
fn synthetic_key(n: usize, p: usize) -> TransformationKey {
    let steps: Vec<RotationStep> = (0..p)
        .map(|t| {
            let i = (2 * t) % n;
            let j = (2 * t + 1) % n;
            let (i, j) = if i == j { (i, (j + 1) % n) } else { (i, j) };
            RotationStep {
                i,
                j,
                theta_degrees: 17.0 + 7.3 * t as f64,
                achieved_var1: 0.0,
                achieved_var2: 0.0,
            }
        })
        .collect();
    TransformationKey::new(steps, n).unwrap()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick-smoke");
    let budget = if quick { 0.6 } else { 3.0 };
    let rounds = if quick { 3 } else { 6 };
    let threads = pool::default_threads();
    let mut entries: Vec<Entry> = Vec::new();

    // 1. Dissimilarity construction, m >= 2000 (the Eq. 5/6 hot path).
    {
        let (m, cols) = (2000usize, 64usize);
        let w = workload(WorkloadSpec {
            rows: m,
            cols,
            k: 4,
            seed: 977,
        });
        let best = time_competitors(
            budget,
            rounds,
            &mut [
                &mut || {
                    black_box(scalar_dissimilarity(&w.matrix, Metric::Euclidean));
                },
                &mut || {
                    black_box(DissimilarityMatrix::from_matrix(
                        &w.matrix,
                        Metric::Euclidean,
                    ));
                },
                &mut || {
                    black_box(DissimilarityMatrix::from_matrix_parallel(
                        &w.matrix,
                        Metric::Euclidean,
                        threads,
                    ));
                },
            ],
        );
        let (scalar_s, fast_s, parallel_s) = (best[0], best[1], best[2]);
        // Sanity: the kernel path reproduces the scalar distances.
        let reference = scalar_dissimilarity(&w.matrix, Metric::Euclidean);
        let fast = DissimilarityMatrix::from_matrix(&w.matrix, Metric::Euclidean);
        let max_err = reference
            .iter()
            .zip(fast.condensed())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 1e-9, "kernel drifted from scalar: {max_err}");
        entries.push(Entry {
            name: "dissimilarity_build",
            params: format!("{{\"m\": {m}, \"cols\": {cols}}}"),
            scalar_s,
            fast_s,
            parallel_s: Some(parallel_s),
        });
    }

    // 2. Composite-key application, n >= 32 attributes (Eq. 1 lifted to n-D).
    {
        let (rows, n, p) = (4096usize, 32usize, 32usize);
        let w = workload(WorkloadSpec {
            rows,
            cols: n,
            k: 4,
            seed: 978,
        });
        let key = synthetic_key(n, p);
        let best = time_competitors(
            budget,
            rounds,
            &mut [
                &mut || {
                    black_box(scalar_apply(&key, &w.matrix));
                },
                &mut || {
                    black_box(key.apply(&w.matrix).unwrap());
                },
            ],
        );
        let (scalar_s, fast_s) = (best[0], best[1]);
        let reference = scalar_apply(&key, &w.matrix);
        let fast = key.apply(&w.matrix).unwrap();
        assert!(
            reference.approx_eq(&fast, 0.0),
            "fused apply must be bit-identical to the scalar path"
        );
        entries.push(Entry {
            name: "key_apply",
            params: format!("{{\"rows\": {rows}, \"n_attributes\": {n}, \"steps\": {p}}}"),
            scalar_s,
            fast_s,
            parallel_s: None,
        });
    }

    // 3. Composite-matrix accumulation (Givens product).
    {
        let (n, p) = (64usize, 64usize);
        let key = synthetic_key(n, p);
        let best = time_competitors(
            budget,
            rounds,
            &mut [
                &mut || {
                    black_box(scalar_composite(&key));
                },
                &mut || {
                    black_box(key.composite_matrix().unwrap());
                },
            ],
        );
        let (scalar_s, fast_s) = (best[0], best[1]);
        assert!(scalar_composite(&key).approx_eq(&key.composite_matrix().unwrap(), 1e-12));
        entries.push(Entry {
            name: "composite_matrix",
            params: format!("{{\"n_attributes\": {n}, \"steps\": {p}}}"),
            scalar_s,
            fast_s,
            parallel_s: None,
        });
    }

    // 4. Blocked vs naive matmul.
    {
        let n = if quick { 768usize } else { 1024 };
        let a =
            Matrix::from_vec(n, n, (0..n * n).map(|t| (t as f64 * 0.61).sin()).collect()).unwrap();
        let b =
            Matrix::from_vec(n, n, (0..n * n).map(|t| (t as f64 * 0.37).cos()).collect()).unwrap();
        let best = time_competitors(
            budget,
            rounds,
            &mut [
                &mut || {
                    black_box(a.matmul_naive(&b).unwrap());
                },
                &mut || {
                    black_box(a.matmul(&b).unwrap());
                },
            ],
        );
        let (scalar_s, fast_s) = (best[0], best[1]);
        assert!(a
            .matmul(&b)
            .unwrap()
            .approx_eq(&a.matmul_naive(&b).unwrap(), 0.0));
        entries.push(Entry {
            name: "matmul",
            params: format!("{{\"n\": {n}}}"),
            scalar_s,
            fast_s,
            parallel_s: None,
        });
    }

    // 5. K-means assignment sweep (the Corollary 1 workhorse).
    {
        let (m, cols, k) = (2000usize, 16usize, 16usize);
        let w = workload(WorkloadSpec {
            rows: m,
            cols,
            k,
            seed: 979,
        });
        let centroids = w.matrix.select_rows(&(0..k).collect::<Vec<_>>()).unwrap();
        let mut labels = vec![0usize; m];
        // The production path, `KMeans::fit`'s: the row-blocked kernel over
        // a column-major copy of the data. `fit` makes that copy once and
        // reuses it for every pass, so it is made outside the timed loop.
        const BLOCK: usize = kernels::NEAREST_BLOCK_ROWS;
        assert!(
            m.is_multiple_of(BLOCK),
            "whole blocks only: no per-row tail to time"
        );
        let columns = w.matrix.transpose();
        let mut fast_out = vec![(0usize, 0.0f64); m];
        let mut par_out = vec![(0usize, 0.0f64); m];
        let pool = Pool::new(threads);
        let bounds: Vec<usize> = even_chunks(m / BLOCK, threads)
            .into_iter()
            .map(|b| b * BLOCK)
            .collect();
        let best = time_competitors(
            budget,
            rounds,
            &mut [
                &mut || {
                    scalar_assign(&w.matrix, &centroids, &mut labels);
                    black_box(&labels);
                },
                &mut || {
                    kernels::nearest_rows_squared_blocked(&columns, 0, &centroids, &mut fast_out);
                    black_box(&fast_out);
                },
                &mut || {
                    pool.for_each_chunk_mut(&mut par_out, &bounds, |_, start, chunk| {
                        kernels::nearest_rows_squared_blocked(&columns, start, &centroids, chunk);
                    });
                    black_box(&par_out);
                },
            ],
        );
        let (scalar_s, fast_s, parallel_s) = (best[0], best[1], best[2]);
        scalar_assign(&w.matrix, &centroids, &mut labels);
        let labels_of = |out: &[(usize, f64)]| out.iter().map(|a| a.0).collect::<Vec<_>>();
        assert_eq!(
            labels,
            labels_of(&fast_out),
            "blocked assignment changed labels"
        );
        assert_eq!(
            labels,
            labels_of(&par_out),
            "parallel assignment changed labels"
        );
        entries.push(Entry {
            name: "kmeans_assign",
            params: format!("{{\"m\": {m}, \"cols\": {cols}, \"k\": {k}}}"),
            scalar_s,
            fast_s,
            parallel_s: Some(parallel_s),
        });
    }

    // 6. Object-safe release dispatch: the same fitted RBT state driven
    //    directly as a concrete `ReleaseSession` vs through the release
    //    API's `Box<dyn FittedTransform>`. The whole point of the trait
    //    layer is that this vtable hop costs nothing against the O(rows ×
    //    (cols + steps)) batch work behind it.
    {
        let (rows, n) = (4096usize, 32usize);
        let w = workload(WorkloadSpec {
            rows,
            cols: n,
            k: 4,
            seed: 980,
        });
        let dataset = rbt_data::Dataset::from_matrix(w.matrix.clone());
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let via_trait = Release::of(&dataset)
            .with_method(Method::Rbt)
            .fit(&mut rng)
            .expect("default thresholds are feasible on this workload");
        let direct = via_trait.session().expect("rbt exposes its session");
        let best = time_competitors(
            budget,
            rounds,
            &mut [
                &mut || {
                    black_box(direct.transform_batch(&dataset).unwrap());
                },
                &mut || {
                    black_box(via_trait.transform_batch(&dataset).unwrap());
                },
            ],
        );
        let (scalar_s, fast_s) = (best[0], best[1]);
        // Sanity: both paths release identical bytes.
        let a = direct.transform_batch(&dataset).unwrap();
        let b = via_trait.transform_batch(&dataset).unwrap();
        assert!(
            a.released.matrix().approx_eq(b.released.matrix(), 0.0),
            "trait dispatch changed the release"
        );
        entries.push(Entry {
            name: "release_dispatch",
            params: format!("{{\"rows\": {rows}, \"n_attributes\": {n}}}"),
            scalar_s,
            fast_s,
            parallel_s: None,
        });
    }

    // 7. The release kernel at the serving benchmark's tenant shape: a
    //    z-score session fitted on 256×16 with drift bounds, releasing and
    //    recovering an 8192×16 batch drawn wider than the fitting data, in
    //    place on the calling thread. The scalar sides replicate the
    //    pre-kernel passes; hybrid isometry's in-place release is timed at
    //    the same shape. `release_served` is what the daemon's worker runs
    //    per request: the same batch as a frame's little-endian cells at
    //    an unaligned offset, released in one pass against the 32 KiB
    //    scratch path it replaced (copy into `f64`s, normalize, sweep,
    //    copy back).
    {
        const ROWS: usize = 8192;
        const COLS: usize = 16;
        let fit = Dataset::from_matrix(uniform_matrix(982, 256, COLS, 100.0));
        let batch = uniform_matrix(983, ROWS, COLS, 130.0);
        let rbt = Release::of(&fit)
            .with_method(Method::Rbt)
            .fit(&mut rand::rngs::StdRng::seed_from_u64(7))
            .expect("default thresholds are feasible on this workload");
        let session = rbt.session().expect("rbt exposes its session");
        let bounds = session
            .drift_bounds()
            .expect("fitted sessions carry bounds");
        let columns = scalar_columns(session.normalizer());
        let (fwd, inv) = (session.key().forward_sweep(), session.key().inverse_sweep());

        let mut fast = batch.clone();
        let drifted = session.forward_rows(fast.as_mut_slice()).unwrap();
        let mut scalar = batch.clone();
        let scalar_drifted = scalar_release(scalar.as_mut_slice(), &columns, bounds, &fwd);
        assert_eq!(drifted, scalar_drifted, "kernel changed the drift count");
        assert_eq!(
            bits(&fast),
            bits(&scalar),
            "kernel release must be bit-identical to the scalar path"
        );
        let released = scalar;
        let mut recovered = released.clone();
        session.inverse_rows(recovered.as_mut_slice()).unwrap();
        let mut scalar = released.clone();
        scalar_recover(scalar.as_mut_slice(), &columns, &inv);
        assert_eq!(
            bits(&recovered),
            bits(&scalar),
            "kernel inverse must be bit-identical to the scalar path"
        );

        let forward = time_in_place(
            budget,
            rounds,
            &batch,
            &mut [
                &mut |b: &mut Dataset| {
                    let rows = b.matrix_mut().as_mut_slice();
                    black_box(scalar_release(rows, &columns, bounds, &fwd));
                },
                &mut |b: &mut Dataset| {
                    black_box(session.forward_rows(b.matrix_mut().as_mut_slice()).unwrap());
                },
            ],
        );
        let inverse = time_in_place(
            budget,
            rounds,
            &released,
            &mut [
                &mut |b: &mut Dataset| {
                    scalar_recover(b.matrix_mut().as_mut_slice(), &columns, &inv)
                },
                &mut |b: &mut Dataset| session.inverse_rows(b.matrix_mut().as_mut_slice()).unwrap(),
            ],
        );

        let hybrid = Release::of(&fit)
            .with_method(Method::HybridIsometry)
            .fit(&mut rand::rngs::StdRng::seed_from_u64(7))
            .expect("default thresholds are feasible on this workload");
        let state = hybrid
            .fitted
            .as_any()
            .downcast_ref::<FittedHybridIsometry>()
            .expect("a hybrid isometry fit");
        let hybrid_columns = scalar_columns(state.normalizer());
        let kernels = hybrid.fitted.row_kernels().expect("hybrid has row kernels");
        let mut fast = batch.clone();
        kernels.forward_rows(fast.as_mut_slice()).unwrap();
        assert_eq!(
            bits(&fast),
            bits(&scalar_isometry_release(
                &batch,
                &hybrid_columns,
                state.key()
            )),
            "hybrid sweep must be bit-identical to the column path"
        );
        let hybrid_forward = time_in_place(
            budget,
            rounds,
            &batch,
            &mut [
                &mut |b: &mut Dataset| {
                    let released =
                        scalar_isometry_release(b.matrix(), &hybrid_columns, state.key());
                    *b.matrix_mut() = released;
                },
                &mut |b: &mut Dataset| {
                    black_box(kernels.forward_rows(b.matrix_mut().as_mut_slice()).unwrap());
                },
            ],
        );
        // The served path: the same session over a frame's little-endian
        // cells at an unaligned offset, fused in one pass against the
        // scratch path it replaced.
        const OFFSET: usize = 3;
        let frame_of = |m: &Matrix| {
            let mut bytes = vec![0u8; OFFSET];
            m.as_slice()
                .iter()
                .for_each(|v| bytes.extend_from_slice(&v.to_le_bytes()));
            bytes
        };
        fn cells(bytes: &mut [u8]) -> &mut [[u8; 8]] {
            bytes[OFFSET..].as_chunks_mut().0
        }
        let normalizer = session.normalizer();
        let scratch_forward = |rows: &mut [f64]| {
            let drifted = normalizer
                .transform_and_sweep(rows, Some((bounds.mins(), bounds.maxs())), &[])
                .unwrap();
            apply_steps_in_rows(rows, COLS, &fwd);
            drifted
        };
        let scratch_inverse = |rows: &mut [f64]| {
            apply_steps_in_rows(rows, COLS, &inv);
            normalizer.sweep_and_invert(rows, &[]).unwrap();
            0
        };
        let (input, released_frame) = (frame_of(&batch), frame_of(&released));
        let (mut fast, mut scalar) = (input.clone(), input.clone());
        let fast_drift = session.forward_rows(cells(&mut fast)).unwrap();
        let scalar_drift = scratch_release(cells(&mut scalar), COLS, scratch_forward);
        assert_eq!(
            fast_drift, scalar_drift,
            "served kernel changed the drift count"
        );
        assert_eq!(
            fast, scalar,
            "served release must be bit-identical to the scratch path"
        );
        assert_eq!(
            fast, released_frame,
            "served release must be the session's release"
        );
        let (mut fast, mut scalar) = (released_frame.clone(), released_frame.clone());
        session.inverse_rows(cells(&mut fast)).unwrap();
        scratch_release(cells(&mut scalar), COLS, scratch_inverse);
        assert_eq!(
            fast, scalar,
            "served inverse must be bit-identical to the scratch path"
        );
        let mut frame = input.clone();
        let served_forward = time_restored(
            budget,
            rounds,
            &mut frame,
            &mut [
                &mut |f: &mut Vec<u8>| {
                    black_box(scratch_release(cells(f), COLS, scratch_forward));
                },
                &mut |f: &mut Vec<u8>| {
                    black_box(session.forward_rows(cells(f)).unwrap());
                },
            ],
            |f| f.copy_from_slice(&input),
        );
        let served_inverse = time_restored(
            budget,
            rounds,
            &mut frame,
            &mut [
                &mut |f: &mut Vec<u8>| {
                    scratch_release(cells(f), COLS, scratch_inverse);
                },
                &mut |f: &mut Vec<u8>| session.inverse_rows(cells(f)).unwrap(),
            ],
            |f| f.copy_from_slice(&released_frame),
        );

        let shape = format!("\"rows\": {ROWS}, \"cols\": {COLS}, \"fit_rows\": 256");
        let rbt = format!("\"method\": \"rbt\", \"drift_rows\": {drifted}");
        let served = format!("{rbt}, \"cells\": \"frame bytes at offset {OFFSET}\"");
        for (name, method, direction, best) in [
            ("release_kernel", &rbt[..], "forward", &forward),
            ("release_kernel_inverse", &rbt[..], "inverse", &inverse),
            (
                "release_kernel_hybrid",
                "\"method\": \"hybrid-isometry\"",
                "forward",
                &hybrid_forward,
            ),
            ("release_served", &served[..], "forward", &served_forward),
            (
                "release_served_inverse",
                &served[..],
                "inverse",
                &served_inverse,
            ),
        ] {
            entries.push(Entry {
                name,
                params: format!("{{{shape}, {method}, \"direction\": \"{direction}\"}}"),
                scalar_s: best[0],
                fast_s: best[1],
                parallel_s: None,
            });
        }
    }

    // 8. End-to-end streaming at scale: fit on a bounded subsample, then
    //    stream the full row count through transform (and invert) in
    //    8192-row batches with reused output buffers — the shape a
    //    long-running release deployment actually has. The baseline is a
    //    replica of the pre-zero-copy batch path: clone the batch, then
    //    one whole-chunk pass per rotation step.
    let mut streaming: Vec<StreamEntry> = Vec::new();
    {
        const STREAM_COLS: usize = 16;
        const BATCH_ROWS: usize = 8192;
        let sizes: &[usize] = if quick {
            &[20_000]
        } else {
            &[100_000, 1_000_000]
        };
        for &m in sizes {
            let w = workload(WorkloadSpec {
                rows: m,
                cols: STREAM_COLS,
                k: 4,
                seed: 981,
            });

            // Fit: normalizer + drift bounds from the first shipment only
            // (the full stream is never resident at fit time), plus the
            // synthetic rotation key.
            let fit_rows = m.min(20_000);
            let t_fit = Instant::now();
            let sub = w
                .matrix
                .select_rows(&(0..fit_rows).collect::<Vec<_>>())
                .unwrap();
            let (normalizer, normalized) =
                Normalization::zscore_paper().fit_transform(&sub).unwrap();
            let bounds = DriftBounds::from_normalized(&normalized).unwrap();
            let key = synthetic_key(STREAM_COLS, STREAM_COLS);
            let session = ReleaseSession::new(key.clone(), normalizer.clone())
                .unwrap()
                .with_drift_bounds(bounds.clone())
                .unwrap();
            let fit_seconds = t_fit.elapsed().as_secs_f64();
            drop((sub, normalized));

            // Pre-split the stream into batch datasets outside the timed
            // region — arrival, not batching, is what we model.
            let batches: Vec<Dataset> = (0..m)
                .step_by(BATCH_ROWS)
                .map(|start| {
                    let rows: Vec<usize> = (start..(start + BATCH_ROWS).min(m)).collect();
                    Dataset::from_matrix(w.matrix.select_rows(&rows).unwrap())
                })
                .collect();

            // Straight memcpy over the same footprint: the hard ceiling
            // for any one-pass row transform on this host.
            let memcpy_gbps = {
                let src = w.matrix.as_slice();
                let mut dst = vec![0.0f64; src.len()];
                let mut best = f64::INFINITY;
                for _ in 0..3 {
                    let t = Instant::now();
                    dst.copy_from_slice(src);
                    best = best.min(t.elapsed().as_secs_f64());
                }
                black_box(&dst);
                // read + write
                (src.len() * 8) as f64 * 2.0 / best / 1e9
            };

            // Pre-zero-copy baseline replica (serial, like PR-6's
            // single-allocation path with per-element normalize and
            // per-step whole-chunk sweeps).
            let fwd = key.forward_sweep();
            let columns = scalar_columns(&normalizer);
            let mut baseline_pass = || {
                for b in &batches {
                    let mut out = b.matrix().clone();
                    scalar_normalize(out.as_mut_slice(), &columns);
                    let oor = out
                        .as_slice()
                        .chunks_exact(STREAM_COLS)
                        .filter(|row| !bounds.row_in_range(row))
                        .count();
                    black_box(oor);
                    for st in &fwd {
                        let [c, s, ..] = st.m;
                        rotate_pair_in_rows(out.as_mut_slice(), STREAM_COLS, st.i, st.j, c, s);
                    }
                    black_box(out.as_slice().as_ptr());
                }
            };
            let baseline_rows_per_sec = sustained_rows_per_sec(budget, m, &mut baseline_pass);

            // Sanity: the zero-copy path is bitwise the baseline.
            {
                let mut out = Matrix::zeros(0, 0);
                session.transform_batch_into(&batches[0], &mut out).unwrap();
                let mut reference = batches[0].matrix().clone();
                scalar_normalize(reference.as_mut_slice(), &columns);
                for st in &fwd {
                    let [c, s, ..] = st.m;
                    rotate_pair_in_rows(reference.as_mut_slice(), STREAM_COLS, st.i, st.j, c, s);
                }
                assert!(
                    out.approx_eq(&reference, 0.0),
                    "zero-copy transform drifted from the cloning path"
                );
            }

            let mut out = Matrix::zeros(0, 0);
            let mut transform_pass = || {
                for b in &batches {
                    session.transform_batch_into(b, &mut out).unwrap();
                    black_box(out.as_slice().as_ptr());
                }
            };
            let transform_rows_per_sec = sustained_rows_per_sec(budget, m, &mut transform_pass);

            // Steady-state allocation pin (meaningful once buffers are
            // warm): per batch, the library may allocate only the
            // step/boundary scratch vectors — a fixed few hundred
            // bytes against the ~1 MiB batch payload.
            let (allocs_per_batch, alloc_bytes_per_batch) = {
                transform_pass();
                let calls0 = ALLOC_CALLS.load(Ordering::Relaxed);
                let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
                transform_pass();
                let calls =
                    (ALLOC_CALLS.load(Ordering::Relaxed) - calls0) as f64 / batches.len() as f64;
                let bytes =
                    (ALLOC_BYTES.load(Ordering::Relaxed) - bytes0) as f64 / batches.len() as f64;
                assert!(
                    bytes < 16_384.0,
                    "steady-state allocation regressed: {bytes:.0} B/batch"
                );
                assert!(
                    calls < 32.0,
                    "steady-state allocation regressed: {calls:.1} allocs/batch"
                );
                (calls, bytes)
            };

            let mut inv = Matrix::zeros(0, 0);
            let mut roundtrip_pass = || {
                for b in &batches {
                    session.transform_batch_into(b, &mut out).unwrap();
                    let released =
                        Dataset::from_matrix(std::mem::replace(&mut out, Matrix::zeros(0, 0)));
                    session.invert_batch_into(&released, &mut inv).unwrap();
                    out = released.into_matrix();
                    black_box(inv.as_slice().as_ptr());
                }
            };
            let roundtrip_rows_per_sec = sustained_rows_per_sec(budget, m, &mut roundtrip_pass);

            streaming.push(StreamEntry {
                m,
                cols: STREAM_COLS,
                batch_rows: BATCH_ROWS,
                fit_seconds,
                baseline_rows_per_sec,
                transform_rows_per_sec,
                roundtrip_rows_per_sec,
                allocs_per_batch,
                alloc_bytes_per_batch,
                memcpy_gbps,
            });
        }
    }

    // ---- report ------------------------------------------------------------

    println!(
        "\nkernels bench ({} mode, {} thread(s))",
        if quick { "quick-smoke" } else { "full" },
        threads
    );
    println!(
        "{:<20} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "bench", "scalar s", "fast s", "parallel s", "speedup", "par-x"
    );
    for e in &entries {
        println!(
            "{:<20} {:>12.6} {:>12.6} {:>12} {:>8.2}x {:>9}",
            e.name,
            e.scalar_s,
            e.fast_s,
            e.parallel_s.map_or("-".into(), |p| format!("{p:.6}")),
            e.speedup(),
            e.speedup_parallel()
                .map_or("-".into(), |s| format!("{s:.2}x")),
        );
    }

    println!(
        "\nstreaming fit→transform→invert (rows/sec sustained; \
         baseline = pre-zero-copy clone + per-step sweeps)"
    );
    println!(
        "{:>9} {:>14} {:>14} {:>14} {:>8} {:>11} {:>10}",
        "m", "baseline r/s", "transform r/s", "roundtrip r/s", "speedup", "B/batch", "~GB/s"
    );
    for e in &streaming {
        println!(
            "{:>9} {:>14.0} {:>14.0} {:>14.0} {:>7.2}x {:>11.0} {:>10.2}",
            e.m,
            e.baseline_rows_per_sec,
            e.transform_rows_per_sec,
            e.roundtrip_rows_per_sec,
            e.speedup(),
            e.alloc_bytes_per_batch,
            e.transform_gbps(),
        );
    }
    if let Some(e) = streaming.first() {
        println!(
            "memcpy ceiling on this host: {:.2} GB/s (r+w); transform traffic ≈ 7 streams/batch",
            e.memcpy_gbps
        );
    }

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"generated_by\": \"cargo bench -p rbt-bench --bench kernels{}\",",
        if quick { " -- --quick-smoke" } else { "" }
    );
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if quick { "quick-smoke" } else { "full" }
    );
    let _ = writeln!(json, "  \"cpu_model\": \"{}\",", cpu_model());
    let _ = writeln!(
        json,
        "  \"nproc\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(json, "  \"host_threads\": {threads},");
    let _ = writeln!(json, "  \"benches\": [");
    for (idx, e) in entries.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", e.name);
        let _ = writeln!(json, "      \"params\": {},", e.params);
        let _ = writeln!(json, "      \"scalar_seconds\": {:.9},", e.scalar_s);
        let _ = writeln!(json, "      \"fast_seconds\": {:.9},", e.fast_s);
        if let Some(p) = e.parallel_s {
            let _ = writeln!(json, "      \"parallel_seconds\": {p:.9},");
            let _ = writeln!(
                json,
                "      \"speedup_parallel_vs_scalar\": {:.3},",
                e.speedup_parallel().unwrap()
            );
        }
        let _ = writeln!(json, "      \"speedup_fast_vs_scalar\": {:.3}", e.speedup());
        let _ = writeln!(
            json,
            "    }}{}",
            if idx + 1 < entries.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"streaming\": [");
    for (idx, e) in streaming.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(
            json,
            "      \"params\": {{\"m\": {}, \"cols\": {}, \"batch_rows\": {}}},",
            e.m, e.cols, e.batch_rows
        );
        let _ = writeln!(json, "      \"fit_seconds\": {:.6},", e.fit_seconds);
        let _ = writeln!(
            json,
            "      \"baseline_rows_per_sec\": {:.0},",
            e.baseline_rows_per_sec
        );
        let _ = writeln!(
            json,
            "      \"transform_rows_per_sec\": {:.0},",
            e.transform_rows_per_sec
        );
        let _ = writeln!(
            json,
            "      \"roundtrip_rows_per_sec\": {:.0},",
            e.roundtrip_rows_per_sec
        );
        let _ = writeln!(
            json,
            "      \"speedup_transform_vs_baseline\": {:.3},",
            e.speedup()
        );
        let _ = writeln!(
            json,
            "      \"allocs_per_batch\": {:.1},",
            e.allocs_per_batch
        );
        let _ = writeln!(
            json,
            "      \"alloc_bytes_per_batch\": {:.0},",
            e.alloc_bytes_per_batch
        );
        let _ = writeln!(
            json,
            "      \"transform_traffic_gbps\": {:.3},",
            e.transform_gbps()
        );
        let _ = writeln!(json, "      \"memcpy_gbps\": {:.3}", e.memcpy_gbps);
        let _ = writeln!(
            json,
            "    }}{}",
            if idx + 1 < streaming.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(out_path, &json).expect("write BENCH_kernels.json");
    println!("\nwrote {out_path}");
}
