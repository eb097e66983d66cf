//! Golden pins for the two key kinds: an RBT `TransformationKey` and a
//! hybrid `IsometryKey`. For each, the (length, CRC-32) of its forward and
//! inverse sweeps' coefficient bits and of `apply`-then-`invert` over a
//! 7×5 matrix holding ±0, a subnormal and ±1e300. Any change to how a key
//! turns its steps into 2×2 sweep steps, or to how it applies them, moves
//! these pins.

use rbt_core::reflection::{IsometryKey, IsometryStep};
use rbt_core::{RotationStep, TransformationKey};
use rbt_linalg::codec::crc32;
use rbt_linalg::matrix::PairStep;
use rbt_linalg::Matrix;

/// `(length, CRC-32)` of `bytes`.
fn pin(bytes: &[u8]) -> (usize, u32) {
    (bytes.len(), crc32(bytes))
}

/// Each step's pair and coefficients, little-endian, in sweep order.
fn sweep_pin(steps: &[PairStep]) -> (usize, u32) {
    let bytes: Vec<u8> = steps
        .iter()
        .flat_map(|st| {
            [st.i as u64, st.j as u64]
                .into_iter()
                .chain(st.m.iter().map(|c| c.to_bits()))
                .flat_map(u64::to_le_bytes)
        })
        .collect();
    pin(&bytes)
}

/// The matrix's bits, little-endian, row-major.
fn matrix_pin(m: &Matrix) -> (usize, u32) {
    let bytes: Vec<u8> = m
        .as_slice()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    pin(&bytes)
}

/// 7 rows × 5 columns: ordinary values, ±0, the smallest subnormal and
/// ±1e300 spread over different columns.
fn sample() -> Matrix {
    Matrix::from_rows(&[
        &[1.4809, 0.7095, -0.3476, 2.25, -1.125],
        &[0.0, -0.0, 0.4151, -0.3041, -1.5061],
        &[5e-324, -0.4824, -1.0642, 0.4634, 3.0],
        &[1e300, -1e300, 0.125, -7.5, 0.0],
        &[-0.0, 1e300, 1e300, 5e-324, -2.5],
        &[-1e300, 0.375, -0.0, -1e300, 1e300],
        &[0.5, -0.25, 5e-324, 0.0, -0.0],
    ])
    .unwrap()
}

#[test]
fn rotation_and_isometry_keys_keep_their_bits() {
    let rotation = |i, j, theta_degrees| RotationStep {
        i,
        j,
        theta_degrees,
        achieved_var1: 0.5,
        achieved_var2: 0.75,
    };
    // A non-adjacent pair, a reversed pair, then an ordinary one.
    let rbt = TransformationKey::new(
        vec![
            rotation(0, 3, 312.47),
            rotation(4, 1, 147.29),
            rotation(2, 3, 61.5),
        ],
        5,
    )
    .unwrap();
    let hybrid = IsometryKey::new(
        vec![
            IsometryStep::Rotate {
                i: 1,
                j: 3,
                theta_degrees: 75.25,
            },
            IsometryStep::Reflect {
                i: 4,
                j: 0,
                phi_degrees: 40.0,
            },
            IsometryStep::Rotate {
                i: 2,
                j: 1,
                theta_degrees: 200.5,
            },
        ],
        5,
    )
    .unwrap();
    let data = sample();

    let released = rbt.apply(&data).unwrap();
    let recovered = rbt.invert(&released).unwrap();
    let rbt_pins = [
        sweep_pin(&rbt.forward_sweep()),
        sweep_pin(&rbt.inverse_sweep()),
        matrix_pin(&released),
        matrix_pin(&recovered),
    ];

    let released = hybrid.apply(&data).unwrap();
    let recovered = hybrid.invert(&released).unwrap();
    let hybrid_pins = [
        sweep_pin(&hybrid.forward_sweep()),
        sweep_pin(&hybrid.inverse_sweep()),
        matrix_pin(&released),
        matrix_pin(&recovered),
    ];

    assert_eq!(
        rbt_pins,
        [
            (144, 0x35C75C26),
            (144, 0x5168EEB9),
            (280, 0xE0C00DAF),
            (280, 0x40AC323F),
        ],
        "transformation key"
    );
    assert_eq!(
        hybrid_pins,
        [
            (144, 0x075D7064),
            (144, 0xE04E4DFF),
            (280, 0x4F873D76),
            (280, 0xB80B0E4F),
        ],
        "isometry key"
    );
}
