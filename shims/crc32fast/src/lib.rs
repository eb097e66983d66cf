//! Vendored stand-in for the [`crc32fast`](https://crates.io/crates/crc32fast)
//! crate (the build environment has no registry access).
//!
//! Only the API this workspace uses is provided: [`hash`], the IEEE CRC-32
//! (the zlib/PNG variant, reflected polynomial `0xEDB88320`) of a byte
//! slice. Like the real crate it picks its implementation from the CPU at
//! run time:
//!
//! - on x86_64 with `pclmulqdq` and `sse4.1`, inputs of at least 64 bytes
//!   are folded 64 bytes per step with carry-less multiplication (fold by
//!   4, fold by 1, then a Barrett reduction — Gopal et al., "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction",
//!   Intel, 2009);
//! - everything else — other targets, older CPUs, and short inputs — walks
//!   a 256-entry table one byte at a time. The tests use that walk as the
//!   reference for the folded path.
//!
//! Both paths compute the same function, so the choice never changes a
//! checksum. The workspace forbids `unsafe` code elsewhere; here it is
//! confined to two sites, each with its `// SAFETY:` argument: the
//! unaligned 16-byte load and the call into the folding code after the CPU
//! features it needs were detected.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

/// The IEEE CRC-32 of `bytes`: `hash(b"123456789") == 0xCBF4_3926`.
pub fn hash(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= 64
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `clmul::hash` only requires the `pclmulqdq` and `sse4.1`
        // target features, and both were detected on this CPU just above.
        return unsafe { clmul::hash(bytes) };
    }
    bytewise(0, bytes)
}

/// The IEEE CRC-32 lookup table (polynomial `0xEDB88320`, reflected).
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
};

/// Extends the finished checksum `crc` of some prefix over `bytes`, one
/// table lookup per byte (`bytewise(0, b) == hash(b)`).
fn bytewise(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = !crc;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Folding constants for the reflected IEEE polynomial, each a power of
    // x reduced modulo P(x), bit-reflected and shifted left by one.
    /// x^(4·128+32) mod P: folds a lane 512 bits forward (fold by 4).
    const K1: i64 = 0x1_5444_2BD4;
    /// x^(4·128−32) mod P.
    const K2: i64 = 0x1_C6E4_1596;
    /// x^(128+32) mod P: folds a lane 128 bits forward (fold by 1).
    const K3: i64 = 0x1_7519_97D0;
    /// x^(128−32) mod P.
    const K4: i64 = 0x0_CCAA_009E;
    /// x^64 mod P: reduces 96 bits to 64.
    const K5: i64 = 0x1_63CD_6124;
    /// P(x) itself, reflected.
    const P_X: i64 = 0x1_DB71_0641;
    /// μ = ⌊x^64 / P(x)⌋, reflected: the Barrett constant.
    const U_PRIME: i64 = 0x1_F701_1641;

    /// The IEEE CRC-32 of `bytes`, which must hold at least 64 bytes.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(crate) fn hash(bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let mut groups = blocks.chunks_exact(4);
        let first = groups.next().expect("the caller passes at least 64 bytes");
        let mut lanes = [
            load(&first[0]),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];
        // The initial register value 0xFFFF_FFFF enters through the first
        // four bytes.
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(!0));

        // Step 1: four independent lanes, each folded 512 bits forward.
        let k1k2 = _mm_set_epi64x(K2, K1);
        for group in groups.by_ref() {
            for (lane, block) in lanes.iter_mut().zip(group) {
                *lane = fold(*lane, load(block), k1k2);
            }
        }
        // Step 2: fold the lanes into one, then the remaining 16-byte
        // blocks into it.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(lanes[0], lanes[1], k3k4);
        x = fold(x, lanes[2], k3k4);
        x = fold(x, lanes[3], k3k4);
        for block in groups.remainder() {
            x = fold(x, load(block), k3k4);
        }

        // Step 3: 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Step 4: Barrett reduction 64 → 32 bits. In the reflected domain
        // the remainder lands in the second 32-bit word.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let crc = !(_mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32);

        super::bytewise(crc, tail)
    }

    /// Folds `acc` forward over the distance `keys` encodes and adds
    /// `next`: `acc.lo · keys.lo ⊕ acc.hi · keys.hi ⊕ next`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Loads 16 bytes into a vector register, little-endian.
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, and `_mm_loadu_si128` has
        // no alignment requirement; SSE2 is part of the x86_64 baseline.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic pseudo-random bytes (a 64-bit LCG's high byte).
    fn sample_bytes(len: usize) -> Vec<u8> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for the IEEE polynomial.
        assert_eq!(hash(b"123456789"), 0xCBF4_3926);
        assert_eq!(hash(b""), 0);
        assert_eq!(hash(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn folded_path_matches_bytewise_at_every_length_and_offset() {
        let buf = sample_bytes(4095 + 7);
        for offset in [0, 1, 7] {
            for len in 0..4096 {
                let input = &buf[offset..offset + len];
                assert_eq!(
                    hash(input),
                    bytewise(0, input),
                    "length {len} at offset {offset}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_inputs_match_bytewise(bytes in prop::collection::vec(any::<u8>(), 0..2049)) {
            prop_assert_eq!(hash(&bytes), bytewise(0, &bytes));
        }
    }
}
