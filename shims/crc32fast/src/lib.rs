//! Vendored stand-in for the [`crc32fast`](https://crates.io/crates/crc32fast)
//! crate (the build environment has no registry access).
//!
//! Only the API this workspace uses is provided: [`hash`], the IEEE CRC-32
//! (the zlib/PNG variant, reflected polynomial `0xEDB88320`) of a byte
//! slice. Like the real crate it picks its implementation from the CPU at
//! run time:
//!
//! - on x86_64 with `vpclmulqdq` and `avx512f` (plus `pclmulqdq` and
//!   `sse4.1`), inputs of at least 256 bytes are folded 256 bytes per step
//!   in four 512-bit lanes: fold by 4 lanes, fold the lanes into one by
//!   512 bits, fold its four 128-bit parts into one, then the 128-bit
//!   path's tail;
//! - on x86_64 with `pclmulqdq` and `sse4.1`, inputs of at least 64 bytes
//!   are folded 64 bytes per step with carry-less multiplication (fold by
//!   4, fold by 1, then a Barrett reduction — Gopal et al., "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction",
//!   Intel, 2009);
//! - everything else — other targets, older CPUs, and short inputs — walks
//!   a 256-entry table one byte at a time. The tests use that walk as the
//!   reference for both folded paths.
//!
//! All paths compute the same function, so the choice never changes a
//! checksum. The workspace forbids `unsafe` code elsewhere; here it is
//! confined to four sites, each with its `// SAFETY:` argument: the
//! unaligned 16- and 64-byte loads and the calls into the folding code
//! after the CPU features it needs were detected.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

/// The IEEE CRC-32 of `bytes`: `hash(b"123456789") == 0xCBF4_3926`.
pub fn hash(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if bytes.len() >= clmul::WIDE_MIN_LEN && clmul::has_wide_fold() {
            // SAFETY: `clmul::hash_wide` only requires the `avx512f`,
            // `vpclmulqdq`, `pclmulqdq` and `sse4.1` target features, and
            // `has_wide_fold` detected all four on this CPU.
            return unsafe { clmul::hash_wide(bytes) };
        }
        if bytes.len() >= clmul::MIN_LEN && clmul::has_fold() {
            // SAFETY: `clmul::hash` only requires the `pclmulqdq` and
            // `sse4.1` target features, and `has_fold` detected both on
            // this CPU.
            return unsafe { clmul::hash(bytes) };
        }
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
        __m128i, __m512i, _mm512_broadcast_i32x4, _mm512_clmulepi64_epi128,
        _mm512_extracti32x4_epi32, _mm512_loadu_si512, _mm512_set_epi64, _mm512_xor_si512,
        _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32, _mm_loadu_si128,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// The shortest input [`hash`] folds.
    pub(crate) const MIN_LEN: usize = 64;
    /// The shortest input [`hash_wide`] folds.
    pub(crate) const WIDE_MIN_LEN: usize = 256;

    // Folding constants for the reflected IEEE polynomial, each a power of
    // x reduced modulo P(x), bit-reflected and shifted left by one. A fold
    // by d bits multiplies a 128-bit lane's low half by x^(d+32) and its
    // high half by x^(d−32).
    /// x^(16·128+32) mod P: folds a 512-bit lane 2048 bits forward (the
    /// wide fold by 4).
    const K2048_LO: i64 = 0x1_1542_778A;
    /// x^(16·128−32) mod P.
    const K2048_HI: i64 = 0x1_322D_1430;
    /// x^(4·128+32) mod P: folds a lane 512 bits forward (fold by 4).
    const K1: i64 = 0x1_5444_2BD4;
    /// x^(4·128−32) mod P.
    const K2: i64 = 0x1_C6E4_1596;
    /// x^(3·128+32) mod P: folds a 128-bit part 384 bits forward.
    const K384_LO: i64 = 0x0_3DB1_ECDC;
    /// x^(3·128−32) mod P.
    const K384_HI: i64 = 0x1_7435_9406;
    /// x^(2·128+32) mod P: folds a 128-bit part 256 bits forward.
    const K256_LO: i64 = 0x0_F1DA_05AA;
    /// x^(2·128−32) mod P.
    const K256_HI: i64 = 0x1_5A54_6366;
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

    /// Whether this CPU runs [`hash`].
    pub(crate) fn has_fold() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Whether this CPU runs [`hash_wide`].
    pub(crate) fn has_wide_fold() -> bool {
        has_fold()
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("vpclmulqdq")
    }

    /// The IEEE CRC-32 of `bytes`, which must hold at least [`MIN_LEN`]
    /// bytes.
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
        // Step 2: fold the lanes into one.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(lanes[0], lanes[1], k3k4);
        x = fold(x, lanes[2], k3k4);
        x = fold(x, lanes[3], k3k4);
        finish(x, groups.remainder(), tail)
    }

    /// The IEEE CRC-32 of `bytes`, which must hold at least
    /// [`WIDE_MIN_LEN`] bytes: [`hash`]'s fold in 512-bit lanes, four
    /// 128-bit folds per instruction.
    #[target_feature(enable = "avx512f,vpclmulqdq,pclmulqdq,sse4.1")]
    pub(crate) fn hash_wide(bytes: &[u8]) -> u32 {
        let (chunks, rest) = bytes.as_chunks::<64>();
        let mut groups = chunks.chunks_exact(4);
        let first = groups.next().expect("the caller passes at least 256 bytes");
        let mut lanes = [
            load_wide(&first[0]),
            load_wide(&first[1]),
            load_wide(&first[2]),
            load_wide(&first[3]),
        ];
        // The initial register value 0xFFFF_FFFF enters through the first
        // four bytes.
        lanes[0] = _mm512_xor_si512(lanes[0], _mm512_set_epi64(0, 0, 0, 0, 0, 0, 0, 0xFFFF_FFFF));

        // Step 1: four independent 512-bit lanes, each folded 2048 bits
        // forward.
        let k2048 = _mm512_broadcast_i32x4(_mm_set_epi64x(K2048_HI, K2048_LO));
        for group in groups.by_ref() {
            for (lane, chunk) in lanes.iter_mut().zip(group) {
                *lane = fold_wide(*lane, load_wide(chunk), k2048);
            }
        }
        // Step 2: fold the lanes into one by 512 bits, then the remaining
        // 64-byte chunks into it.
        let k1k2 = _mm512_broadcast_i32x4(_mm_set_epi64x(K2, K1));
        let mut x = fold_wide(lanes[0], lanes[1], k1k2);
        x = fold_wide(x, lanes[2], k1k2);
        x = fold_wide(x, lanes[3], k1k2);
        for chunk in groups.remainder() {
            x = fold_wide(x, load_wide(chunk), k1k2);
        }

        // Step 3: 512 → 128 bits. The four 128-bit parts are folded 384,
        // 256, 128 and 0 bits forward at once, onto the last one.
        let parts = _mm512_set_epi64(0, 0, K4, K3, K256_HI, K256_LO, K384_HI, K384_LO);
        let folded = fold_wide(x, _mm512_set_epi64(0, 0, 0, 0, 0, 0, 0, 0), parts);
        let mut y = _mm_xor_si128(
            _mm512_extracti32x4_epi32::<0>(folded),
            _mm512_extracti32x4_epi32::<1>(folded),
        );
        y = _mm_xor_si128(y, _mm512_extracti32x4_epi32::<2>(folded));
        y = _mm_xor_si128(y, _mm512_extracti32x4_epi32::<3>(x));

        let (blocks, tail) = rest.as_chunks::<16>();
        finish(y, blocks, tail)
    }

    /// The tail both folds share: folds the remaining 16-byte `blocks`
    /// into `x` by 128 bits each, reduces it to the CRC-32 of everything
    /// folded so far, and extends that over the last `tail` bytes.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn finish(mut x: __m128i, blocks: &[[u8; 16]], tail: &[u8]) -> u32 {
        let k3k4 = _mm_set_epi64x(K4, K3);
        for block in blocks {
            x = fold(x, load(block), k3k4);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett reduction 64 → 32 bits. In the reflected domain the
        // remainder lands in the second 32-bit word.
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

    /// [`fold`] in each of the four 128-bit parts of a 512-bit lane.
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    fn fold_wide(acc: __m512i, next: __m512i, keys: __m512i) -> __m512i {
        let lo = _mm512_clmulepi64_epi128(acc, keys, 0x00);
        let hi = _mm512_clmulepi64_epi128(acc, keys, 0x11);
        _mm512_xor_si512(_mm512_xor_si512(next, lo), hi)
    }

    /// Loads 16 bytes into a vector register, little-endian.
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, and `_mm_loadu_si128` has
        // no alignment requirement; SSE2 is part of the x86_64 baseline.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// Loads 64 bytes into a 512-bit register, little-endian.
    #[target_feature(enable = "avx512f")]
    fn load_wide(chunk: &[u8; 64]) -> __m512i {
        // SAFETY: `chunk` is 64 readable bytes, `_mm512_loadu_si512` has no
        // alignment requirement, and `avx512f` is enabled for this
        // function.
        unsafe { _mm512_loadu_si512(chunk.as_ptr().cast()) }
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

    /// Every length from 0 to 4,160 bytes at offsets 0, 1 and 7, then
    /// 1 MiB: past both folds' group loops and every tail length.
    fn each_input(mut check: impl FnMut(&[u8], &str)) {
        let buf = sample_bytes(4160 + 7);
        for offset in [0, 1, 7] {
            for len in 0..=4160 {
                check(
                    &buf[offset..offset + len],
                    &format!("length {len} at offset {offset}"),
                );
            }
        }
        check(&sample_bytes(1 << 20), "1 MiB");
    }

    #[test]
    fn hash_matches_bytewise_at_every_length_and_offset() {
        each_input(|input, what| assert_eq!(hash(input), bytewise(0, input), "{what}"));
    }

    /// Each folded path, called directly where this CPU has its features,
    /// on every input long enough for it.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn each_folded_path_matches_bytewise() {
        if clmul::has_fold() {
            each_input(|input, what| {
                if input.len() >= clmul::MIN_LEN {
                    // SAFETY: `has_fold` detected the features `hash` needs.
                    let folded = unsafe { clmul::hash(input) };
                    assert_eq!(folded, bytewise(0, input), "128-bit fold, {what}");
                }
            });
        }
        if clmul::has_wide_fold() {
            each_input(|input, what| {
                if input.len() >= clmul::WIDE_MIN_LEN {
                    // SAFETY: `has_wide_fold` detected the features
                    // `hash_wide` needs.
                    let folded = unsafe { clmul::hash_wide(input) };
                    assert_eq!(folded, bytewise(0, input), "512-bit fold, {what}");
                }
            });
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_inputs_match_bytewise(bytes in prop::collection::vec(any::<u8>(), 0..4097)) {
            prop_assert_eq!(hash(&bytes), bytewise(0, &bytes));
        }
    }
}
