//! The announced federation configuration.
//!
//! Every parameter that influences a single bit of the joint release is
//! fixed here, carried verbatim inside the [`Announce`](crate::Message)
//! round, and validated by every party — the protocol's determinism
//! contract starts with all parties agreeing on this record.

use crate::{ProtocolError, Result};
use rbt_core::{PairingStrategy, PairwiseSecurityThreshold, RbtConfig, ThresholdPolicy};
use rbt_data::Normalization;
use rbt_linalg::codec::{ByteReader, ByteWriter, DecodeError, DecodeResult};
use rbt_linalg::stats::VarianceMode;

/// Hard upper bound on the owner count a session may announce.
///
/// The protocol is sequential in the owner count (the stat chains visit
/// owners in order), so this bounds round counts, mailbox fan-out, and the
/// hub's per-session memory.
pub const MAX_OWNERS: u16 = 64;

/// Hard upper bound on the announced attribute count.
///
/// Column indices travel as `u16` in `PairChain`/`ApplyRotation` messages,
/// so a wider matrix could not be addressed on the wire — and the bound
/// keeps an unauthenticated `Announce`/`FedOpen` from driving huge
/// per-column allocations before any data arrives.
pub const MAX_COLS: usize = u16::MAX as usize;

/// Plausibility cap on the announced solver grid resolution (the default
/// is 1440; the cap bounds the per-pair solve loop).
pub const MAX_SOLVER_GRID: usize = 1 << 20;

/// Plausibility cap on the announced joint cluster count (bounds the
/// receiver's centroid allocation).
pub const MAX_KMEANS_K: usize = 1 << 12;

/// Plausibility cap on the announced joint k-means iteration budget.
pub const MAX_KMEANS_MAX_ITERS: usize = 1 << 20;

/// Who holds the transformation key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum KeyPolicy {
    /// One key, fitted jointly over the federated matrix and applied by
    /// every owner. The joint release is bit-identical to the pooled
    /// single-owner pipeline — and any one owner can invert **every**
    /// owner's block (the collusion surface `federated_collusion`
    /// measures).
    Shared,
    /// Each owner fits a private key on its own partition (seeded from the
    /// announced seed and the owner id). Collusion only enables linkage
    /// attacks, but blocks of different owners are no longer isometric to
    /// one another, so joint clustering is approximate.
    PerOwner,
}

/// The full configuration of a federated release session.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationConfig {
    /// Session identifier; every message carries it and every party checks
    /// it.
    pub session: u64,
    /// Number of shared attributes (columns) each owner holds.
    pub n_cols: usize,
    /// Number of owners; partitions are indexed `0..owners` in announced
    /// (pooled concatenation) order.
    pub owners: u16,
    /// The shared normalization method (fitted federatedly; robust z-score
    /// is rejected — median/MAD have no chainable sufficient statistic).
    pub normalization: Normalization,
    /// RBT parameters: pairing, thresholds, variance mode, solver grid.
    pub rbt: RbtConfig,
    /// Who holds the key.
    pub key_policy: KeyPolicy,
    /// Seed for the coordinator's angle/pairing draws (and, under
    /// [`KeyPolicy::PerOwner`], the base for per-owner key seeds).
    pub seed: u64,
    /// Number of joint clusters the receiver fits.
    pub kmeans_k: usize,
    /// Iteration cap of the receiver's joint k-means.
    pub kmeans_max_iters: usize,
}

impl FederationConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidConfig`] for an owner count outside
    /// `2..=MAX_OWNERS`, an attribute count outside `2..=MAX_COLS`,
    /// `kmeans_k` outside `1..=MAX_KMEANS_K`, an out-of-bounds solver grid
    /// or iteration budget, or a normalization with no chainable partial
    /// fit. All bounds are checked before anything is allocated, so an
    /// unauthenticated config cannot trigger an OOM here.
    pub fn validate(&self) -> Result<()> {
        if self.owners < 2 || self.owners > MAX_OWNERS {
            return Err(ProtocolError::InvalidConfig(format!(
                "owner count {} outside 2..={MAX_OWNERS}",
                self.owners
            )));
        }
        if self.n_cols < 2 || self.n_cols > MAX_COLS {
            return Err(ProtocolError::InvalidConfig(format!(
                "attribute count {} outside 2..={MAX_COLS}",
                self.n_cols
            )));
        }
        if self.rbt.solver_grid > MAX_SOLVER_GRID {
            return Err(ProtocolError::InvalidConfig(format!(
                "solver grid {} exceeds {MAX_SOLVER_GRID}",
                self.rbt.solver_grid
            )));
        }
        if self.kmeans_k == 0 || self.kmeans_k > MAX_KMEANS_K {
            return Err(ProtocolError::InvalidConfig(format!(
                "kmeans_k {} outside 1..={MAX_KMEANS_K}",
                self.kmeans_k
            )));
        }
        if self.kmeans_max_iters > MAX_KMEANS_MAX_ITERS {
            return Err(ProtocolError::InvalidConfig(format!(
                "kmeans_max_iters {} exceeds {MAX_KMEANS_MAX_ITERS}",
                self.kmeans_max_iters
            )));
        }
        // Surface an unchainable normalization at announce time, not
        // mid-chain: the partial fit is what the protocol is built on.
        self.normalization
            .begin_partial_fit(self.n_cols)
            .map_err(|e| ProtocolError::InvalidConfig(e.to_string()))?;
        Ok(())
    }

    /// The key-fit seed of `owner` under [`KeyPolicy::PerOwner`]:
    /// the announced seed mixed with the owner id (splitmix-style odd
    /// constant) so sibling owners never share an angle stream.
    pub fn owner_seed(&self, owner: u16) -> u64 {
        self.seed ^ 0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(u64::from(owner) + 1)
    }

    /// Serializes the configuration (the `Announce` payload).
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u64(self.session);
        w.put_usize(self.n_cols);
        w.put_u16(self.owners);
        encode_normalization(&self.normalization, w);
        encode_pairing(&self.rbt.pairing, w);
        encode_thresholds(&self.rbt.thresholds, w);
        w.put_u8(variance_mode_tag(self.rbt.variance_mode));
        w.put_usize(self.rbt.solver_grid);
        w.put_u8(match self.key_policy {
            KeyPolicy::Shared => 0,
            KeyPolicy::PerOwner => 1,
        });
        w.put_u64(self.seed);
        w.put_usize(self.kmeans_k);
        w.put_usize(self.kmeans_max_iters);
    }

    /// Decodes a configuration written by [`encode_into`](Self::encode_into).
    ///
    /// The size-like fields (`n_cols`, `solver_grid`, `kmeans_k`,
    /// `kmeans_max_iters`) are bounded here, at decode time, so an
    /// unauthenticated frame can never carry an allocation-driving count
    /// into [`validate`](Self::validate) or any party state machine.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation, an unknown tag, or an implausible
    /// size field.
    pub fn decode_from(r: &mut ByteReader<'_>) -> DecodeResult<Self> {
        let session = r.take_u64()?;
        let n_cols = take_bounded_usize(r, MAX_COLS, "attribute count")?;
        let owners = r.take_u16()?;
        let normalization = decode_normalization(r)?;
        let pairing = decode_pairing(r)?;
        let thresholds = decode_thresholds(r)?;
        let variance_mode = decode_variance_mode(r)?;
        let solver_grid = take_bounded_usize(r, MAX_SOLVER_GRID, "solver grid")?;
        let key_policy = match r.take_u8()? {
            0 => KeyPolicy::Shared,
            1 => KeyPolicy::PerOwner,
            tag => {
                return Err(DecodeError::Malformed {
                    offset: r.position().saturating_sub(1),
                    message: format!("unknown key policy tag {tag}"),
                })
            }
        };
        let seed = r.take_u64()?;
        let kmeans_k = take_bounded_usize(r, MAX_KMEANS_K, "kmeans_k")?;
        let kmeans_max_iters = take_bounded_usize(r, MAX_KMEANS_MAX_ITERS, "kmeans_max_iters")?;
        Ok(FederationConfig {
            session,
            n_cols,
            owners,
            normalization,
            rbt: RbtConfig {
                pairing,
                thresholds,
                variance_mode,
                solver_grid,
            },
            key_policy,
            seed,
            kmeans_k,
            kmeans_max_iters,
        })
    }
}

/// Reads a usize field and rejects values above `max` with a typed decode
/// error naming the field.
fn take_bounded_usize(r: &mut ByteReader<'_>, max: usize, what: &str) -> DecodeResult<usize> {
    let offset = r.position();
    let v = r.take_usize()?;
    if v > max {
        return Err(DecodeError::Malformed {
            offset,
            message: format!("implausible {what} {v} (max {max})"),
        });
    }
    Ok(v)
}

fn variance_mode_tag(mode: VarianceMode) -> u8 {
    match mode {
        VarianceMode::Sample => 0,
        VarianceMode::Population => 1,
    }
}

fn decode_variance_mode(r: &mut ByteReader<'_>) -> DecodeResult<VarianceMode> {
    match r.take_u8()? {
        0 => Ok(VarianceMode::Sample),
        1 => Ok(VarianceMode::Population),
        tag => Err(DecodeError::Malformed {
            offset: r.position().saturating_sub(1),
            message: format!("unknown variance mode tag {tag}"),
        }),
    }
}

fn encode_normalization(n: &Normalization, w: &mut ByteWriter) {
    match n {
        Normalization::MinMax { new_min, new_max } => {
            w.put_u8(0);
            w.put_f64(*new_min);
            w.put_f64(*new_max);
        }
        Normalization::ZScore { mode } => {
            w.put_u8(1);
            w.put_u8(variance_mode_tag(*mode));
        }
        Normalization::DecimalScaling => w.put_u8(2),
        Normalization::RobustZScore => w.put_u8(3),
        #[allow(unreachable_patterns)] // future #[non_exhaustive] variants
        _ => w.put_u8(u8::MAX),
    }
}

fn decode_normalization(r: &mut ByteReader<'_>) -> DecodeResult<Normalization> {
    match r.take_u8()? {
        0 => Ok(Normalization::MinMax {
            new_min: r.take_f64()?,
            new_max: r.take_f64()?,
        }),
        1 => Ok(Normalization::ZScore {
            mode: decode_variance_mode(r)?,
        }),
        2 => Ok(Normalization::DecimalScaling),
        3 => Ok(Normalization::RobustZScore),
        tag => Err(DecodeError::Malformed {
            offset: r.position().saturating_sub(1),
            message: format!("unknown normalization tag {tag}"),
        }),
    }
}

fn encode_pairing(p: &PairingStrategy, w: &mut ByteWriter) {
    match p {
        PairingStrategy::Sequential => w.put_u8(0),
        PairingStrategy::RandomShuffle => w.put_u8(1),
        PairingStrategy::Explicit(pairs) => {
            w.put_u8(2);
            w.put_usize(pairs.len());
            for &(i, j) in pairs {
                w.put_usize(i);
                w.put_usize(j);
            }
        }
        #[allow(unreachable_patterns)] // future #[non_exhaustive] variants
        _ => w.put_u8(u8::MAX),
    }
}

fn decode_pairing(r: &mut ByteReader<'_>) -> DecodeResult<PairingStrategy> {
    match r.take_u8()? {
        0 => Ok(PairingStrategy::Sequential),
        1 => Ok(PairingStrategy::RandomShuffle),
        2 => {
            let n = r.take_usize()?;
            if n > u16::MAX as usize {
                return Err(DecodeError::Malformed {
                    offset: r.position(),
                    message: format!("implausible explicit pairing length {n}"),
                });
            }
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                let i = r.take_usize()?;
                let j = r.take_usize()?;
                pairs.push((i, j));
            }
            Ok(PairingStrategy::Explicit(pairs))
        }
        tag => Err(DecodeError::Malformed {
            offset: r.position().saturating_sub(1),
            message: format!("unknown pairing tag {tag}"),
        }),
    }
}

fn encode_thresholds(t: &ThresholdPolicy, w: &mut ByteWriter) {
    match t {
        ThresholdPolicy::Uniform(pst) => {
            w.put_u8(0);
            w.put_f64(pst.rho1);
            w.put_f64(pst.rho2);
        }
        ThresholdPolicy::PerPair(list) => {
            w.put_u8(1);
            w.put_usize(list.len());
            for pst in list {
                w.put_f64(pst.rho1);
                w.put_f64(pst.rho2);
            }
        }
        #[allow(unreachable_patterns)] // future #[non_exhaustive] variants
        _ => w.put_u8(u8::MAX),
    }
}

fn decode_thresholds(r: &mut ByteReader<'_>) -> DecodeResult<ThresholdPolicy> {
    fn pst(r: &mut ByteReader<'_>) -> DecodeResult<PairwiseSecurityThreshold> {
        let offset = r.position();
        let rho1 = r.take_f64()?;
        let rho2 = r.take_f64()?;
        PairwiseSecurityThreshold::new(rho1, rho2).map_err(|e| DecodeError::Malformed {
            offset,
            message: e.to_string(),
        })
    }
    match r.take_u8()? {
        0 => Ok(ThresholdPolicy::Uniform(pst(r)?)),
        1 => {
            let n = r.take_usize()?;
            if n > u16::MAX as usize {
                return Err(DecodeError::Malformed {
                    offset: r.position(),
                    message: format!("implausible threshold list length {n}"),
                });
            }
            let mut list = Vec::with_capacity(n);
            for _ in 0..n {
                list.push(pst(r)?);
            }
            Ok(ThresholdPolicy::PerPair(list))
        }
        tag => Err(DecodeError::Malformed {
            offset: r.position().saturating_sub(1),
            message: format!("unknown threshold policy tag {tag}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_config() -> FederationConfig {
        FederationConfig {
            session: 0xfeed_beef,
            n_cols: 5,
            owners: 3,
            normalization: Normalization::zscore_paper(),
            rbt: RbtConfig::uniform(PairwiseSecurityThreshold::new(0.2, 0.2).unwrap())
                .with_pairing(PairingStrategy::Explicit(vec![(0, 1), (2, 3), (4, 0)]))
                .with_thresholds(ThresholdPolicy::PerPair(vec![
                    PairwiseSecurityThreshold::new(0.3, 0.55).unwrap(),
                    PairwiseSecurityThreshold::new(2.3, 2.3).unwrap(),
                    PairwiseSecurityThreshold::new(0.2, 0.2).unwrap(),
                ])),
            key_policy: KeyPolicy::PerOwner,
            seed: 42,
            kmeans_k: 3,
            kmeans_max_iters: 64,
        }
    }

    #[test]
    fn config_round_trips() {
        let cfg = sample_config();
        cfg.validate().unwrap();
        let mut w = ByteWriter::new();
        cfg.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = FederationConfig::decode_from(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut cfg = sample_config();
        cfg.owners = 1;
        assert!(matches!(
            cfg.validate(),
            Err(ProtocolError::InvalidConfig(_))
        ));

        let mut cfg = sample_config();
        cfg.owners = MAX_OWNERS + 1;
        assert!(cfg.validate().is_err());

        let mut cfg = sample_config();
        cfg.n_cols = 1;
        assert!(cfg.validate().is_err());

        let mut cfg = sample_config();
        cfg.kmeans_k = 0;
        assert!(cfg.validate().is_err());

        // Robust z-score has no chainable partial fit.
        let mut cfg = sample_config();
        cfg.normalization = Normalization::RobustZScore;
        assert!(matches!(
            cfg.validate(),
            Err(ProtocolError::InvalidConfig(_))
        ));

        // A min-max target must be a finite range.
        let mut cfg = sample_config();
        cfg.normalization = Normalization::MinMax {
            new_min: 0.0,
            new_max: f64::INFINITY,
        };
        assert!(matches!(
            cfg.validate(),
            Err(ProtocolError::InvalidConfig(_))
        ));
    }

    #[test]
    fn validate_bounds_size_fields_before_allocating() {
        // An absurd n_cols must be rejected up front — not passed to
        // begin_partial_fit, where it would drive a multi-TB allocation.
        let mut cfg = sample_config();
        cfg.n_cols = 1 << 40;
        assert!(matches!(
            cfg.validate(),
            Err(ProtocolError::InvalidConfig(_))
        ));

        let mut cfg = sample_config();
        cfg.n_cols = MAX_COLS + 1;
        assert!(cfg.validate().is_err());

        let mut cfg = sample_config();
        cfg.rbt.solver_grid = MAX_SOLVER_GRID + 1;
        assert!(cfg.validate().is_err());

        let mut cfg = sample_config();
        cfg.kmeans_k = MAX_KMEANS_K + 1;
        assert!(cfg.validate().is_err());

        let mut cfg = sample_config();
        cfg.kmeans_max_iters = MAX_KMEANS_MAX_ITERS + 1;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn decode_rejects_implausible_size_fields() {
        // Every size-like field must be bounded at decode time, so a
        // ~100-byte unauthenticated frame cannot smuggle in an
        // allocation-driving count.
        type Poison = fn(&mut FederationConfig);
        let cases: [(Poison, &str); 4] = [
            (|c| c.n_cols = 1 << 40, "n_cols"),
            (|c| c.rbt.solver_grid = MAX_SOLVER_GRID + 1, "solver_grid"),
            (|c| c.kmeans_k = MAX_KMEANS_K + 1, "kmeans_k"),
            (
                |c| c.kmeans_max_iters = MAX_KMEANS_MAX_ITERS + 1,
                "kmeans_max_iters",
            ),
        ];
        for (poison, what) in cases {
            let mut cfg = sample_config();
            poison(&mut cfg);
            let mut w = ByteWriter::new();
            cfg.encode_into(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert!(
                FederationConfig::decode_from(&mut r).is_err(),
                "oversized {what} decoded"
            );
        }
    }

    #[test]
    fn owner_seeds_are_distinct() {
        let cfg = sample_config();
        let seeds: Vec<u64> = (0..cfg.owners).map(|o| cfg.owner_seed(o)).collect();
        for (a, sa) in seeds.iter().enumerate() {
            assert_ne!(*sa, cfg.seed);
            for (b, sb) in seeds.iter().enumerate() {
                if a != b {
                    assert_ne!(sa, sb);
                }
            }
        }
    }

    #[test]
    fn decode_rejects_unknown_tags() {
        let cfg = sample_config();
        let mut w = ByteWriter::new();
        cfg.encode_into(&mut w);
        let mut bytes = w.into_bytes();
        // The key-policy byte sits 17 bytes before the end (policy + seed
        // + k + max_iters). Stomp it with an unknown tag.
        let n = bytes.len();
        bytes[n - 25] = 9;
        let mut r = ByteReader::new(&bytes);
        assert!(FederationConfig::decode_from(&mut r).is_err());
    }
}
