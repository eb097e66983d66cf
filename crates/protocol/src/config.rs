//! The announced federation configuration.
//!
//! Every parameter that influences a single bit of the joint release is
//! fixed here, carried verbatim inside the [`Announce`](crate::Message)
//! round (and the server's `FedOpen` request), and validated by every
//! party — the protocol's determinism contract starts with all parties
//! agreeing on this record.
//!
//! The record carries the key file's encodings, not copies of them: the
//! normalization is [`Normalization::encode_into`]'s method tag and the
//! RBT parameters are [`RbtConfig::encode_into`]'s config record, between
//! the session/shape fields and the key-policy/k-means fields. The record
//! has no version field; every party runs one build.

use crate::{ProtocolError, Result};
use rbt_core::{PairingStrategy, RbtConfig, ThresholdPolicy};
use rbt_data::Normalization;
use rbt_linalg::codec::{ByteReader, ByteWriter, DecodeError, DecodeResult};

/// Hard upper bound on the owner count a session may announce.
///
/// The protocol is sequential in the owner count (the chained folds visit
/// owners in order), so this bounds round counts, mailbox fan-out, and the
/// hub's per-session memory.
pub const MAX_OWNERS: u16 = 64;

/// Hard upper bound on the announced attribute count.
///
/// Column indices travel as `u16` in pair folds and `ApplyRotation` messages,
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
    /// `2..=MAX_OWNERS`, an attribute count below 2, a `kmeans_k` of 0, a
    /// size field above its cap (the bounds [`decode_from`](Self::decode_from)
    /// applies), or a normalization with no chainable partial fit. All
    /// bounds are checked before anything is allocated, so an
    /// unauthenticated config cannot trigger an OOM here.
    pub fn validate(&self) -> Result<()> {
        if self.owners < 2 || self.owners > MAX_OWNERS {
            return Err(ProtocolError::InvalidConfig(format!(
                "owner count {} outside 2..={MAX_OWNERS}",
                self.owners
            )));
        }
        if self.n_cols < 2 {
            return Err(ProtocolError::InvalidConfig(format!(
                "attribute count {} below 2",
                self.n_cols
            )));
        }
        if self.kmeans_k == 0 {
            return Err(ProtocolError::InvalidConfig("kmeans_k is 0".into()));
        }
        if let Some(message) = self.implausible_size() {
            return Err(ProtocolError::InvalidConfig(message));
        }
        // Surface an unchainable normalization at announce time, not
        // mid-chain: the partial fit is what the protocol is built on.
        self.normalization
            .begin_partial_fit(self.n_cols)
            .map_err(|e| ProtocolError::InvalidConfig(e.to_string()))?;
        Ok(())
    }

    /// The first size field above its cap, as a message: `n_cols`,
    /// `solver_grid`, `kmeans_k`, `kmeans_max_iters`, and the lengths of an
    /// explicit pairing or a per-pair threshold list (at most `u16::MAX`
    /// each, the width pair indices travel in).
    fn implausible_size(&self) -> Option<String> {
        let explicit_pairs = match &self.rbt.pairing {
            PairingStrategy::Explicit(pairs) => pairs.len(),
            _ => 0,
        };
        let per_pair_thresholds = match &self.rbt.thresholds {
            ThresholdPolicy::PerPair(list) => list.len(),
            _ => 0,
        };
        let max_pairs = usize::from(u16::MAX);
        [
            (self.n_cols, MAX_COLS, "attribute count"),
            (self.rbt.solver_grid, MAX_SOLVER_GRID, "solver grid"),
            (explicit_pairs, max_pairs, "explicit pairing length"),
            (per_pair_thresholds, max_pairs, "threshold list length"),
            (self.kmeans_k, MAX_KMEANS_K, "kmeans_k"),
            (
                self.kmeans_max_iters,
                MAX_KMEANS_MAX_ITERS,
                "kmeans_max_iters",
            ),
        ]
        .into_iter()
        .find(|&(v, max, _)| v > max)
        .map(|(v, max, what)| format!("implausible {what} {v} (max {max})"))
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
        self.normalization.encode_into(w);
        self.rbt.encode_into(w);
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
    /// The size-like fields are bounded here, at decode time (the caps
    /// [`validate`](Self::validate) also applies), so an unauthenticated
    /// frame can never carry an allocation-driving count into `validate` or
    /// any party state machine. The record's only lists, the explicit pairs
    /// and per-pair thresholds, are checked against the bytes present
    /// before they are read.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation, an unknown tag, or an implausible
    /// size field.
    pub fn decode_from(r: &mut ByteReader<'_>) -> DecodeResult<Self> {
        let offset = r.position();
        let config = FederationConfig {
            session: r.take_u64()?,
            n_cols: r.take_usize()?,
            owners: r.take_u16()?,
            normalization: Normalization::decode_from(r)?,
            rbt: RbtConfig::decode_from(r)?,
            key_policy: match r.take_u8()? {
                0 => KeyPolicy::Shared,
                1 => KeyPolicy::PerOwner,
                tag => {
                    return Err(DecodeError::Malformed {
                        offset: r.position() - 1,
                        message: format!("unknown key policy tag {tag}"),
                    })
                }
            },
            seed: r.take_u64()?,
            kmeans_k: r.take_usize()?,
            kmeans_max_iters: r.take_usize()?,
        };
        match config.implausible_size() {
            Some(message) => Err(DecodeError::Malformed { offset, message }),
            None => Ok(config),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbt_core::PairwiseSecurityThreshold;
    use rbt_linalg::codec::crc32;
    use rbt_linalg::stats::VarianceMode;

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
        let sample = sample_config();
        let population = VarianceMode::Population;
        let min_max = Normalization::MinMax {
            new_min: -1.0,
            new_max: 2.0,
        };
        let zscore = Normalization::ZScore { mode: population };
        let uniform = ThresholdPolicy::Uniform(PairwiseSecurityThreshold::new(0.3, 0.55).unwrap());
        let pairings = [
            PairingStrategy::Sequential,
            PairingStrategy::RandomShuffle,
            sample.rbt.pairing.clone(),
        ];
        for normalization in [
            min_max,
            Normalization::zscore_paper(),
            zscore,
            Normalization::DecimalScaling,
        ] {
            for variance_mode in [VarianceMode::Sample, population] {
                for pairing in &pairings {
                    for thresholds in [&uniform, &sample.rbt.thresholds] {
                        let mut cfg = sample_config();
                        cfg.normalization = normalization;
                        cfg.rbt = RbtConfig {
                            pairing: pairing.clone(),
                            thresholds: thresholds.clone(),
                            variance_mode,
                            ..cfg.rbt
                        };
                        cfg.validate().unwrap();
                        let bytes = ByteWriter::encode_with(|w| cfg.encode_into(w));
                        let mut r = ByteReader::new(&bytes);
                        assert_eq!(FederationConfig::decode_from(&mut r).unwrap(), cfg);
                        r.expect_end().unwrap();
                    }
                }
            }
        }
    }

    /// The `FedOpen`/`Announce` bytes of [`sample_config`], pinned so a
    /// codec change cannot move them silently. Its normalization and
    /// variance-mode bytes are the key file's (`Normalization` and
    /// `RbtConfig` encodings).
    #[test]
    fn sample_config_keeps_its_bytes() {
        let bytes = ByteWriter::encode_with(|w| sample_config().encode_into(w));
        assert_eq!((bytes.len(), crc32(&bytes)), (167, 0xF826_FAF5));
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
        let cases: [(Poison, &str); 5] = [
            (|c| c.n_cols = 1 << 40, "n_cols"),
            (
                |c| c.rbt.pairing = PairingStrategy::Explicit(vec![(0, 1); 65_536]),
                "explicit pairing",
            ),
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
