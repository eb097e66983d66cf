//! Typed round messages and their checksummed binary codec.
//!
//! One message kind per protocol step; both chained folds ([`Fold`]) use
//! the one pair `Chain`/`ChainAck`. Every message carries the session
//! id; every encoded message ends with a CRC-32 over its body, so a
//! corrupted delivery fails [`Message::decode`] with a typed error instead
//! of reaching a party's state machine. (The wire layer has its own frame
//! CRC; this one also covers in-process and store-and-forward transports.)

use crate::config::{FederationConfig, MAX_KMEANS_K};
use rbt_linalg::codec::{crc32, ByteReader, ByteWriter, DecodeError, DecodeResult};
use rbt_linalg::Matrix;
use std::fmt;

/// A protocol party, as a message destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Party {
    /// The session coordinator (drives rounds, holds the announced config).
    Coordinator,
    /// A data owner, by announced index.
    Owner(u16),
    /// The third party receiving the joint release.
    Receiver,
}

impl fmt::Display for Party {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Party::Coordinator => write!(f, "coordinator"),
            Party::Owner(i) => write!(f, "owner {i}"),
            Party::Receiver => write!(f, "receiver"),
        }
    }
}

/// A message queued for delivery to a party.
#[derive(Debug, Clone, PartialEq)]
pub struct Outbound {
    /// Destination party.
    pub to: Party,
    /// The message itself.
    pub msg: Message,
}

impl Outbound {
    /// Convenience constructor.
    pub fn new(to: Party, msg: Message) -> Self {
        Outbound { to, msg }
    }
}

/// Summary of the receiver's joint clustering, reported back to the
/// coordinator (and served over the wire as the session result).
#[derive(Debug, Clone, PartialEq)]
pub struct JointSummary {
    /// Total rows clustered across all owners.
    pub rows: u64,
    /// Shared attribute count.
    pub cols: u16,
    /// Joint k-means labels, in pooled row order.
    pub labels: Vec<u32>,
    /// Final within-cluster sum of squares.
    pub inertia: f64,
    /// Iterations until convergence (or the cap).
    pub iterations: u32,
    /// Whether k-means converged before the iteration cap.
    pub converged: bool,
}

/// The statistic a chained fold accumulates. The coordinator hands its
/// accumulator to each owner in announced order, one pass after another;
/// every owner folds its block in, so the result is the pooled fit's
/// left fold, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// The shared normalizer: a [`rbt_data::PartialFit`] folded over each
    /// owner's raw rows (two passes for z-score, one otherwise).
    Normalization,
    /// One rotation pair's variances and covariance: a
    /// [`rbt_core::PairMoments`] folded over columns `(i, j)` of each
    /// owner's normalized, partly rotated rows (two passes). Only under
    /// [`crate::KeyPolicy::Shared`].
    Pair {
        /// Pair index in pairing order.
        pair: u16,
        /// First attribute of the pair.
        i: u16,
        /// Second attribute of the pair.
        j: u16,
    },
}

impl fmt::Display for Fold {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fold::Normalization => write!(f, "normalization fold"),
            Fold::Pair { pair, i, j } => write!(f, "pair {pair} ({i}, {j}) fold"),
        }
    }
}

const FOLD_NORMALIZATION: u8 = 1;
const FOLD_PAIR: u8 = 2;

impl Fold {
    fn encode_into(self, w: &mut ByteWriter) {
        match self {
            Fold::Normalization => w.put_u8(FOLD_NORMALIZATION),
            Fold::Pair { pair, i, j } => {
                w.put_u8(FOLD_PAIR);
                w.put_u16(pair);
                w.put_u16(i);
                w.put_u16(j);
            }
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> DecodeResult<Self> {
        let offset = r.position();
        Ok(match r.take_u8()? {
            FOLD_NORMALIZATION => Fold::Normalization,
            FOLD_PAIR => Fold::Pair {
                pair: r.take_u16()?,
                i: r.take_u16()?,
                j: r.take_u16()?,
            },
            other => {
                return Err(DecodeError::Malformed {
                    offset,
                    message: format!("unknown fold tag {other}"),
                })
            }
        })
    }
}

/// A typed protocol round message.
///
/// The chained folds (`Chain`, `ChainAck`) carry opaque accumulator bytes
/// (a serialized [`rbt_data::PartialFit`] or [`rbt_core::PairMoments`]);
/// owners decode, fold their block, and re-encode, so raw rows never
/// travel.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Message {
    /// Round 0, coordinator → everyone: the full session configuration.
    Announce {
        /// The announced configuration (carries the session id).
        config: FederationConfig,
    },
    /// Owner → coordinator: the owner is present.
    Join {
        /// Session id.
        session: u64,
        /// The joining owner.
        owner: u16,
    },
    /// Coordinator → owner `turn`: fold your block into pass `pass` of
    /// `fold`'s accumulator.
    Chain {
        /// Session id.
        session: u64,
        /// The statistic being folded.
        fold: Fold,
        /// Fold pass (1 = sums or extrema, 2 = centred moments).
        pass: u8,
        /// Owner whose turn it is.
        turn: u16,
        /// Serialized accumulator state.
        acc: Vec<u8>,
    },
    /// Owner `turn` → coordinator: the accumulator with my block folded in.
    ChainAck {
        /// Session id.
        session: u64,
        /// The statistic being folded.
        fold: Fold,
        /// Fold pass being acknowledged.
        pass: u8,
        /// The acknowledging owner.
        turn: u16,
        /// Serialized accumulator state.
        acc: Vec<u8>,
    },
    /// Coordinator → owners: the finished shared normalizer.
    SharedNormalization {
        /// Session id.
        session: u64,
        /// Serialized [`rbt_data::FittedNormalizer`].
        normalizer: Vec<u8>,
    },
    /// Coordinator → owners: rotate columns `(i, j)` by the drawn angle.
    /// The achieved perturbation variances ride along so every owner
    /// records the identical key step.
    ApplyRotation {
        /// Session id.
        session: u64,
        /// Pair index in pairing order.
        pair: u16,
        /// First attribute of the pair.
        i: u16,
        /// Second attribute of the pair.
        j: u16,
        /// The drawn rotation angle, degrees.
        theta_degrees: f64,
        /// Achieved `Var(Ai − Ai')`.
        achieved_var1: f64,
        /// Achieved `Var(Aj − Aj')`.
        achieved_var2: f64,
    },
    /// Coordinator → owners: the key fit is complete after `pairs`
    /// rotations (0 under [`crate::KeyPolicy::PerOwner`]) — release your
    /// block to the receiver. The pair count lets an owner that missed a
    /// rotation refuse to release under-rotated data.
    FitComplete {
        /// Session id.
        session: u64,
        /// Rotations every owner must have applied (shared-key mode).
        pairs: u16,
    },
    /// Owner → receiver: the owner's transformed, anonymized block.
    OwnerRelease {
        /// Session id.
        session: u64,
        /// The releasing owner.
        owner: u16,
        /// The transformed block (rows × shared attributes).
        matrix: Matrix,
    },
    /// Receiver → coordinator: the joint clustering summary.
    JointDataset {
        /// Session id.
        session: u64,
        /// The clustering summary.
        summary: JointSummary,
    },
}

const TAG_ANNOUNCE: u8 = 1;
const TAG_JOIN: u8 = 2;
const TAG_CHAIN: u8 = 3;
const TAG_CHAIN_ACK: u8 = 4;
const TAG_SHARED_NORMALIZATION: u8 = 5;
const TAG_APPLY_ROTATION: u8 = 6;
const TAG_FIT_COMPLETE: u8 = 7;
const TAG_OWNER_RELEASE: u8 = 8;
const TAG_JOINT_DATASET: u8 = 9;

/// Upper bound accepted for matrix and label counts while decoding. Counts
/// are also checked against the bytes present before anything is
/// allocated (`take_f64s`, `check_count`).
const MAX_DECODE_ELEMS: usize = 1 << 28;

/// Writes `m` as `rows (u64) · cols (u16) · row-major f64s`.
pub fn encode_matrix(m: &Matrix, w: &mut ByteWriter) {
    w.put_u64(m.rows() as u64);
    w.put_u16(m.cols() as u16);
    w.put_f64s(m.as_slice());
}

/// Reads a matrix written by [`encode_matrix`].
///
/// # Errors
///
/// [`DecodeError`] on truncation or an implausible element count.
pub fn decode_matrix(r: &mut ByteReader<'_>) -> DecodeResult<Matrix> {
    let offset = r.position();
    let rows = r.take_u64()? as usize;
    let cols = r.take_u16()? as usize;
    let elems = rows.checked_mul(cols).filter(|&e| e <= MAX_DECODE_ELEMS);
    let elems = elems.ok_or_else(|| DecodeError::Malformed {
        offset,
        message: format!("implausible matrix shape {rows}×{cols}"),
    })?;
    let data = r.take_f64s(elems)?;
    Matrix::from_vec(rows, cols, data).map_err(|e| DecodeError::Malformed {
        offset,
        message: e.to_string(),
    })
}

impl Message {
    /// The session id this message belongs to.
    pub fn session(&self) -> u64 {
        match self {
            Message::Announce { config } => config.session,
            Message::Join { session, .. }
            | Message::Chain { session, .. }
            | Message::ChainAck { session, .. }
            | Message::SharedNormalization { session, .. }
            | Message::ApplyRotation { session, .. }
            | Message::FitComplete { session, .. }
            | Message::OwnerRelease { session, .. }
            | Message::JointDataset { session, .. } => *session,
        }
    }

    /// A short human-readable label for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Announce { .. } => "Announce",
            Message::Join { .. } => "Join",
            Message::Chain { .. } => "Chain",
            Message::ChainAck { .. } => "ChainAck",
            Message::SharedNormalization { .. } => "SharedNormalization",
            Message::ApplyRotation { .. } => "ApplyRotation",
            Message::FitComplete { .. } => "FitComplete",
            Message::OwnerRelease { .. } => "OwnerRelease",
            Message::JointDataset { .. } => "JointDataset",
        }
    }

    /// Serializes the message: tagged body followed by a CRC-32 trailer.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Message::Announce { config } => {
                w.put_u8(TAG_ANNOUNCE);
                config.encode_into(&mut w);
            }
            Message::Join { session, owner } => {
                w.put_u8(TAG_JOIN);
                w.put_u64(*session);
                w.put_u16(*owner);
            }
            Message::Chain {
                session,
                fold,
                pass,
                turn,
                acc,
            }
            | Message::ChainAck {
                session,
                fold,
                pass,
                turn,
                acc,
            } => {
                let ack = matches!(self, Message::ChainAck { .. });
                w.put_u8(if ack { TAG_CHAIN_ACK } else { TAG_CHAIN });
                w.put_u64(*session);
                fold.encode_into(&mut w);
                w.put_u8(*pass);
                w.put_u16(*turn);
                w.put_blob(acc);
            }
            Message::SharedNormalization {
                session,
                normalizer,
            } => {
                w.put_u8(TAG_SHARED_NORMALIZATION);
                w.put_u64(*session);
                w.put_blob(normalizer);
            }
            Message::ApplyRotation {
                session,
                pair,
                i,
                j,
                theta_degrees,
                achieved_var1,
                achieved_var2,
            } => {
                w.put_u8(TAG_APPLY_ROTATION);
                w.put_u64(*session);
                w.put_u16(*pair);
                w.put_u16(*i);
                w.put_u16(*j);
                w.put_f64(*theta_degrees);
                w.put_f64(*achieved_var1);
                w.put_f64(*achieved_var2);
            }
            Message::FitComplete { session, pairs } => {
                w.put_u8(TAG_FIT_COMPLETE);
                w.put_u64(*session);
                w.put_u16(*pairs);
            }
            Message::OwnerRelease {
                session,
                owner,
                matrix,
            } => {
                w.put_u8(TAG_OWNER_RELEASE);
                w.put_u64(*session);
                w.put_u16(*owner);
                encode_matrix(matrix, &mut w);
            }
            Message::JointDataset { session, summary } => {
                w.put_u8(TAG_JOINT_DATASET);
                w.put_u64(*session);
                w.put_u64(summary.rows);
                w.put_u16(summary.cols);
                w.put_usize(summary.labels.len());
                for &l in &summary.labels {
                    w.put_u32(l);
                }
                w.put_f64(summary.inertia);
                w.put_u32(summary.iterations);
                w.put_bool(summary.converged);
            }
        }
        let crc = crc32(w.as_bytes());
        w.put_u32(crc);
        w.into_bytes()
    }

    /// Decodes a message written by [`encode`](Self::encode), verifying the
    /// CRC-32 trailer first.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation, checksum mismatch (corruption),
    /// unknown tag, or trailing garbage.
    pub fn decode(bytes: &[u8]) -> DecodeResult<Self> {
        if bytes.len() < 5 {
            return Err(DecodeError::Truncated {
                offset: 0,
                needed: 5,
                available: bytes.len(),
            });
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let expected = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        let actual = crc32(body);
        if expected != actual {
            return Err(DecodeError::Malformed {
                offset: body.len(),
                message: format!(
                    "message checksum mismatch: stored {expected:#010x}, computed {actual:#010x}"
                ),
            });
        }
        let mut r = ByteReader::new(body);
        let tag = r.take_u8()?;
        let msg = match tag {
            TAG_ANNOUNCE => Message::Announce {
                config: FederationConfig::decode_from(&mut r)?,
            },
            TAG_JOIN => Message::Join {
                session: r.take_u64()?,
                owner: r.take_u16()?,
            },
            TAG_CHAIN | TAG_CHAIN_ACK => {
                let session = r.take_u64()?;
                let fold = Fold::decode_from(&mut r)?;
                let (pass, turn) = (r.take_u8()?, r.take_u16()?);
                let acc = r.take_blob()?.to_vec();
                if tag == TAG_CHAIN {
                    Message::Chain {
                        session,
                        fold,
                        pass,
                        turn,
                        acc,
                    }
                } else {
                    Message::ChainAck {
                        session,
                        fold,
                        pass,
                        turn,
                        acc,
                    }
                }
            }
            TAG_SHARED_NORMALIZATION => Message::SharedNormalization {
                session: r.take_u64()?,
                normalizer: r.take_blob()?.to_vec(),
            },
            TAG_APPLY_ROTATION => Message::ApplyRotation {
                session: r.take_u64()?,
                pair: r.take_u16()?,
                i: r.take_u16()?,
                j: r.take_u16()?,
                theta_degrees: r.take_f64()?,
                achieved_var1: r.take_f64()?,
                achieved_var2: r.take_f64()?,
            },
            TAG_FIT_COMPLETE => Message::FitComplete {
                session: r.take_u64()?,
                pairs: r.take_u16()?,
            },
            TAG_OWNER_RELEASE => Message::OwnerRelease {
                session: r.take_u64()?,
                owner: r.take_u16()?,
                matrix: decode_matrix(&mut r)?,
            },
            TAG_JOINT_DATASET => {
                let session = r.take_u64()?;
                let rows = r.take_u64()?;
                let cols = r.take_u16()?;
                let offset = r.position();
                let n = r.take_usize()?;
                if n > MAX_DECODE_ELEMS || n as u64 != rows {
                    return Err(DecodeError::Malformed {
                        offset,
                        message: format!("implausible label count {n} for {rows} rows"),
                    });
                }
                // Each label is a u32: a count the remaining bytes cannot
                // hold is rejected before it sizes an allocation.
                r.check_count(n, 4)?;
                let mut labels = Vec::with_capacity(n);
                for _ in 0..n {
                    // A receiver's labels lie below its k, and an announced
                    // k is at most `MAX_KMEANS_K`: a reader may size a
                    // per-cluster table from them.
                    let offset = r.position();
                    let label = r.take_u32()?;
                    if label as usize >= MAX_KMEANS_K {
                        return Err(DecodeError::Malformed {
                            offset,
                            message: format!("label {label} is not below {MAX_KMEANS_K}"),
                        });
                    }
                    labels.push(label);
                }
                Message::JointDataset {
                    session,
                    summary: JointSummary {
                        rows,
                        cols,
                        labels,
                        inertia: r.take_f64()?,
                        iterations: r.take_u32()?,
                        converged: r.take_bool()?,
                    },
                }
            }
            other => {
                return Err(DecodeError::Malformed {
                    offset: 0,
                    message: format!("unknown message tag {other}"),
                })
            }
        };
        r.expect_end()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KeyPolicy;
    use rbt_core::{PairwiseSecurityThreshold, RbtConfig};
    use rbt_data::Normalization;

    fn sample_messages() -> Vec<Message> {
        let config = FederationConfig {
            session: 7,
            n_cols: 4,
            owners: 2,
            normalization: Normalization::min_max_unit(),
            rbt: RbtConfig::uniform(PairwiseSecurityThreshold::new(0.2, 0.2).unwrap()),
            key_policy: KeyPolicy::Shared,
            seed: 99,
            kmeans_k: 2,
            kmeans_max_iters: 50,
        };
        vec![
            Message::Announce { config },
            Message::Join {
                session: 7,
                owner: 1,
            },
            Message::Chain {
                session: 7,
                fold: Fold::Normalization,
                pass: 1,
                turn: 0,
                acc: vec![1, 2, 3],
            },
            Message::ChainAck {
                session: 7,
                fold: Fold::Normalization,
                pass: 2,
                turn: 1,
                acc: vec![],
            },
            Message::SharedNormalization {
                session: 7,
                normalizer: vec![9; 40],
            },
            Message::Chain {
                session: 7,
                fold: Fold::Pair {
                    pair: 1,
                    i: 2,
                    j: 3,
                },
                pass: 1,
                turn: 0,
                acc: vec![4, 5],
            },
            Message::ChainAck {
                session: 7,
                fold: Fold::Pair {
                    pair: 1,
                    i: 2,
                    j: 3,
                },
                pass: 2,
                turn: 1,
                acc: vec![6],
            },
            Message::ApplyRotation {
                session: 7,
                pair: 0,
                i: 0,
                j: 1,
                theta_degrees: 101.25,
                achieved_var1: 0.31,
                achieved_var2: 0.57,
            },
            Message::FitComplete {
                session: 7,
                pairs: 2,
            },
            Message::OwnerRelease {
                session: 7,
                owner: 0,
                matrix: Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap(),
            },
            Message::JointDataset {
                session: 7,
                summary: JointSummary {
                    rows: 2,
                    cols: 2,
                    labels: vec![0, 1],
                    inertia: 0.25,
                    iterations: 3,
                    converged: true,
                },
            },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in sample_messages() {
            let bytes = msg.encode();
            let back = Message::decode(&bytes)
                .unwrap_or_else(|e| panic!("{} failed to round-trip: {e}", msg.kind()));
            assert_eq!(back, msg, "{}", msg.kind());
            assert_eq!(back.session(), 7);
        }
    }

    #[test]
    fn any_single_byte_flip_is_detected() {
        for msg in sample_messages() {
            let bytes = msg.encode();
            // Flip one byte at a spread of positions, including the CRC
            // trailer itself: every flip must surface as a decode error.
            for pos in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[pos] ^= 0x41;
                assert!(
                    Message::decode(&bad).is_err(),
                    "{} byte {pos} flip went undetected",
                    msg.kind()
                );
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = Message::FitComplete {
            session: 7,
            pairs: 1,
        }
        .encode();
        for cut in 0..bytes.len() {
            assert!(Message::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    /// Re-seals `body` (an encoded message without its CRC trailer) with a
    /// valid CRC, so only the body's own defect can refuse it.
    fn sealed(body: &[u8]) -> Vec<u8> {
        let mut bytes = body.to_vec();
        bytes.extend_from_slice(&crc32(body).to_le_bytes());
        bytes
    }

    #[test]
    fn an_unknown_fold_tag_is_malformed() {
        let chain = Message::Chain {
            session: 7,
            fold: Fold::Normalization,
            pass: 1,
            turn: 0,
            acc: vec![1, 2, 3],
        }
        .encode();
        // tag (1) · session (8) · fold tag (1) · …
        let mut body = chain[..chain.len() - 4].to_vec();
        body[9] = 3;
        assert!(matches!(
            Message::decode(&sealed(&body)),
            Err(DecodeError::Malformed { offset: 9, .. })
        ));
    }

    #[test]
    fn joint_summaries_need_one_label_below_the_largest_k_per_row() {
        let joint = |rows: u64, labels: Vec<u32>| Message::JointDataset {
            session: 7,
            summary: JointSummary {
                rows,
                cols: 2,
                labels,
                inertia: 0.25,
                iterations: 3,
                converged: true,
            },
        };
        let top = MAX_KMEANS_K as u32 - 1;
        let valid = joint(3, vec![0, top, 1]);
        assert_eq!(Message::decode(&valid.encode()).unwrap(), valid);
        // tag (1) · session (8) · rows (8) · cols (2) · label count (8) at
        // offset 19 · u32 labels from offset 27.
        for (msg, offset) in [
            (joint(5, vec![0, 1]), 19),
            (joint(2, vec![0, 1, 1]), 19),
            (joint(2, vec![0, top + 1]), 31),
            (joint(1, vec![u32::MAX]), 27),
        ] {
            assert!(
                matches!(
                    Message::decode(&msg.encode()),
                    Err(DecodeError::Malformed { offset: o, .. }) if o == offset
                ),
                "{msg:?}"
            );
        }
    }

    #[test]
    fn matrix_decode_rejects_implausible_shapes() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        w.put_u16(u16::MAX);
        let bytes = w.into_bytes();
        assert!(decode_matrix(&mut ByteReader::new(&bytes)).is_err());
    }
}
