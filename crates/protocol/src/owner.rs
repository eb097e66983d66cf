//! The data-owner party: folds statistics, applies rotations, releases.
//!
//! An owner holds one horizontal partition (a block of rows over the
//! shared attributes). It never sends a raw row anywhere: its outbound
//! traffic is accumulator state (normalization and pair-moment folds) and,
//! at the very end, its **transformed** block.
//!
//! The owner is deliberately paranoid: each chain round must arrive for
//! the exact pass/turn/pair it expects, a rotation may only apply to the
//! pair currently being fit, and the final `FitComplete` must account for
//! every rotation the owner applied — otherwise releasing would ship
//! under-rotated (weakly protected, pooled-divergent) data, so the owner
//! errors out instead.
//!
//! Each announced rotation is applied exactly as the pooled fit applies
//! it: one `Rotation2::step` through the release sweep
//! ([`apply_steps_in_rows`]). The owner's rows therefore get the pooled
//! release's bits by construction.

use crate::config::{FederationConfig, KeyPolicy};
use crate::messages::{Message, Outbound, Party};
use crate::{ProtocolError, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rbt_core::{PairMoments, RbtTransformer, RotationStep, TransformationKey};
use rbt_data::{FittedNormalizer, PartialFit};
use rbt_linalg::codec::{ByteReader, ByteWriter};
use rbt_linalg::matrix::apply_steps_in_rows;
use rbt_linalg::{Matrix, Rotation2};

/// Phase of the owner's state machine.
#[derive(Debug)]
enum State {
    /// Waiting for the coordinator's `Announce`.
    AwaitAnnounce,
    /// Joined; participating in the normalization chain over **raw** rows.
    /// `folded_pass` is the highest pass already folded (0 initially).
    Joined {
        cfg: FederationConfig,
        folded_pass: u8,
    },
    /// Holds the normalized (and progressively rotated) local block.
    /// Under a shared key fit: `applied` rotations done so far,
    /// `folded_pass` the highest pass folded for the pair currently in
    /// flight, `steps` the rotation steps recorded so far.
    Fitting {
        cfg: FederationConfig,
        local: Matrix,
        applied: u16,
        folded_pass: u8,
        steps: Vec<RotationStep>,
    },
    /// Block released; terminal.
    Released,
}

impl State {
    fn name(&self) -> &'static str {
        match self {
            State::AwaitAnnounce => "AwaitAnnounce",
            State::Joined { .. } => "Joined",
            State::Fitting { .. } => "Fitting",
            State::Released => "Released",
        }
    }
}

/// The owner party.
#[derive(Debug)]
pub struct Owner {
    id: u16,
    session: u64,
    raw: Matrix,
    state: State,
    normalizer: Option<FittedNormalizer>,
    key: Option<TransformationKey>,
}

impl Owner {
    /// Creates owner `id` of session `session` holding partition `raw`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::ShapeMismatch`] for an empty partition.
    pub fn new(id: u16, session: u64, raw: Matrix) -> Result<Self> {
        if raw.rows() == 0 || raw.cols() == 0 {
            return Err(ProtocolError::ShapeMismatch(format!(
                "owner {id} has an empty partition ({}×{})",
                raw.rows(),
                raw.cols()
            )));
        }
        Ok(Owner {
            id,
            session,
            raw,
            state: State::AwaitAnnounce,
            normalizer: None,
            key: None,
        })
    }

    /// This owner's announced index.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// The owner's current phase, for diagnostics.
    pub fn state_name(&self) -> &'static str {
        self.state.name()
    }

    /// Whether the owner has released its block.
    pub fn is_released(&self) -> bool {
        matches!(self.state, State::Released)
    }

    /// The shared normalizer, once the coordinator has announced it.
    pub fn normalizer(&self) -> Option<&FittedNormalizer> {
        self.normalizer.as_ref()
    }

    /// The owner's transformation key, once fitted (shared or private).
    pub fn key(&self) -> Option<&TransformationKey> {
        self.key.as_ref()
    }

    fn unexpected(&self, message: &str) -> ProtocolError {
        ProtocolError::UnexpectedMessage {
            party: format!("owner {}", self.id),
            state: self.state.name().into(),
            message: message.into(),
        }
    }

    fn duplicate(&self, message: &str) -> ProtocolError {
        ProtocolError::DuplicateMessage {
            party: format!("owner {}", self.id),
            message: message.into(),
        }
    }

    /// Consumes one message, advancing the state machine.
    ///
    /// # Errors
    ///
    /// Typed [`ProtocolError`]s; after an error the owner refuses further
    /// progress rather than risk releasing divergent data.
    pub fn handle(&mut self, msg: &Message) -> Result<Vec<Outbound>> {
        if msg.session() != self.session {
            return Err(ProtocolError::SessionMismatch {
                expected: self.session,
                found: msg.session(),
            });
        }
        match msg {
            Message::Announce { config } => {
                if !matches!(self.state, State::AwaitAnnounce) {
                    return Err(self.duplicate(msg.kind()));
                }
                config.validate()?;
                if self.id >= config.owners {
                    return Err(ProtocolError::OwnerOutOfRange {
                        owner: self.id,
                        owners: config.owners,
                    });
                }
                if self.raw.cols() != config.n_cols {
                    return Err(ProtocolError::ShapeMismatch(format!(
                        "owner {} holds {} attributes, session announced {}",
                        self.id,
                        self.raw.cols(),
                        config.n_cols
                    )));
                }
                let rows = self.raw.rows() as u64;
                self.state = State::Joined {
                    cfg: config.clone(),
                    folded_pass: 0,
                };
                Ok(vec![Outbound::new(
                    Party::Coordinator,
                    Message::Join {
                        session: self.session,
                        owner: self.id,
                        rows,
                    },
                )])
            }
            Message::NormChain {
                pass, turn, acc, ..
            } => {
                let State::Joined { folded_pass, .. } = &mut self.state else {
                    return Err(self.unexpected(msg.kind()));
                };
                let folded = *folded_pass;
                if *turn != self.id {
                    return Err(self.unexpected(&format!(
                        "NormChain for owner {turn} delivered to owner {}",
                        self.id
                    )));
                }
                if *pass == folded {
                    return Err(self.duplicate(&format!("NormChain pass {pass}")));
                }
                if *pass != folded + 1 || *pass > 2 {
                    return Err(self.unexpected(&format!(
                        "NormChain pass {pass} after folding pass {folded}"
                    )));
                }
                let mut fit = ByteReader::decode_all(acc, PartialFit::decode_from)?;
                fit.fold(&self.raw).map_err(ProtocolError::Data)?;
                let pass = *pass;
                if let State::Joined { folded_pass, .. } = &mut self.state {
                    *folded_pass = pass;
                }
                Ok(vec![Outbound::new(
                    Party::Coordinator,
                    Message::NormChainAck {
                        session: self.session,
                        pass,
                        turn: self.id,
                        acc: ByteWriter::encode_with(|w| fit.encode_into(w)),
                    },
                )])
            }
            Message::SharedNormalization { normalizer, .. } => {
                let State::Joined { cfg, .. } = &self.state else {
                    return Err(self.unexpected(msg.kind()));
                };
                let cfg = cfg.clone();
                let fitted = ByteReader::decode_all(normalizer, FittedNormalizer::decode_from)?;
                if fitted.n_cols() != cfg.n_cols {
                    return Err(ProtocolError::ShapeMismatch(format!(
                        "shared normalizer covers {} attributes, session announced {}",
                        fitted.n_cols(),
                        cfg.n_cols
                    )));
                }
                let local = fitted.transform(&self.raw).map_err(ProtocolError::Data)?;
                self.normalizer = Some(fitted);
                self.state = State::Fitting {
                    cfg,
                    local,
                    applied: 0,
                    folded_pass: 0,
                    steps: Vec::new(),
                };
                Ok(Vec::new())
            }
            Message::PairChain {
                pair,
                i,
                j,
                pass,
                turn,
                acc,
                ..
            } => {
                let State::Fitting {
                    cfg,
                    local,
                    applied,
                    folded_pass,
                    ..
                } = &mut self.state
                else {
                    return Err(self.unexpected(msg.kind()));
                };
                if cfg.key_policy != KeyPolicy::Shared {
                    let e = self.unexpected("PairChain under a per-owner key policy");
                    return Err(e);
                }
                if *turn != self.id {
                    let e = self.unexpected(&format!(
                        "PairChain for owner {turn} delivered to owner {}",
                        self.id
                    ));
                    return Err(e);
                }
                if *pair < *applied {
                    let e = self.duplicate(&format!("PairChain for pair {pair}"));
                    return Err(e);
                }
                if *pair > *applied {
                    let (applied, pair) = (*applied, *pair);
                    let e = self.unexpected(&format!(
                        "PairChain for pair {pair} before pair {applied} was rotated"
                    ));
                    return Err(e);
                }
                if *pass == *folded_pass {
                    let e = self.duplicate(&format!("PairChain pair {pair} pass {pass}"));
                    return Err(e);
                }
                if *pass != *folded_pass + 1 || *pass > 2 {
                    let (folded, pass) = (*folded_pass, *pass);
                    let e = self.unexpected(&format!(
                        "PairChain pass {pass} after folding pass {folded}"
                    ));
                    return Err(e);
                }
                let (ci, cj) = (*i as usize, *j as usize);
                if ci >= cfg.n_cols || cj >= cfg.n_cols {
                    return Err(ProtocolError::ShapeMismatch(format!(
                        "pair ({ci}, {cj}) out of range for {} attributes",
                        cfg.n_cols
                    )));
                }
                let mut moments = ByteReader::decode_all(acc, PairMoments::decode_from)?;
                let mut xs = Vec::with_capacity(local.rows());
                let mut ys = Vec::with_capacity(local.rows());
                local.column_into(ci, &mut xs);
                local.column_into(cj, &mut ys);
                moments.fold(&xs, &ys).map_err(ProtocolError::Method)?;
                *folded_pass = *pass;
                Ok(vec![Outbound::new(
                    Party::Coordinator,
                    Message::PairChainAck {
                        session: self.session,
                        pair: *pair,
                        pass: *pass,
                        turn: self.id,
                        acc: ByteWriter::encode_with(|w| moments.encode_into(w)),
                    },
                )])
            }
            Message::ApplyRotation {
                pair,
                i,
                j,
                theta_degrees,
                achieved_var1,
                achieved_var2,
                ..
            } => {
                let State::Fitting {
                    cfg,
                    local,
                    applied,
                    folded_pass,
                    steps,
                } = &mut self.state
                else {
                    return Err(self.unexpected(msg.kind()));
                };
                if cfg.key_policy != KeyPolicy::Shared {
                    let e = self.unexpected("ApplyRotation under a per-owner key policy");
                    return Err(e);
                }
                if *pair < *applied {
                    let e = self.duplicate(&format!("ApplyRotation for pair {pair}"));
                    return Err(e);
                }
                if *pair > *applied || *folded_pass != 2 {
                    let (applied, folded) = (*applied, *folded_pass);
                    let e = self.unexpected(&format!(
                        "ApplyRotation for pair {pair} (applied {applied}, folded pass {folded})"
                    ));
                    return Err(e);
                }
                let (ci, cj, n_cols) = (*i as usize, *j as usize, local.cols());
                if ci >= n_cols || cj >= n_cols || ci == cj {
                    return Err(ProtocolError::ShapeMismatch(format!(
                        "rotation of pair ({ci}, {cj}) over {n_cols} attributes: a pair \
                         is two distinct attributes"
                    )));
                }
                // The pooled fit's primitive: the same 2×2 step through the
                // same sweep, so the same bits.
                let step = Rotation2::from_degrees(*theta_degrees).step(ci, cj);
                apply_steps_in_rows(local.as_mut_slice(), n_cols, &[step]);
                steps.push(RotationStep {
                    i: ci,
                    j: cj,
                    theta_degrees: *theta_degrees,
                    achieved_var1: *achieved_var1,
                    achieved_var2: *achieved_var2,
                });
                *applied += 1;
                *folded_pass = 0;
                Ok(Vec::new())
            }
            Message::FitComplete { pairs, .. } => {
                let State::Fitting {
                    cfg,
                    local,
                    applied,
                    folded_pass,
                    steps,
                } = &mut self.state
                else {
                    return Err(self.unexpected(msg.kind()));
                };
                match cfg.key_policy {
                    KeyPolicy::Shared => {
                        // Refuse to release under-rotated data: every
                        // announced rotation must have been applied, and no
                        // pair fold may be dangling.
                        if *applied != *pairs || *folded_pass != 0 {
                            let (applied, folded) = (*applied, *folded_pass);
                            let e = self.unexpected(&format!(
                                "FitComplete after {pairs} pairs, but owner applied {applied} \
                                 (dangling fold pass {folded})"
                            ));
                            return Err(e);
                        }
                        let key = TransformationKey::new(std::mem::take(steps), cfg.n_cols)
                            .map_err(ProtocolError::Method)?;
                        let released = std::mem::replace(local, Matrix::zeros(0, 0));
                        self.key = Some(key);
                        let out = Outbound::new(
                            Party::Receiver,
                            Message::OwnerRelease {
                                session: self.session,
                                owner: self.id,
                                matrix: released,
                            },
                        );
                        self.state = State::Released;
                        Ok(vec![out])
                    }
                    KeyPolicy::PerOwner => {
                        if *pairs != 0 {
                            let e = self.unexpected(&format!(
                                "FitComplete announced {pairs} shared pairs under a per-owner \
                                 key policy"
                            ));
                            return Err(e);
                        }
                        // Fit a private key on this partition alone, seeded
                        // from the announced seed and the owner id.
                        let mut rng = StdRng::seed_from_u64(cfg.owner_seed(self.id));
                        let transformer = RbtTransformer::new(cfg.rbt.clone());
                        let output = transformer
                            .transform(local, &mut rng)
                            .map_err(ProtocolError::Method)?;
                        self.key = Some(output.key);
                        let out = Outbound::new(
                            Party::Receiver,
                            Message::OwnerRelease {
                                session: self.session,
                                owner: self.id,
                                matrix: output.transformed,
                            },
                        );
                        self.state = State::Released;
                        Ok(vec![out])
                    }
                }
            }
            other => Err(self.unexpected(other.kind())),
        }
    }
}
