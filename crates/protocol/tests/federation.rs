//! The federated-release battery: golden bit-identity pins against the
//! pooled single-owner baseline, the 2–8 owner chaos harness, hub
//! round-trips, and the per-owner key policy.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rbt_cluster::{KMeans, KMeansInit};
use rbt_core::{PairingStrategy, PairwiseSecurityThreshold, Pipeline, RbtConfig};
use rbt_data::synth::GaussianMixture;
use rbt_data::{Dataset, Normalization};
use rbt_linalg::{Matrix, VarianceMode};
use rbt_protocol::{
    FaultPlan, FederationConfig, FederationHub, Fold, InProcessFederation, KeyPolicy, Message,
    ProtocolError,
};

/// The shared fixture: a well-separated 3-cluster Gaussian mixture —
/// enough rows that every partition of up to 8 owners keeps a healthy
/// block, deterministic by seed.
fn fixture(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let gm = GaussianMixture::well_separated(3, cols, 10.0, 1.2).unwrap();
    gm.sample(rows, &mut rng).matrix
}

/// Splits `m` into `n` contiguous row blocks (sizes deliberately uneven).
fn partition(m: &Matrix, n: usize) -> Vec<Matrix> {
    let rows = m.rows();
    let mut cuts = Vec::with_capacity(n + 1);
    cuts.push(0);
    for i in 1..n {
        // Uneven but deterministic cut points.
        cuts.push(rows * i * i / (n * n) + i);
    }
    cuts.push(rows);
    cuts.windows(2)
        .map(|w| {
            let rows_refs: Vec<&[f64]> = (w[0]..w[1]).map(|r| m.row(r)).collect();
            Matrix::from_rows(&rows_refs).unwrap()
        })
        .collect()
}

fn shared_config(session: u64, n_cols: usize, owners: u16, seed: u64) -> FederationConfig {
    FederationConfig {
        session,
        n_cols,
        owners,
        normalization: Normalization::zscore_paper(),
        rbt: RbtConfig::uniform(PairwiseSecurityThreshold::new(0.2, 0.2).unwrap()),
        key_policy: KeyPolicy::Shared,
        seed,
        kmeans_k: 3,
        kmeans_max_iters: 128,
    }
}

/// The pooled single-owner baseline the federation must reproduce
/// bit-for-bit: `Pipeline` (normalize → RBT) then first-k k-means, all
/// from the same seed.
fn pooled_baseline(pooled: &Matrix, cfg: &FederationConfig) -> (Matrix, Vec<usize>, f64) {
    let dataset = Dataset::from_matrix(pooled.clone());
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let out = Pipeline::new(cfg.rbt.clone())
        .with_normalization(cfg.normalization)
        .run(&dataset, &mut rng)
        .unwrap();
    let kmeans = KMeans::new(cfg.kmeans_k)
        .unwrap()
        .with_init(KMeansInit::FirstK)
        .with_max_iters(cfg.kmeans_max_iters);
    let mut krng = StdRng::seed_from_u64(cfg.seed);
    let fit = kmeans.fit(out.released.matrix(), &mut krng).unwrap();
    (out.released.matrix().clone(), fit.labels, fit.inertia)
}

fn assert_bitwise_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: value bits");
    }
}

/// Golden pin: for N ∈ {2, 3} the federated joint release and joint
/// k-means are bit-identical to the pooled baseline.
#[test]
fn federated_release_bitwise_matches_pooled_baseline() {
    let pooled = fixture(211, 5, 7);
    for owners in [2u16, 3] {
        let cfg = shared_config(0x5e55_1000 + u64::from(owners), 5, owners, 4242);
        let (baseline_matrix, baseline_labels, baseline_inertia) = pooled_baseline(&pooled, &cfg);
        let baseline_normalizer = cfg.normalization.fit(&pooled).unwrap();

        let parts = partition(&pooled, owners as usize);
        let run = InProcessFederation::new(cfg, parts).unwrap().run().unwrap();

        assert_bitwise_eq(
            &run.result.matrix,
            &baseline_matrix,
            &format!("{owners}-owner joint release"),
        );
        assert_eq!(run.result.labels, baseline_labels, "{owners}-owner labels");
        assert_eq!(
            run.result.inertia.to_bits(),
            baseline_inertia.to_bits(),
            "{owners}-owner inertia bits"
        );
        assert!(run.coordinator.is_finished());
        // Every owner independently reconstructed the same shared key, and
        // holds the pooled fit's normalizer.
        for owner in &run.owners {
            assert_eq!(owner.key(), run.coordinator.key());
            assert_eq!(owner.normalizer(), Some(&baseline_normalizer));
        }
    }
}

/// The pin holds across pairing strategies, normalizations (including an
/// odd attribute count with a re-distorted column), variance divisors, and
/// owner counts.
#[test]
fn pin_holds_across_configs_and_owner_counts() {
    let cases = [
        // Scaled-down thresholds for the unit-range normalizations, where
        // column variances are far below the z-score scale.
        (
            5usize,
            Normalization::min_max_unit(),
            PairingStrategy::Sequential,
            4u16,
            0.005,
            VarianceMode::Sample,
        ),
        (
            4,
            Normalization::zscore_paper(),
            PairingStrategy::RandomShuffle,
            3,
            0.2,
            VarianceMode::Sample,
        ),
        (
            6,
            Normalization::DecimalScaling,
            PairingStrategy::Sequential,
            5,
            0.002,
            VarianceMode::Sample,
        ),
        (
            4,
            Normalization::zscore_paper(),
            PairingStrategy::Explicit(vec![(2, 0), (1, 3)]),
            2,
            0.2,
            VarianceMode::Sample,
        ),
        // The population divisor, in both the normalization fit and the
        // pair moments.
        (
            5,
            Normalization::ZScore {
                mode: VarianceMode::Population,
            },
            PairingStrategy::Sequential,
            3,
            0.2,
            VarianceMode::Population,
        ),
    ];
    for (idx, (cols, norm, pairing, owners, rho, mode)) in cases.into_iter().enumerate() {
        let pooled = fixture(140 + idx * 17, cols, 100 + idx as u64);
        let mut cfg = shared_config(0xcafe + idx as u64, cols, owners, 9000 + idx as u64);
        cfg.normalization = norm;
        cfg.rbt = RbtConfig::uniform(PairwiseSecurityThreshold::new(rho, rho).unwrap())
            .with_pairing(pairing)
            .with_variance_mode(mode);
        let (baseline_matrix, baseline_labels, _) = pooled_baseline(&pooled, &cfg);
        let baseline_normalizer = cfg.normalization.fit(&pooled).unwrap();
        let parts = partition(&pooled, owners as usize);
        let run = InProcessFederation::new(cfg, parts).unwrap().run().unwrap();
        assert_bitwise_eq(&run.result.matrix, &baseline_matrix, &format!("case {idx}"));
        assert_eq!(run.result.labels, baseline_labels, "case {idx}");
        for owner in &run.owners {
            assert_eq!(owner.normalizer(), Some(&baseline_normalizer), "case {idx}");
        }
    }
}

/// Owner block boundaries are reported faithfully.
#[test]
fn owner_ranges_cover_the_joint_matrix_in_order() {
    let pooled = fixture(97, 4, 3);
    let cfg = shared_config(0xab, 4, 3, 77);
    let parts = partition(&pooled, 3);
    let sizes: Vec<usize> = parts.iter().map(|p| p.rows()).collect();
    let run = InProcessFederation::new(cfg, parts).unwrap().run().unwrap();
    let mut offset = 0;
    for (range, size) in run.result.owner_ranges.iter().zip(&sizes) {
        assert_eq!(range.start, offset);
        assert_eq!(range.len(), *size);
        offset = range.end;
    }
    assert_eq!(offset, run.result.matrix.rows());
}

/// Under the per-owner key policy the protocol completes, every owner
/// holds a *different* key, and the release diverges from the pooled
/// shared-key baseline (it must — blocks are rotated independently).
#[test]
fn per_owner_policy_yields_distinct_keys() {
    let pooled = fixture(150, 4, 11);
    let mut cfg = shared_config(0xdead, 4, 3, 2025);
    cfg.key_policy = KeyPolicy::PerOwner;
    let parts = partition(&pooled, 3);
    let run = InProcessFederation::new(cfg.clone(), parts)
        .unwrap()
        .run()
        .unwrap();
    assert!(run.coordinator.is_finished());
    assert!(run.coordinator.key().is_none());
    let keys: Vec<_> = run.owners.iter().map(|o| o.key().unwrap()).collect();
    assert_ne!(keys[0], keys[1]);
    assert_ne!(keys[1], keys[2]);
    let (baseline_matrix, _, _) = pooled_baseline(&pooled, &cfg);
    assert_eq!(run.result.matrix.shape(), baseline_matrix.shape());
    let diverges = run
        .result
        .matrix
        .as_slice()
        .iter()
        .zip(baseline_matrix.as_slice())
        .any(|(a, b)| a.to_bits() != b.to_bits());
    assert!(
        diverges,
        "per-owner keys must not reproduce the shared-key release"
    );
}

/// The chaos battery: 2–8 owners under every fault mix. Every run either
/// fails with a typed protocol error or completes with a joint dataset
/// bit-identical to the clean pooled baseline — never silently divergent.
#[test]
fn chaos_battery_never_yields_divergent_data() {
    let pooled = fixture(180, 4, 19);
    let mut completed = 0usize;
    let mut failed = 0usize;
    for owners in 2u16..=8 {
        let cfg = shared_config(0xc4a0 + u64::from(owners), 4, owners, 31337);
        let (baseline_matrix, baseline_labels, _) = pooled_baseline(&pooled, &cfg);
        for fault_seed in 0..12u64 {
            // ~0.4% per fault kind per delivery: low enough that some runs
            // survive untouched (or with harmless reorders), high enough
            // that most runs hit a fault across a few dozen deliveries.
            let plan = FaultPlan::uniform(fault_seed, 4);
            let parts = partition(&pooled, owners as usize);
            let fed = InProcessFederation::new(cfg.clone(), parts)
                .unwrap()
                .with_fault_plan(plan);
            match fed.run() {
                Ok(run) => {
                    completed += 1;
                    assert_bitwise_eq(
                        &run.result.matrix,
                        &baseline_matrix,
                        &format!("{owners} owners, fault seed {fault_seed}"),
                    );
                    assert_eq!(run.result.labels, baseline_labels);
                }
                Err(e) => {
                    failed += 1;
                    // Every failure is a *typed* protocol error with a
                    // printable description.
                    assert!(matches!(
                        e,
                        ProtocolError::UnexpectedMessage { .. }
                            | ProtocolError::DuplicateMessage { .. }
                            | ProtocolError::Decode(_)
                            | ProtocolError::SessionMismatch { .. }
                            | ProtocolError::Stalled { .. }
                            | ProtocolError::ShapeMismatch(..)
                            | ProtocolError::OwnerOutOfRange { .. }
                            | ProtocolError::Data(_)
                            | ProtocolError::Method(_)
                            | ProtocolError::Cluster(_)
                    ));
                    assert!(!e.to_string().is_empty());
                }
            }
        }
    }
    // The per-delivery fault rate is 2.5% per kind: across 7 × 12 runs
    // both outcomes must occur, or the battery isn't testing anything.
    assert!(completed > 0, "no chaos run completed");
    assert!(failed > 0, "no chaos run hit a fault");
}

/// Dropping a single specific message stalls the protocol with a typed
/// error (no timeout, no wrong data).
#[test]
fn dropped_message_stalls_with_typed_error() {
    let pooled = fixture(90, 4, 23);
    let cfg = shared_config(0xd20b, 4, 2, 55);
    let parts = partition(&pooled, 2);
    // Drop-only plan with a high rate: some delivery will be dropped.
    let plan = FaultPlan {
        seed: 3,
        drop_per_mille: 300,
        duplicate_per_mille: 0,
        reorder_per_mille: 0,
        corrupt_per_mille: 0,
    };
    let err = InProcessFederation::new(cfg, parts)
        .unwrap()
        .with_fault_plan(plan)
        .run()
        .unwrap_err();
    assert!(
        matches!(
            err,
            ProtocolError::Stalled { .. }
                | ProtocolError::UnexpectedMessage { .. }
                | ProtocolError::DuplicateMessage { .. }
        ),
        "unexpected failure mode: {err}"
    );
}

/// The hub drives the same protocol through per-owner mailboxes (the
/// server's request/response shape) and reproduces the pooled baseline.
#[test]
fn hub_mailbox_flow_matches_pooled_baseline() {
    let pooled = fixture(120, 5, 29);
    let cfg = shared_config(0x44b, 5, 3, 808);
    let (baseline_matrix, baseline_labels, _) = pooled_baseline(&pooled, &cfg);
    let parts = partition(&pooled, 3);

    let mut hub = FederationHub::new(4);
    hub.open(cfg.clone()).unwrap();
    let mut owners: Vec<rbt_protocol::Owner> = parts
        .into_iter()
        .enumerate()
        .map(|(i, m)| rbt_protocol::Owner::new(i as u16, cfg.session, m).unwrap())
        .collect();

    // Owner-side client loop: poll the mailbox, feed the owner state
    // machine, send its replies back. Round-robin until the hub reports a
    // result.
    let mut outbox: Vec<Vec<Message>> = vec![Vec::new(); owners.len()];
    for _ in 0..10_000 {
        if hub.result(cfg.session).unwrap().is_some() {
            break;
        }
        for (i, owner) in owners.iter_mut().enumerate() {
            let inbound = std::mem::take(&mut outbox[i]);
            let delivered = hub.exchange(cfg.session, i as u16, inbound).unwrap();
            for msg in delivered {
                // Round-trip the codec, as the wire would.
                let msg = Message::decode(&msg.encode()).unwrap();
                for out in owner.handle(&msg).unwrap() {
                    outbox[i].push(out.msg);
                }
            }
        }
    }
    let summary = hub
        .result(cfg.session)
        .unwrap()
        .expect("hub session incomplete")
        .clone();
    assert_eq!(summary.rows as usize, pooled.rows());
    let joint = hub.joint_result(cfg.session).unwrap().unwrap();
    assert_bitwise_eq(&joint.matrix, &baseline_matrix, "hub joint release");
    assert_eq!(joint.labels, baseline_labels);
    assert!(hub.close(cfg.session));
    assert!(matches!(
        hub.result(cfg.session),
        Err(ProtocolError::UnknownSession(_))
    ));
}

/// Hub session bookkeeping: duplicate ids, capacity, unknown sessions,
/// and poisoning after a protocol violation.
#[test]
fn hub_rejects_duplicates_capacity_and_poisons_failed_sessions() {
    let cfg = shared_config(1, 4, 2, 9);
    let mut hub = FederationHub::new(1);
    hub.open(cfg.clone()).unwrap();
    assert!(matches!(
        hub.open(cfg.clone()),
        Err(ProtocolError::SessionExists(1))
    ));
    let cfg2 = shared_config(2, 4, 2, 9);
    assert!(matches!(
        hub.open(cfg2),
        Err(ProtocolError::InvalidConfig(_))
    ));
    assert!(matches!(
        hub.exchange(3, 0, Vec::new()),
        Err(ProtocolError::UnknownSession(3))
    ));
    assert!(matches!(
        hub.exchange(1, 9, Vec::new()),
        Err(ProtocolError::OwnerOutOfRange { .. })
    ));

    // A message claiming another owner's identity is rejected without
    // poisoning the session: impersonation can't stall honest owners.
    let err = hub
        .exchange(
            1,
            0,
            vec![Message::Join {
                session: 1,
                owner: 1,
            }],
        )
        .unwrap_err();
    assert!(matches!(
        err,
        ProtocolError::OwnerMismatch {
            claimed: 1,
            exchanging: 0
        }
    ));
    assert!(hub.exchange(1, 0, Vec::new()).is_ok());

    // An actual protocol violation (duplicate Join) poisons the session...
    let join = Message::Join {
        session: 1,
        owner: 0,
    };
    let err = hub.exchange(1, 0, vec![join.clone(), join]).unwrap_err();
    assert!(matches!(err, ProtocolError::DuplicateMessage { .. }));
    // ...and the poison is sticky.
    assert!(hub.exchange(1, 0, Vec::new()).is_err());
    assert!(hub.result(1).is_err());
    assert!(hub.close(1));
}

/// A full hub reclaims slots held by poisoned or idle-expired sessions
/// instead of refusing federation service forever.
#[test]
fn hub_evicts_failed_and_idle_sessions_under_capacity_pressure() {
    // Poisoned session: evicted when a new open needs the slot.
    let mut hub = FederationHub::new(1);
    hub.open(shared_config(1, 4, 2, 9)).unwrap();
    let join = Message::Join {
        session: 1,
        owner: 0,
    };
    hub.exchange(1, 0, vec![join.clone(), join]).unwrap_err();
    hub.open(shared_config(2, 4, 2, 9))
        .expect("failed session must not hold the slot");
    assert!(matches!(
        hub.exchange(1, 0, Vec::new()),
        Err(ProtocolError::UnknownSession(1))
    ));
    assert!(hub.exchange(2, 0, Vec::new()).is_ok());

    // Idle session: with a zero TTL every untouched session is expired,
    // so a healthy-but-abandoned open cannot block the next one either.
    let mut hub = FederationHub::new(1).with_idle_ttl(std::time::Duration::ZERO);
    hub.open(shared_config(3, 4, 2, 9)).unwrap();
    hub.open(shared_config(4, 4, 2, 9))
        .expect("idle-expired session must not hold the slot");
    assert!(matches!(
        hub.exchange(3, 0, Vec::new()),
        Err(ProtocolError::UnknownSession(3))
    ));
}

/// Session ids are checked by every party.
#[test]
fn cross_session_messages_are_rejected() {
    let cfg = shared_config(10, 4, 2, 1);
    let mut coordinator = rbt_protocol::Coordinator::new(cfg.clone()).unwrap();
    coordinator.start().unwrap();
    let err = coordinator
        .handle(&Message::Join {
            session: 11,
            owner: 0,
        })
        .unwrap_err();
    assert!(matches!(
        err,
        ProtocolError::SessionMismatch {
            expected: 10,
            found: 11
        }
    ));
}

/// An owner refuses a rotation whose pair is out of range or pairs a
/// column with itself, with a typed shape error and no panic.
#[test]
fn owner_refuses_rotations_of_malformed_pairs() {
    use rbt_core::PairMoments;
    use rbt_linalg::codec::ByteWriter;

    let cfg = shared_config(12, 4, 2, 3);
    let block = fixture(30, 4, 5);
    let normalizer = cfg.normalization.fit(&block).unwrap();
    for (i, j) in [(0u16, 4u16), (2, 2)] {
        // Joined, normalized, then both folds of pair 0 over (0, 1): the
        // owner now expects pair 0's rotation.
        let mut owner = rbt_protocol::Owner::new(0, cfg.session, block.clone()).unwrap();
        owner
            .handle(&Message::Announce {
                config: cfg.clone(),
            })
            .unwrap();
        owner
            .handle(&Message::SharedNormalization {
                session: cfg.session,
                normalizer: ByteWriter::encode_with(|w| normalizer.encode_into(w)),
            })
            .unwrap();
        for pass in [1u8, 2] {
            owner
                .handle(&Message::Chain {
                    session: cfg.session,
                    fold: Fold::Pair {
                        pair: 0,
                        i: 0,
                        j: 1,
                    },
                    pass,
                    turn: 0,
                    acc: ByteWriter::encode_with(|w| PairMoments::new().encode_into(w)),
                })
                .unwrap();
        }
        let refused = owner
            .handle(&Message::ApplyRotation {
                session: cfg.session,
                pair: 0,
                i,
                j,
                theta_degrees: 147.29,
                achieved_var1: 1.0,
                achieved_var2: 1.0,
            })
            .unwrap_err();
        assert!(
            matches!(refused, ProtocolError::ShapeMismatch(_)),
            "({i}, {j}): {refused:?}"
        );
    }
}

/// Drives a hub session the way a polling owner client does (perfbench's
/// `federate` workload): every round each owner exchanges once, in owner
/// order, delivering the replies it produced on its previous exchange;
/// once every outbox is empty the client asks for the result. Returns the
/// joint result, each owner's (received, sent) message counts, and the
/// exchanges the session took.
fn drive_hub(
    cfg: &FederationConfig,
    parts: Vec<Matrix>,
) -> (rbt_protocol::JointResult, Vec<(usize, usize)>, usize) {
    let mut hub = FederationHub::new(1);
    hub.open(cfg.clone()).unwrap();
    let mut owners: Vec<rbt_protocol::Owner> = parts
        .into_iter()
        .enumerate()
        .map(|(i, m)| rbt_protocol::Owner::new(i as u16, cfg.session, m).unwrap())
        .collect();
    let mut outbox: Vec<Vec<Message>> = vec![Vec::new(); owners.len()];
    let mut counts = vec![(0usize, 0usize); owners.len()];
    let mut exchanges = 0usize;
    for _ in 0..10_000 {
        for (i, owner) in owners.iter_mut().enumerate() {
            let inbound = std::mem::take(&mut outbox[i]);
            counts[i].1 += inbound.len();
            let delivered = hub.exchange(cfg.session, i as u16, inbound).unwrap();
            exchanges += 1;
            counts[i].0 += delivered.len();
            for msg in delivered {
                let msg = Message::decode(&msg.encode()).unwrap();
                outbox[i].extend(owner.handle(&msg).unwrap().into_iter().map(|o| o.msg));
            }
        }
        if outbox.iter().all(Vec::is_empty) && hub.result(cfg.session).unwrap().is_some() {
            let joint = hub.joint_result(cfg.session).unwrap().unwrap().clone();
            return (joint, counts, exchanges);
        }
    }
    panic!("hub session {:#x} stalled", cfg.session);
}

/// The round schedule: each owner takes one message per round from the
/// hub and answers it with at most one. Owner i receives `Announce`, P
/// normalization folds, `SharedNormalization`, two folds and one
/// `ApplyRotation` per shared pair, and `FitComplete` (3 + P + 3p); it
/// sends `Join`, one ack per fold and its release (2 + P + 2p). P is 2
/// for z-score, 1 for min-max; p is ⌈n/2⌉ under the shared key and 0
/// under the per-owner policy. The exchanges a polling client makes per
/// session are pinned too (376 at 4 owners × 16 columns is perfbench
/// `federate`'s `hub.exchanges_per_session`).
#[test]
fn every_owner_takes_one_message_per_round() {
    let cases = [
        (2u16, 16usize, Normalization::zscore_paper(), 0.2, [116, 20]),
        (4, 16, Normalization::zscore_paper(), 0.2, [376, 56]),
        (4, 5, Normalization::min_max_unit(), 0.005, [156, 36]),
        (3, 5, Normalization::zscore_paper(), 0.2, [108, 36]),
    ];
    for (idx, (owners, cols, norm, rho, exchanges)) in cases.into_iter().enumerate() {
        let pooled = fixture(120, cols, 500 + idx as u64);
        let passes = if norm.begin_partial_fit(cols).unwrap().needs_second_pass() {
            2
        } else {
            1
        };
        for (policy, want_exchanges) in [KeyPolicy::Shared, KeyPolicy::PerOwner]
            .into_iter()
            .zip(exchanges)
        {
            let what = format!("{owners} owners × {cols} columns, {norm:?}, {policy:?}");
            let mut cfg = shared_config(0x0e40 + idx as u64, cols, owners, 600 + idx as u64);
            cfg.normalization = norm;
            cfg.rbt = RbtConfig::uniform(PairwiseSecurityThreshold::new(rho, rho).unwrap());
            cfg.key_policy = policy;
            let pairs = match policy {
                KeyPolicy::Shared => cols.div_ceil(2),
                _ => 0,
            };
            let (joint, counts, taken) = drive_hub(&cfg, partition(&pooled, owners as usize));
            for (owner, &(received, sent)) in counts.iter().enumerate() {
                assert_eq!(
                    (received, sent),
                    (3 + passes + 3 * pairs, 2 + passes + 2 * pairs),
                    "{what}: owner {owner} (received, sent)"
                );
            }
            assert_eq!(taken, want_exchanges, "{what}: exchanges per session");
            if policy == KeyPolicy::Shared {
                let (_, labels, inertia) = pooled_baseline(&pooled, &cfg);
                assert_eq!(joint.labels, labels, "{what}: labels");
                assert_eq!(joint.inertia.to_bits(), inertia.to_bits(), "{what}");
            }
        }
    }
}

/// The chained folds' messages, built in one place.
fn norm_chain(session: u64, pass: u8, turn: u16, acc: Vec<u8>) -> Message {
    Message::Chain {
        session,
        fold: Fold::Normalization,
        pass,
        turn,
        acc,
    }
}

fn norm_ack(session: u64, pass: u8, turn: u16, acc: Vec<u8>) -> Message {
    Message::ChainAck {
        session,
        fold: Fold::Normalization,
        pass,
        turn,
        acc,
    }
}

fn pair_chain(session: u64, pair: (u16, u16, u16), pass: u8, turn: u16, acc: Vec<u8>) -> Message {
    let (pair, i, j) = pair;
    Message::Chain {
        session,
        fold: Fold::Pair { pair, i, j },
        pass,
        turn,
        acc,
    }
}

fn pair_ack(session: u64, pair: (u16, u16, u16), pass: u8, turn: u16, acc: Vec<u8>) -> Message {
    let (pair, i, j) = pair;
    Message::ChainAck {
        session,
        fold: Fold::Pair { pair, i, j },
        pass,
        turn,
        acc,
    }
}

/// Each refusal of a chained fold keeps its typed error: a turn, pass or
/// pair out of order or repeated, a fold the party's state cannot take,
/// and pair columns out of range.
#[test]
fn chain_turns_out_of_order_are_refused_with_their_typed_error() {
    use rbt_core::PairMoments;
    use rbt_linalg::codec::ByteWriter;

    let cfg = shared_config(0x0c4a, 4, 2, 3);
    let mut per_owner = cfg.clone();
    per_owner.key_policy = KeyPolicy::PerOwner;
    let s = cfg.session;
    let block = fixture(30, 4, 5);
    let norm = || {
        let fit = cfg.normalization.begin_partial_fit(4).unwrap();
        ByteWriter::encode_with(|w| fit.encode_into(w))
    };
    let moments = || ByteWriter::encode_with(|w| PairMoments::new().encode_into(w));
    let normalizer = cfg.normalization.fit(&block).unwrap();
    let shared = Message::SharedNormalization {
        session: s,
        normalizer: ByteWriter::encode_with(|w| normalizer.encode_into(w)),
    };
    let (pair0, pair1) = ((0, 0, 1), (1, 2, 3));
    let rotate0 = Message::ApplyRotation {
        session: s,
        pair: 0,
        i: 0,
        j: 1,
        theta_degrees: 147.29,
        achieved_var1: 1.0,
        achieved_var2: 1.0,
    };
    let announce = |cfg: &FederationConfig| Message::Announce {
        config: cfg.clone(),
    };
    let joined = || vec![announce(&cfg)];
    let fitting = || vec![announce(&cfg), shared.clone()];
    let fitting_then = |more: Vec<Message>| [fitting(), more].concat();

    #[derive(Debug, PartialEq)]
    enum Refusal {
        Unexpected,
        Duplicate,
        Shape,
    }
    use Refusal::*;
    // Owner 1 of 2, so turn 0 is another owner's.
    let owner_cases = [
        (
            "a normalization fold of another owner's turn",
            joined(),
            norm_chain(s, 1, 0, norm()),
            Unexpected,
        ),
        (
            "normalization pass 2 before pass 1",
            joined(),
            norm_chain(s, 2, 1, norm()),
            Unexpected,
        ),
        (
            "normalization pass 1 twice",
            [joined(), vec![norm_chain(s, 1, 1, norm())]].concat(),
            norm_chain(s, 1, 1, norm()),
            Duplicate,
        ),
        (
            "normalization pass 2 twice",
            [
                joined(),
                vec![norm_chain(s, 1, 1, norm()), norm_chain(s, 2, 1, norm())],
            ]
            .concat(),
            norm_chain(s, 2, 1, norm()),
            Duplicate,
        ),
        (
            "normalization pass 3",
            [
                joined(),
                vec![norm_chain(s, 1, 1, norm()), norm_chain(s, 2, 1, norm())],
            ]
            .concat(),
            norm_chain(s, 3, 1, norm()),
            Unexpected,
        ),
        (
            "a normalization fold after the shared normalizer",
            fitting(),
            norm_chain(s, 1, 1, norm()),
            Unexpected,
        ),
        (
            "a pair fold before the shared normalizer",
            joined(),
            pair_chain(s, pair0, 1, 1, moments()),
            Unexpected,
        ),
        (
            "a pair fold of another owner's turn",
            fitting(),
            pair_chain(s, pair0, 1, 0, moments()),
            Unexpected,
        ),
        (
            "pair pass 2 before pass 1",
            fitting(),
            pair_chain(s, pair0, 2, 1, moments()),
            Unexpected,
        ),
        (
            "a pair not reached yet",
            fitting(),
            pair_chain(s, pair1, 1, 1, moments()),
            Unexpected,
        ),
        (
            "pair pass 1 twice",
            fitting_then(vec![pair_chain(s, pair0, 1, 1, moments())]),
            pair_chain(s, pair0, 1, 1, moments()),
            Duplicate,
        ),
        (
            "a pair already rotated",
            fitting_then(vec![
                pair_chain(s, pair0, 1, 1, moments()),
                pair_chain(s, pair0, 2, 1, moments()),
                rotate0.clone(),
            ]),
            pair_chain(s, pair0, 1, 1, moments()),
            Duplicate,
        ),
        (
            "pair columns out of range",
            fitting(),
            pair_chain(s, (0, 0, 4), 1, 1, moments()),
            Shape,
        ),
        (
            "a pair fold under the per-owner policy",
            vec![announce(&per_owner), shared.clone()],
            pair_chain(s, pair0, 1, 1, moments()),
            Unexpected,
        ),
    ];
    for (what, setup, offending, want) in owner_cases {
        let mut owner = rbt_protocol::Owner::new(1, s, block.clone()).unwrap();
        for msg in &setup {
            owner
                .handle(msg)
                .unwrap_or_else(|e| panic!("{what}: setup refused: {e}"));
        }
        let err = owner.handle(&offending).expect_err(what);
        let got = match err {
            ProtocolError::UnexpectedMessage { .. } => Unexpected,
            ProtocolError::DuplicateMessage { .. } => Duplicate,
            ProtocolError::ShapeMismatch(_) => Shape,
            ref other => panic!("{what}: {other:?}"),
        };
        assert_eq!(got, want, "{what}: {err}");
    }

    let join = |owner| Message::Join { session: s, owner };
    let coordinator_cases = [
        (
            "an ack before every owner joined",
            vec![join(0)],
            norm_ack(s, 1, 0, norm()),
        ),
        (
            "an ack out of turn",
            vec![join(0), join(1)],
            norm_ack(s, 1, 1, norm()),
        ),
        (
            "an ack for the wrong pass",
            vec![join(0), join(1)],
            norm_ack(s, 2, 0, norm()),
        ),
        (
            "a pair ack while the normalizer is in flight",
            vec![join(0), join(1)],
            pair_ack(s, pair0, 1, 0, moments()),
        ),
    ];
    for (what, setup, offending) in coordinator_cases {
        let mut coordinator = rbt_protocol::Coordinator::new(cfg.clone()).unwrap();
        coordinator.start().unwrap();
        for msg in &setup {
            coordinator.handle(msg).unwrap();
        }
        let err = coordinator.handle(&offending).expect_err(what);
        assert!(
            matches!(err, ProtocolError::UnexpectedMessage { .. }),
            "{what}: {err:?}"
        );
    }
}

/// The coordinator compares each ack with the fold in flight in every
/// field: an ack of the right pair over other columns, of another pair
/// over the right columns, or of the other statistic is refused, and the
/// matching ack still goes through.
#[test]
fn chain_acks_must_match_the_fold_in_flight_in_every_field() {
    let cfg = shared_config(0x0f1d, 4, 2, 8);
    let mut coordinator = rbt_protocol::Coordinator::new(cfg.clone()).unwrap();
    let mut owners: Vec<rbt_protocol::Owner> = partition(&fixture(40, 4, 9), 2)
        .into_iter()
        .enumerate()
        .map(|(i, m)| rbt_protocol::Owner::new(i as u16, cfg.session, m).unwrap())
        .collect();
    let mut queue: std::collections::VecDeque<rbt_protocol::Outbound> =
        coordinator.start().unwrap().into();
    // Deliver until owner 0 acks the first pair fold.
    let ack = 'deliver: loop {
        let out = queue.pop_front().expect("the session reaches a pair fold");
        let rbt_protocol::Party::Owner(o) = out.to else {
            continue; // the receiver takes no part before the release
        };
        for reply in owners[o as usize].handle(&out.msg).unwrap() {
            if let Message::ChainAck {
                fold: Fold::Pair { .. },
                ..
            } = reply.msg
            {
                break 'deliver reply.msg;
            }
            queue.extend(coordinator.handle(&reply.msg).unwrap());
        }
    };
    let Message::ChainAck {
        session,
        fold: Fold::Pair { pair, i, j },
        pass,
        turn,
        ref acc,
    } = ack
    else {
        unreachable!("the loop breaks on a pair fold's ack");
    };
    let forgeries = [
        Fold::Pair { pair, i: j, j: i },
        Fold::Pair {
            pair: pair + 1,
            i,
            j,
        },
        Fold::Normalization,
    ];
    for fold in forgeries {
        let forged = Message::ChainAck {
            session,
            fold,
            pass,
            turn,
            acc: acc.clone(),
        };
        let err = coordinator.handle(&forged).unwrap_err();
        assert!(
            matches!(err, ProtocolError::UnexpectedMessage { .. }),
            "{fold}: {err:?}"
        );
    }
    assert!(coordinator.handle(&ack).is_ok());
}
