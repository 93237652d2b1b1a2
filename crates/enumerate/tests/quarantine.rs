//! Fault-boundary tests that need no fail-point feature: manual shard
//! quarantine and degraded serving, typed rejection of updates to
//! unavailable shards, WAL durability policies driven by an in-memory
//! flaky sink, and the LSN/write-ahead regression tests (a rejected
//! batch must leave the LSN *and* the in-memory state untouched).

use agq_core::{CompileOptions, DurabilityPolicy, TupleUpdate, WalFailure, WalSink};
use agq_enumerate::{
    EnumQueryEngine, GeneralEnumEngine, GeneralShardedEngine, ServeError, ServeMode, Served,
    ShardedEngine, UpdateError,
};
use agq_logic::{Formula, Var};
use agq_semiring::Nat;
use agq_structure::{Signature, Structure};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Two triangles in different components plus an isolated edge — three
/// Gaifman components, so the sharded engine has multiple shards to
/// quarantine independently.
fn three_component_graph() -> (Arc<Structure>, agq_structure::RelId) {
    let mut sig = Signature::new();
    let e = sig.add_relation("E", 2);
    let mut a = Structure::new(Arc::new(sig), 9);
    for (u, v) in [(0u32, 1u32), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (6, 7)] {
        a.insert(e, &[u, v]);
        a.insert(e, &[v, u]);
    }
    (Arc::new(a), e)
}

fn sharded() -> (GeneralShardedEngine<Nat>, agq_structure::RelId) {
    let (a, e) = three_component_graph();
    let phi = Formula::Rel(e, vec![Var(0), Var(1)]);
    let eng = ShardedEngine::build(&a, &phi, &CompileOptions::default(), 0).unwrap();
    (eng, e)
}

/// A `WalSink` whose appends fail while `fail` is set; successful
/// appends are counted.
struct FlakySink {
    fail: Arc<AtomicBool>,
    appends: Arc<AtomicUsize>,
}

impl WalSink for FlakySink {
    fn append_batch(&mut self, _lsn: u64, _updates: &[&TupleUpdate]) -> std::io::Result<()> {
        if self.fail.load(Ordering::SeqCst) {
            Err(std::io::Error::other("injected append failure"))
        } else {
            self.appends.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
    }
}

fn flaky() -> (Box<FlakySink>, Arc<AtomicBool>, Arc<AtomicUsize>) {
    let fail = Arc::new(AtomicBool::new(false));
    let appends = Arc::new(AtomicUsize::new(0));
    let sink = Box::new(FlakySink {
        fail: Arc::clone(&fail),
        appends: Arc::clone(&appends),
    });
    (sink, fail, appends)
}

#[test]
fn quarantine_degrades_serving_and_rejects_updates() {
    let (eng, e) = sharded();
    let full = eng.count();
    let s = eng
        .owning_shard(&[0, 1])
        .expect("edge tuple routes to one shard");

    eng.quarantine_shard(s);
    assert!(eng.is_quarantined(s));
    assert_eq!(eng.quarantined_shards(), vec![s]);

    // Value APIs degrade silently over the healthy shards.
    assert!(eng.count() < full, "quarantined shard's answers are absent");
    assert_eq!(eng.query(&[0, 1]), Nat(0), "quarantined owner serves zero");
    assert_eq!(eng.query(&[6, 7]), Nat(1), "healthy shard still serves");

    // try_* APIs surface the degradation explicitly.
    let served = eng.try_count().unwrap();
    assert!(!served.is_complete());
    assert_eq!(served.missing_shards(), &[s]);
    assert_eq!(*served.get(), eng.count());
    // Point-query completeness is per-tuple: a tuple owned by a healthy
    // shard has a complete answer even while other shards are out.
    let served = eng.try_query(&[6, 7]).unwrap();
    assert!(served.is_complete());
    assert_eq!(*served.get(), Nat(1));
    let served = eng.try_query(&[0, 1]).unwrap();
    assert!(!served.is_complete(), "owner quarantined");
    assert_eq!(served.missing_shards(), &[s]);

    // Updates to the quarantined shard are rejected with a typed error;
    // healthy shards keep accepting.
    assert_eq!(
        eng.apply_update(&TupleUpdate::remove(e, &[0, 1])),
        Err(UpdateError::ShardUnavailable { shard: s })
    );
    eng.apply_update(&TupleUpdate::remove(e, &[6, 7])).unwrap();
    eng.apply_update(&TupleUpdate::insert(e, &[6, 7])).unwrap();

    // A whole-engine snapshot would silently lose the shard: refused.
    assert!(matches!(
        eng.snapshot_states(),
        Err(ServeError::ShardUnavailable { .. })
    ));

    // self_check skips (and reports) the quarantined shard.
    assert_eq!(eng.self_check().unwrap(), vec![s]);
    let health = eng.health();
    assert_eq!(health.quarantined, vec![s]);
    assert!(!health.wal_degraded);
}

#[test]
fn strict_mode_turns_degradation_into_errors() {
    let (eng, _e) = sharded();
    let s = eng.owning_shard(&[3, 4]).unwrap();
    eng.quarantine_shard(s);

    assert_eq!(eng.serve_mode(), ServeMode::Degrade);
    eng.set_serve_mode(ServeMode::Strict);
    assert_eq!(eng.serve_mode(), ServeMode::Strict);

    let err = eng.try_count().unwrap_err();
    let ServeError::ShardUnavailable { shards } = err;
    assert_eq!(shards, vec![s]);
    // Point queries error only when the *owning* shard is out: tuples
    // of healthy shards still have complete answers.
    assert!(eng.try_query(&[3, 4]).is_err());
    assert!(eng.try_query(&[6, 7]).is_ok());
    assert!(eng.try_query_batch(&[&[3, 4][..]]).is_err());
    assert!(eng.try_query_batch(&[&[6, 7][..]]).is_ok());
    assert!(eng.try_collect_answers().is_err());

    // Back to degrade: same calls succeed with explicit completeness.
    eng.set_serve_mode(ServeMode::Degrade);
    assert!(!eng.try_count().unwrap().is_complete());
}

/// `try_answer`, `try_answer_range` and `try_is_nonempty` in every
/// serving state. The degraded value must be the healthy shard's own
/// stream: value and `missing_shards` come from one snapshot.
#[test]
fn try_answer_range_and_nonempty_in_every_serve_state() {
    fn degraded<T>(s: usize, value: T) -> Result<Served<T>, ServeError> {
        Ok(Served::Degraded {
            value,
            missing_shards: vec![s],
        })
    }
    let (a, e) = three_component_graph();
    let phi = Formula::Rel(e, vec![Var(0), Var(1)]);
    let eng: GeneralShardedEngine<Nat> =
        ShardedEngine::build(&a, &phi, &CompileOptions::default(), 2).unwrap();
    assert_eq!(eng.num_shards(), 2);
    let all = eng.collect_answers();

    // All healthy: Complete, equal to the value API.
    for k in 0..=all.len() as u64 {
        assert_eq!(eng.try_answer(k), Ok(Served::Complete(eng.answer(k))));
        let page = eng.answer_range(k, 4);
        assert_eq!(eng.try_answer_range(k, 4), Ok(Served::Complete(page)));
    }
    assert_eq!(eng.try_answer(0).unwrap().value(), Some(all[0].clone()));
    assert_eq!(eng.try_is_nonempty(), Ok(Served::Complete(true)));

    // One of two quarantined: the rank space is the healthy shard's own
    // (global order is shard id, then the shard's cursor order).
    let s = eng.owning_shard(&[0, 1]).unwrap();
    let own: Vec<Vec<u32>> = all
        .iter()
        .filter(|t| eng.owning_shard(t) != Some(s))
        .cloned()
        .collect();
    assert!(!own.is_empty() && own.len() < all.len());
    eng.quarantine_shard(s);
    for k in 0..=own.len() {
        assert_eq!(eng.try_answer(k as u64), degraded(s, own.get(k).cloned()));
        let page = own[k..(k + 3).min(own.len())].to_vec();
        assert_eq!(eng.try_answer_range(k as u64, 3), degraded(s, page));
    }
    assert_eq!(eng.try_is_nonempty(), degraded(s, true));

    // Strict: the same calls refuse, naming the shard.
    eng.set_serve_mode(ServeMode::Strict);
    let refused = ServeError::ShardUnavailable { shards: vec![s] };
    assert_eq!(eng.try_answer(0), Err(refused.clone()));
    assert_eq!(eng.try_answer_range(0, 3), Err(refused.clone()));
    assert_eq!(eng.try_is_nonempty(), Err(refused));

    // A degraded `false` only says the healthy shards are empty.
    eng.set_serve_mode(ServeMode::Degrade);
    let removals: Vec<_> = own.iter().map(|t| TupleUpdate::remove(e, t)).collect();
    eng.apply_batch(&removals).unwrap();
    assert_eq!(eng.try_is_nonempty(), degraded(s, false));
    assert_eq!(eng.try_answer(0), degraded(s, None));
}

#[test]
fn sharded_fail_stop_rejects_batch_without_advancing_lsn() {
    let (eng, e) = sharded();
    let (sink, fail, appends) = flaky();
    eng.attach_wal(sink);
    eng.set_durability(DurabilityPolicy {
        attempts: 2,
        backoff: Duration::ZERO,
        on_failure: WalFailure::FailStop,
    });

    let batch = [TupleUpdate::remove(e, &[6, 7])];
    eng.apply_batch(&batch).unwrap();
    assert_eq!(eng.last_lsn(), 1);
    let count = eng.count();

    // Regression for the LSN desync bug: a fail-stop rejection must not
    // bump the LSN or touch in-memory state (previously the LSN was
    // advanced *before* the sink append, so a failed append left the
    // counter ahead of the durable log).
    fail.store(true, Ordering::SeqCst);
    let err = eng
        .apply_batch(&[TupleUpdate::insert(e, &[6, 7])])
        .unwrap_err();
    assert!(matches!(err, UpdateError::Wal(_)));
    assert_eq!(eng.last_lsn(), 1, "LSN unadvanced on fail-stop");
    assert_eq!(eng.count(), count, "nothing applied on fail-stop");
    assert_eq!(eng.query(&[6, 7]), Nat(0), "rejected insert did not land");

    // Sink recovers: the next batch gets the *next* LSN, gaplessly.
    fail.store(false, Ordering::SeqCst);
    eng.apply_batch(&[TupleUpdate::insert(e, &[6, 7])]).unwrap();
    assert_eq!(eng.last_lsn(), 2);
    assert_eq!(appends.load(Ordering::SeqCst), 2);
    assert_eq!(eng.query(&[6, 7]), Nat(1));
    assert!(!eng.wal_degraded());
}

#[test]
fn sharded_fail_open_keeps_serving_and_reports_degraded_wal() {
    let (eng, e) = sharded();
    let (sink, fail, appends) = flaky();
    eng.attach_wal(sink);
    eng.set_durability(DurabilityPolicy::fail_open());

    fail.store(true, Ordering::SeqCst);
    let before = eng.count();
    eng.apply_batch(&[TupleUpdate::remove(e, &[6, 7])]).unwrap();
    assert_eq!(eng.count(), before - 1, "fail-open keeps applying");
    assert_eq!(
        eng.last_lsn(),
        1,
        "LSN advances so snapshots stay sequenced"
    );
    assert!(eng.wal_degraded());
    assert!(eng.health().wal_degraded);
    assert_eq!(appends.load(Ordering::SeqCst), 0);

    fail.store(false, Ordering::SeqCst);
    eng.reset_wal_degraded();
    eng.apply_batch(&[TupleUpdate::insert(e, &[6, 7])]).unwrap();
    assert!(!eng.wal_degraded());
    assert_eq!(appends.load(Ordering::SeqCst), 1);
}

#[test]
fn single_engine_fail_stop_is_write_ahead() {
    let (a, e) = three_component_graph();
    let phi = Formula::Rel(e, vec![Var(0), Var(1)]);
    let mut eng: GeneralEnumEngine<Nat> =
        EnumQueryEngine::build_dynamic(&a, &phi, &CompileOptions::default()).unwrap();
    let (sink, fail, appends) = flaky();
    eng.attach_wal(sink);
    eng.set_durability(DurabilityPolicy {
        attempts: 1,
        backoff: Duration::ZERO,
        on_failure: WalFailure::FailStop,
    });

    let count = eng.count();
    fail.store(true, Ordering::SeqCst);
    let err = eng
        .apply_update(&TupleUpdate::remove(e, &[6, 7]))
        .unwrap_err();
    assert!(matches!(err, UpdateError::Wal(_)));
    assert_eq!(eng.last_lsn(), 0, "LSN unadvanced on fail-stop");
    assert_eq!(eng.count(), count, "enumeration side untouched");
    assert_eq!(eng.query(&[6, 7]), Nat(1), "point side untouched");

    fail.store(false, Ordering::SeqCst);
    eng.apply_update(&TupleUpdate::remove(e, &[6, 7])).unwrap();
    assert_eq!(eng.last_lsn(), 1);
    assert_eq!(appends.load(Ordering::SeqCst), 1);
    eng.self_check().unwrap();
}

#[test]
fn single_engine_fail_open_flags_degraded() {
    let (a, e) = three_component_graph();
    let phi = Formula::Rel(e, vec![Var(0), Var(1)]);
    let mut eng: GeneralEnumEngine<Nat> =
        EnumQueryEngine::build_dynamic(&a, &phi, &CompileOptions::default()).unwrap();
    let (sink, fail, _appends) = flaky();
    eng.attach_wal(sink);
    eng.set_durability(DurabilityPolicy::fail_open());

    fail.store(true, Ordering::SeqCst);
    let before = eng.count();
    eng.apply_update(&TupleUpdate::remove(e, &[6, 7])).unwrap();
    assert_eq!(eng.count(), before - 1);
    assert_eq!(eng.last_lsn(), 1);
    assert!(eng.wal_degraded());
    eng.reset_wal_degraded();
    assert!(!eng.wal_degraded());
}

#[test]
fn retry_policy_rides_through_transient_failures() {
    // A sink that fails exactly once: with attempts >= 2 the batch must
    // commit on the retry, invisibly to the caller.
    struct FailOnce {
        failed: bool,
        appends: Arc<AtomicUsize>,
    }
    impl WalSink for FailOnce {
        fn append_batch(&mut self, _lsn: u64, _u: &[&TupleUpdate]) -> std::io::Result<()> {
            if !self.failed {
                self.failed = true;
                return Err(std::io::Error::other("transient"));
            }
            self.appends.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
    }

    let (eng, e) = sharded();
    let appends = Arc::new(AtomicUsize::new(0));
    eng.attach_wal(Box::new(FailOnce {
        failed: false,
        appends: Arc::clone(&appends),
    }));
    eng.set_durability(DurabilityPolicy {
        attempts: 3,
        backoff: Duration::ZERO,
        on_failure: WalFailure::FailStop,
    });
    eng.apply_batch(&[TupleUpdate::remove(e, &[6, 7])]).unwrap();
    assert_eq!(eng.last_lsn(), 1);
    assert_eq!(appends.load(Ordering::SeqCst), 1);
    assert!(!eng.wal_degraded());
}
