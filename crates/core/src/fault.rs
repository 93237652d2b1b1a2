//! Deterministic fail-point injection for chaos testing.
//!
//! # Fault model
//!
//! A **fail-point** is a named site in the serving or durability path
//! where a test can script a fault. Production code calls one of two
//! hooks:
//!
//! * [`io_point`] — sites that can legitimately fail with an I/O error
//!   (WAL appends, snapshot writes). Returns `Err` when an `Error` fault
//!   fires, so the caller's existing error path is exercised.
//! * [`point`] — sites with no error channel (in-memory shard apply,
//!   batch workers). Only `Panic` and `Delay` faults fire here; `Error`
//!   specs are ignored.
//!
//! Without the `failpoints` cargo feature both hooks compile to inlined
//! no-ops — zero branches, zero atomics — so the production binary pays
//! nothing. That is true by construction (the disabled hooks are
//! `#[inline(always)]` functions with empty bodies, at the bottom of
//! this file); the last measurement of it, ≈ 0.3–0.5 ns of loop
//! overhead per call, is frozen in `README.md`. With the
//! feature enabled, each site keeps a hit counter and a scripted
//! schedule, and every firing decision is a pure function of
//! `(schedule, hit number)` — **deterministic**: the same schedule and
//! the same call sequence produce the same faults, which is what lets
//! the chaos suite shrink failures and replay them by seed.
//!
//! # Schedule format
//!
//! A schedule is a list of `FaultSpec`s per site; the first spec whose
//! `Trigger` matches the current hit number decides the fault:
//!
//! | trigger | fires on |
//! |---|---|
//! | `Nth(n)` | exactly the `n`-th hit (1-based) |
//! | `Range(a, b)` | every hit in `a..=b` (a burst) |
//! | `Every(k)` | hits `k`, `2k`, `3k`, … |
//! | `Seeded { seed, per_mille }` | hit `h` iff `splitmix64(seed ⊕ h) mod 1000 < per_mille` |
//!
//! `Seeded` is how the chaos proptests derive an arbitrary-but-replayable
//! fault pattern from a proptest-chosen seed: no RNG state is shared with
//! the system under test, so injecting faults never perturbs *which*
//! faults fire later.
//!
//! # Registered sites
//!
//! | site | hook | guards |
//! |---|---|---|
//! | `wal.append` | [`io_point`] | every WAL append attempt (inside the retry loop of `DurabilityPolicy::append`) |
//! | `shard.apply` | [`point`] | per shard group, before in-memory apply in `ShardedEngine` |
//! | `batch.worker` | [`point`] | entry of each spawned shard batch worker |
//! | `snapshot.save` | [`io_point`] | snapshot artifact serialization in `agq-persist` |
//!
//! # Hygiene
//!
//! The registry is process-global (sites are reached from shard worker
//! threads, so it must be), which means chaos tests that share a process
//! must serialize access to it and `clear_all` between cases. A panic
//! raised by a firing fail-point deliberately happens *after* the
//! registry lock is released, so the registry itself never poisons.

#[cfg(feature = "failpoints")]
mod enabled {
    use std::collections::HashMap;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// What a firing fail-point does to the caller.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum FaultKind {
        /// Return `Err(io::ErrorKind::Other)` from [`super::io_point`].
        /// Ignored at [`super::point`] sites (they have no error channel).
        Error,
        /// Panic with a message naming the site and hit number.
        Panic,
        /// Sleep for the given number of milliseconds, then proceed
        /// normally — for shaking out lock-ordering and timing windows.
        DelayMs(u64),
    }

    /// Which hits of a site a [`FaultSpec`] fires on. All variants are
    /// pure functions of the (1-based) hit number, never of wall-clock
    /// time or global RNG state.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Trigger {
        /// Exactly the `n`-th hit.
        Nth(u64),
        /// Every hit in `a..=b` — an error burst.
        Range(u64, u64),
        /// Hits `k, 2k, 3k, …` (`Every(0)` never fires).
        Every(u64),
        /// Hit `h` fires iff `splitmix64(seed ^ h) % 1000 < per_mille`:
        /// a deterministic pseudo-random schedule replayable by seed.
        Seeded {
            /// Mixes into the hit number; different seeds give
            /// independent-looking schedules.
            seed: u64,
            /// Firing rate out of 1000 (e.g. `150` ≈ 15% of hits).
            per_mille: u16,
        },
    }

    impl Trigger {
        fn fires(&self, hit: u64) -> bool {
            match *self {
                Trigger::Nth(n) => hit == n,
                Trigger::Range(a, b) => a <= hit && hit <= b,
                Trigger::Every(k) => k != 0 && hit.is_multiple_of(k),
                Trigger::Seeded { seed, per_mille } => {
                    splitmix64(seed ^ hit) % 1000 < u64::from(per_mille)
                }
            }
        }
    }

    /// One scripted fault: fire `kind` whenever `trigger` matches.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct FaultSpec {
        /// The fault to inject.
        pub kind: FaultKind,
        /// When to inject it.
        pub trigger: Trigger,
    }

    impl FaultSpec {
        /// `Error` on the hits matched by `trigger`.
        pub fn error(trigger: Trigger) -> Self {
            FaultSpec {
                kind: FaultKind::Error,
                trigger,
            }
        }

        /// `Panic` on the hits matched by `trigger`.
        pub fn panic(trigger: Trigger) -> Self {
            FaultSpec {
                kind: FaultKind::Panic,
                trigger,
            }
        }

        /// `DelayMs(ms)` on the hits matched by `trigger`.
        pub fn delay_ms(ms: u64, trigger: Trigger) -> Self {
            FaultSpec {
                kind: FaultKind::DelayMs(ms),
                trigger,
            }
        }
    }

    /// SplitMix64 finalizer — a well-mixed bijection on `u64`, so the
    /// `Seeded` trigger needs no mutable RNG state.
    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    #[derive(Default)]
    struct Site {
        hits: u64,
        specs: Vec<FaultSpec>,
    }

    fn registry() -> MutexGuard<'static, HashMap<String, Site>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, Site>>> = OnceLock::new();
        // A panic injected at a site never happens under this lock (see
        // `io_point`), but a *test* thread may still die while holding
        // it — recover rather than cascade the poison.
        REGISTRY
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Append `spec` to `site`'s schedule. The site's hit counter is NOT
    /// reset — call [`clear`] or [`clear_all`] first for a fresh script.
    pub fn configure(site: &str, spec: FaultSpec) {
        registry()
            .entry(site.to_string())
            .or_default()
            .specs
            .push(spec);
    }

    /// Drop `site`'s schedule and reset its hit counter.
    pub fn clear(site: &str) {
        registry().remove(site);
    }

    /// Drop every schedule and hit counter — run between chaos cases.
    pub fn clear_all() {
        registry().clear();
    }

    /// How many times `site` has been reached since its last [`clear`].
    pub fn hit_count(site: &str) -> u64 {
        registry().get(site).map_or(0, |s| s.hits)
    }

    /// Count the hit and look up the firing fault, releasing the
    /// registry lock before the caller acts on it.
    fn check(site: &str) -> Option<(FaultKind, u64)> {
        let mut reg = registry();
        let entry = reg.entry(site.to_string()).or_default();
        entry.hits += 1;
        let hit = entry.hits;
        entry
            .specs
            .iter()
            .find(|s| s.trigger.fires(hit))
            .map(|s| (s.kind, hit))
    }

    /// Fail-point hook for sites with an I/O error channel.
    pub fn io_point(site: &str) -> std::io::Result<()> {
        match check(site) {
            None => Ok(()),
            Some((FaultKind::Error, hit)) => Err(std::io::Error::other(format!(
                "failpoint {site}: injected I/O error (hit {hit})"
            ))),
            Some((FaultKind::Panic, hit)) => {
                panic!("failpoint {site}: injected panic (hit {hit})")
            }
            Some((FaultKind::DelayMs(ms), _)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                Ok(())
            }
        }
    }

    /// Fail-point hook for in-memory sites (no error channel): `Panic`
    /// and `DelayMs` fire, `Error` specs are ignored.
    pub fn point(site: &str) {
        match check(site) {
            None | Some((FaultKind::Error, _)) => {}
            Some((FaultKind::Panic, hit)) => {
                panic!("failpoint {site}: injected panic (hit {hit})")
            }
            Some((FaultKind::DelayMs(ms), _)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// The registry is process-global; in-crate tests share one
        /// mutex so schedules never interleave.
        fn serial() -> MutexGuard<'static, ()> {
            static GATE: Mutex<()> = Mutex::new(());
            GATE.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        }

        #[test]
        fn nth_and_range_fire_deterministically() {
            let _g = serial();
            clear_all();
            configure("t.site", FaultSpec::error(Trigger::Nth(2)));
            configure("t.site", FaultSpec::error(Trigger::Range(4, 5)));
            let fired: Vec<bool> = (0..6).map(|_| io_point("t.site").is_err()).collect();
            assert_eq!(fired, [false, true, false, true, true, false]);
            assert_eq!(hit_count("t.site"), 6);
            clear_all();
        }

        #[test]
        fn seeded_schedule_replays_identically() {
            let _g = serial();
            clear_all();
            let spec = FaultSpec::error(Trigger::Seeded {
                seed: 0xDEAD_BEEF,
                per_mille: 250,
            });
            configure("t.seeded", spec);
            let first: Vec<bool> = (0..64).map(|_| io_point("t.seeded").is_err()).collect();
            clear_all();
            configure("t.seeded", spec);
            let second: Vec<bool> = (0..64).map(|_| io_point("t.seeded").is_err()).collect();
            assert_eq!(first, second, "seeded schedule must replay by seed");
            let rate = first.iter().filter(|&&b| b).count();
            assert!(rate > 0 && rate < 64, "≈25% rate, got {rate}/64");
            clear_all();
        }

        #[test]
        fn point_ignores_error_specs() {
            let _g = serial();
            clear_all();
            configure("t.mem", FaultSpec::error(Trigger::Every(1)));
            point("t.mem"); // must not panic, must not error
            assert_eq!(hit_count("t.mem"), 1);
            clear_all();
        }

        #[test]
        fn injected_panic_names_site_and_hit() {
            let _g = serial();
            clear_all();
            configure("t.boom", FaultSpec::panic(Trigger::Nth(1)));
            let err = std::panic::catch_unwind(|| point("t.boom")).unwrap_err();
            let msg = err.downcast_ref::<String>().expect("string payload");
            assert!(msg.contains("t.boom"), "payload: {msg}");
            clear_all();
        }
    }
}

#[cfg(feature = "failpoints")]
pub use enabled::{
    clear, clear_all, configure, hit_count, io_point, point, FaultKind, FaultSpec, Trigger,
};

/// No-op stub: the `failpoints` feature is disabled, so this compiles to
/// `Ok(())` and inlines away.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn io_point(_site: &str) -> std::io::Result<()> {
    Ok(())
}

/// No-op stub: the `failpoints` feature is disabled, so this compiles to
/// nothing and inlines away.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn point(_site: &str) {}
