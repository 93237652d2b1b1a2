//! Timed phases, cut into slices, with their oracles.
//!
//! Every workload is a closed loop: the next call is issued when the
//! previous one returns. A slice accumulates time **in engine calls
//! only** until its budget is used; inputs are generated and results are
//! checked between the timed sections, so neither is part of a rate. An
//! oracle mismatch or an `Err` is a failed operation, never a panic.

use crate::gen::{Query, Shadow, World};
use crate::rng::SplitMix64;
use crate::stats::quantile_sorted;
use crate::target::{Files, Target};
use crate::trace::Recorder;
use agq_core::TupleUpdate;
use agq_persist::SaveStats;
use agq_structure::Elem;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub const BATCH: usize = 64;
pub const QUERY_CHUNK: usize = 256;
/// Share of churn flips that go to the hot tuples, in percent.
pub const HOT_PERCENT: usize = 95;
pub const HOT_TUPLES: usize = 4;
pub const WAL_BATCHES: usize = 256;
pub const WAL_BATCH: usize = 16;
/// One point-query result in this many is checked against the shadow.
pub const QUERY_SAMPLE: usize = 64;

/// Operations attempted and failed, with the first few reasons.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(why());
        }
    }

    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// One slice of one phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Slice {
    /// Work units done (tuples, seeks, answers, updates submitted).
    pub ops: u64,
    /// Time spent in the engine calls.
    pub ns: u64,
    /// Per-call latency p99 of the slice, where calls are timed one by
    /// one (0 otherwise).
    pub p99_ns: f64,
    pub calls: u64,
}

impl Slice {
    pub fn rate(&self) -> f64 {
        self.ops as f64 / (self.ns.max(1) as f64 / 1e9)
    }

    fn set_latencies(&mut self, lat: &mut [u64]) {
        if lat.is_empty() {
            return;
        }
        lat.sort_unstable();
        self.p99_ns = quantile_sorted(lat, 0.99) as f64;
        self.calls = lat.len() as u64;
    }
}

/// An engine with the shadow model of its database.
pub struct Side<T> {
    pub eng: T,
    pub shadow: Shadow,
    /// The verified answer stream of the current state in enumeration
    /// order (packed), dropped by every update.
    stream: Option<Vec<u64>>,
    stream_hash: u64,
}

impl<T> Side<T> {
    pub fn new(eng: T, world: &World) -> Self {
        Side::with_shadow(eng, Shadow::new(world))
    }

    pub fn with_shadow(eng: T, shadow: Shadow) -> Self {
        Side {
            eng,
            shadow,
            stream: None,
            stream_hash: 0,
        }
    }
}

pub struct Ctx<'a> {
    pub world: &'a World,
    pub tally: Tally,
    pub rec: Recorder,
    pub slice: Duration,
    pub seed: u64,
}

/// An answer tuple (arity ≤ 3, elements < 2²¹) in one word.
pub fn pack(t: &[Elem]) -> u64 {
    t.iter().fold(1u64, |acc, &x| (acc << 21) | u64::from(x))
}

pub fn unpack(p: u64, arity: usize) -> Vec<Elem> {
    (0..arity)
        .map(|i| ((p >> (21 * (arity - 1 - i))) & 0x1f_ffff) as Elem)
        .collect()
}

fn mix(x: u64) -> u64 {
    SplitMix64::new(x).next_u64()
}

impl Ctx<'_> {
    pub fn rng(&self, purpose: &str) -> SplitMix64 {
        SplitMix64::stream(self.seed, purpose)
    }

    /// Run `f` as a timed section of a slice (and as a span when traced).
    fn timed<R>(
        &mut self,
        name: &'static str,
        ops: u64,
        acc: &mut u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let t = Instant::now();
        let r = self.rec.time(name, ops, f);
        *acc += t.elapsed().as_nanos() as u64;
        r
    }

    fn budget_ns(&self) -> u64 {
        self.slice.as_nanos() as u64
    }
}

// ---------------------------------------------------------------------
// verification pass
// ---------------------------------------------------------------------

/// Enumerate everything once, untimed, and check the stream against the
/// shadow: no duplicates, every answer satisfies φ, and length =
/// `count()` = the closed-form count. Keeps the stream for the seek
/// spot-checks and its multiset hash for the timed passes.
pub fn verify_stream<T: Target>(ctx: &mut Ctx, side: &mut Side<T>, what: &str) {
    let mut stream = Vec::new();
    side.eng.for_each_answer(&mut |t| stream.push(pack(t)));
    ctx.tally.ops(1);
    let mut sorted = stream.clone();
    sorted.sort_unstable();
    let dups = sorted.windows(2).filter(|w| w[0] == w[1]).count();
    ctx.tally
        .check(dups == 0, || format!("{what}: {dups} duplicate answers"));
    let arity = ctx.world.query.arity();
    let wrong = stream
        .iter()
        .filter(|&&p| !side.shadow.holds(&unpack(p, arity)))
        .count();
    ctx.tally.check(wrong == 0, || {
        format!("{what}: {wrong} enumerated tuples do not satisfy the formula")
    });
    let (len, count, closed) = (stream.len() as u64, side.eng.count(), side.shadow.count());
    ctx.tally.ops(1);
    ctx.tally.check(len == count && count == closed, || {
        format!("{what}: enumerated {len}, count() {count}, closed form {closed}")
    });
    side.stream_hash = stream.iter().fold(0u64, |h, &p| h.wrapping_add(mix(p)));
    side.stream = Some(stream);
}

// ---------------------------------------------------------------------
// read phases
// ---------------------------------------------------------------------

/// A point-query tuple: built on a present-at-generation edge and, half
/// the time, extended along a second edge (likely an answer), else to a
/// random vertex (likely not). The shadow decides what it really is.
pub fn query_tuple(
    w: &World,
    rng: &mut SplitMix64,
    pick: impl Fn(&mut SplitMix64) -> usize,
) -> Vec<Elem> {
    let [x, y] = w.tuples[pick(rng)];
    let far = rng.below(w.n) as Elem;
    match w.query {
        Query::TwoPath => {
            let outs = &w.out_index[y as usize];
            let near = w.tuples[outs[rng.below(outs.len())] as usize][1];
            vec![x, y, if rng.chance(1, 2) { near } else { far }]
        }
        Query::MarkedEdge => vec![x, if rng.chance(1, 2) { y } else { far }],
    }
}

pub struct QueryPhase {
    rng: SplitMix64,
}

impl QueryPhase {
    pub fn new(ctx: &Ctx) -> Self {
        QueryPhase {
            rng: ctx.rng("query"),
        }
    }

    pub fn slice<T: Target>(&mut self, ctx: &mut Ctx, side: &mut Side<T>) -> Slice {
        let (mut s, mut lat) = (Slice::default(), Vec::new());
        let m = ctx.world.tuples.len();
        let mut out = Vec::with_capacity(QUERY_CHUNK);
        while s.ns < ctx.budget_ns() {
            let tuples: Vec<Vec<Elem>> = (0..QUERY_CHUNK)
                .map(|_| query_tuple(ctx.world, &mut self.rng, |r| r.below(m)))
                .collect();
            let refs: Vec<&[Elem]> = tuples.iter().map(Vec::as_slice).collect();
            out.clear();
            let eng = &mut side.eng;
            ctx.timed("op.query", QUERY_CHUNK as u64, &mut s.ns, || {
                let mut prev = Instant::now();
                for group in refs.chunks(T::QUERY_GROUP) {
                    eng.query_group(group, &mut out);
                    let now = Instant::now();
                    lat.push((now - prev).as_nanos() as u64);
                    prev = now;
                }
            });
            s.ops += QUERY_CHUNK as u64;
            ctx.tally.ops((QUERY_CHUNK / T::QUERY_GROUP) as u64);
            for i in (0..QUERY_CHUNK).step_by(QUERY_SAMPLE) {
                let want = side.shadow.holds(&tuples[i]);
                ctx.tally.check(out[i] == want, || {
                    format!("query({:?}) = {}, formula says {want}", tuples[i], out[i])
                });
            }
        }
        s.set_latencies(&mut lat);
        s
    }
}

pub struct SeekPhase {
    rng: SplitMix64,
}

impl SeekPhase {
    pub fn new(ctx: &Ctx) -> Self {
        SeekPhase {
            rng: ctx.rng("seek"),
        }
    }

    pub fn slice<T: Target>(&mut self, ctx: &mut Ctx, side: &mut Side<T>) -> Slice {
        let mut s = Slice::default();
        let count = side.eng.count();
        ctx.tally.ops(1);
        if count == 0 {
            ctx.tally
                .fail(|| "seek phase on an empty answer set".into());
            return s;
        }
        while s.ns < ctx.budget_ns() {
            let ks: Vec<u64> = (0..QUERY_CHUNK)
                .map(|_| self.rng.below(count as usize) as u64)
                .collect();
            let eng = &side.eng;
            let got: Vec<Option<Vec<Elem>>> =
                ctx.timed("op.seek", QUERY_CHUNK as u64, &mut s.ns, || {
                    ks.iter().map(|&k| eng.answer(k)).collect()
                });
            s.ops += QUERY_CHUNK as u64;
            ctx.tally.ops(QUERY_CHUNK as u64);
            for i in (0..QUERY_CHUNK).step_by(QUERY_SAMPLE) {
                let want = side.stream.as_ref().map(|st| st[ks[i] as usize]);
                let have = got[i].as_deref().map(pack);
                ctx.tally
                    .check(have.is_some() && (want.is_none() || want == have), || {
                        format!(
                            "answer({}) = {:?} is not the k-th enumerated answer",
                            ks[i], got[i]
                        )
                    });
            }
        }
        s
    }
}

/// One full enumeration pass: answers seen and their multiset hash.
fn enum_pass<T: Target>(eng: &T) -> (u64, u64) {
    let (mut len, mut hash) = (0u64, 0u64);
    eng.for_each_answer(&mut |t| {
        len += 1;
        hash = hash.wrapping_add(mix(pack(t)));
    });
    (len, hash)
}

pub fn enum_slice<T: Target>(ctx: &mut Ctx, side: &mut Side<T>) -> Slice {
    let mut s = Slice::default();
    let closed = side.shadow.count();
    while s.ns < ctx.budget_ns() {
        let eng = &side.eng;
        let (len, hash) = ctx.timed("op.enumerate", closed, &mut s.ns, || enum_pass(eng));
        s.ops += len;
        ctx.tally.ops(1);
        let same = side.stream.is_none() || hash == side.stream_hash;
        ctx.tally.check(len == closed && same, || {
            format!("enumeration pass: {len} answers (closed form {closed}), same multiset as the verified pass: {same}")
        });
    }
    s
}

// ---------------------------------------------------------------------
// write phases
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WriteKind {
    /// `apply_update`, uniform flips.
    Single,
    /// `apply_batch` of 64 uniform flips.
    Batch,
    /// `apply_batch` of 64, 95 % of flips on 4 hot tuples.
    Churn,
    /// `apply_batch` of 64 uniform + `count()` + `answer(k)`, rank tables live.
    Ranked,
}

/// Generates flips over a set of tuple ids, uniformly or with a hot set.
pub struct Flipper {
    rng: SplitMix64,
    ids: Vec<u32>,
    hot: Vec<u32>,
}

impl Flipper {
    /// The hot tuples are spread evenly over `ids` from a random start,
    /// so every seed loads the shards alike.
    pub fn new(mut rng: SplitMix64, ids: Vec<u32>) -> Self {
        let stride = (ids.len() / HOT_TUPLES).max(1);
        let start = rng.below(stride);
        let hot = (0..HOT_TUPLES)
            .map(|k| ids[(start + k * stride) % ids.len()])
            .collect();
        Flipper { rng, ids, hot }
    }

    pub fn batch(&mut self, shadow: &mut Shadow, len: usize, churn: bool) -> Vec<TupleUpdate> {
        (0..len)
            .map(|_| {
                let id = if churn && self.rng.chance(HOT_PERCENT, 100) {
                    self.hot[self.rng.below(self.hot.len())]
                } else {
                    self.ids[self.rng.below(self.ids.len())]
                };
                shadow.flip(id as usize)
            })
            .collect()
    }
}

pub struct WritePhase {
    kind: WriteKind,
    flips: Flipper,
    rng: SplitMix64,
}

impl WritePhase {
    pub fn new(ctx: &Ctx, kind: WriteKind) -> Self {
        let all = (0..ctx.world.tuples.len() as u32).collect();
        WritePhase {
            kind,
            flips: Flipper::new(ctx.rng(&format!("write-{kind:?}")), all),
            rng: ctx.rng(&format!("rank-{kind:?}")),
        }
    }

    pub fn slice<T: Target>(&mut self, ctx: &mut Ctx, side: &mut Side<T>) -> Slice {
        let (mut s, mut lat) = (Slice::default(), Vec::new());
        side.stream = None;
        while s.ns < ctx.budget_ns() {
            let us = self
                .flips
                .batch(&mut side.shadow, BATCH, self.kind == WriteKind::Churn);
            let eng = &mut side.eng;
            let before = s.ns;
            let res = match self.kind {
                WriteKind::Single => {
                    ctx.tally.ops(BATCH as u64);
                    ctx.timed("op.apply_update", BATCH as u64, &mut s.ns, || {
                        us.iter().try_for_each(|u| eng.apply_update(u))
                    })
                }
                _ => {
                    ctx.tally.ops(1);
                    let r = ctx.timed("op.apply_batch", BATCH as u64, &mut s.ns, || {
                        eng.apply_batch(&us)
                    });
                    lat.push(s.ns - before);
                    r
                }
            };
            if let Err(e) = res {
                ctx.tally
                    .fail(|| format!("{:?} update rejected: {e}", self.kind));
            }
            s.ops += BATCH as u64;
            if self.kind == WriteKind::Ranked {
                let r = self.rng.next_u64();
                let eng = &side.eng;
                let (count, got) = ctx.timed("op.count_answer", 2, &mut s.ns, || {
                    let c = eng.count();
                    let k = ((u128::from(r) * u128::from(c)) >> 64) as u64;
                    (c, eng.answer(k))
                });
                ctx.tally.ops(2);
                let closed = side.shadow.count();
                ctx.tally.check(count == closed, || {
                    format!("count() after a batch = {count}, closed form {closed}")
                });
                let ok = match &got {
                    Some(t) => side.shadow.holds(t),
                    None => closed == 0,
                };
                ctx.tally
                    .check(ok, || format!("answer(k) after a batch = {got:?}"));
            }
        }
        s.set_latencies(&mut lat);
        s
    }
}

// ---------------------------------------------------------------------
// mixed phase
// ---------------------------------------------------------------------

/// Tuple pairs the mixed-phase writer never flips, so the reader's
/// queries on them have an answer that does not depend on the race.
fn is_stable(id: u32) -> bool {
    (id / 2).is_multiple_of(4)
}

/// The writing client: `apply_batch` of 64, alternately uniform and
/// hot-key, on the unstable tuples.
pub struct MixedWriter {
    flips: Flipper,
    churn: bool,
    /// Closed-form counts at every batch boundary.
    boundaries: HashSet<u64>,
    pub updates: u64,
    tally: Tally,
}

impl MixedWriter {
    fn step<T: Target>(&mut self, eng: &mut T, shadow: &mut Shadow, rec: &mut Recorder) {
        let us = self.flips.batch(shadow, BATCH, self.churn);
        self.churn = !self.churn;
        // the boundary is published before the batch can be observed
        self.boundaries.insert(shadow.count());
        let res = rec.time("op.mixed_apply_batch", BATCH as u64, || {
            eng.apply_batch(&us)
        });
        self.tally.ops(1);
        if let Err(e) = res {
            self.tally
                .fail(|| format!("mixed writer batch rejected: {e}"));
        }
        self.updates += BATCH as u64;
    }
}

/// The reading client: 256 point queries + `count()` + `answer(k)`.
pub struct MixedReader<'a> {
    world: &'a World,
    rng: SplitMix64,
    stable: Vec<u32>,
    frozen: Shadow,
    seen_counts: Vec<u64>,
    last_count: u64,
    pub tuples: u64,
    pub call_ns: Vec<u64>,
    tally: Tally,
}

impl MixedReader<'_> {
    /// Whether every atom the formula reads at `t` is outside the
    /// writer's reach (a stable tuple, or not an edge at all).
    fn race_free(&self, t: &[Elem]) -> bool {
        t.windows(2).all(|p| {
            self.world
                .tuple_id
                .get(&(p[0], p[1]))
                .is_none_or(|&id| is_stable(id))
        })
    }

    /// Necessary for being an answer in any reachable state.
    fn plausible(&self, t: &[Elem]) -> bool {
        let edges = t
            .windows(2)
            .all(|p| self.world.tuple_id.contains_key(&(p[0], p[1])));
        match self.world.query {
            Query::TwoPath => t.len() == 3 && edges && t[0] != t[2],
            Query::MarkedEdge => t.len() == 2 && edges && t[0].is_multiple_of(2),
        }
    }

    fn step<T: Target>(&mut self, eng: &mut T, rec: &mut Recorder) {
        let stable = &self.stable;
        let tuples: Vec<Vec<Elem>> = (0..QUERY_CHUNK)
            .map(|_| {
                query_tuple(self.world, &mut self.rng, |r| {
                    stable[r.below(stable.len())] as usize
                })
            })
            .collect();
        let refs: Vec<&[Elem]> = tuples.iter().map(Vec::as_slice).collect();
        let mut out = Vec::with_capacity(QUERY_CHUNK);
        let k = self.rng.below(self.last_count.max(1) as usize) as u64;
        let t0 = Instant::now();
        let (count, got) = rec.time("op.mixed_read", QUERY_CHUNK as u64 + 2, || {
            for group in refs.chunks(T::QUERY_GROUP) {
                eng.query_group(group, &mut out);
            }
            (eng.count(), eng.answer(k))
        });
        self.call_ns.push(t0.elapsed().as_nanos() as u64);
        self.tuples += QUERY_CHUNK as u64;
        self.tally.ops((QUERY_CHUNK / T::QUERY_GROUP) as u64 + 2);
        for i in (0..QUERY_CHUNK).step_by(QUERY_SAMPLE) {
            if self.race_free(&tuples[i]) {
                let want = self.frozen.holds(&tuples[i]);
                self.tally.check(out[i] == want, || {
                    format!(
                        "mixed query({:?}) = {}, formula says {want}",
                        tuples[i], out[i]
                    )
                });
            }
        }
        self.seen_counts.push(count);
        self.last_count = count;
        if let Some(t) = &got {
            self.tally.check(self.plausible(t), || {
                format!("mixed answer({k}) = {t:?} cannot be an answer in any state")
            });
        }
    }
}

pub struct MixedSlice {
    pub writer: Slice,
    pub reader: Slice,
}

pub struct MixedPhase<'a> {
    writer: MixedWriter,
    reader: MixedReader<'a>,
}

impl<'a> MixedPhase<'a> {
    pub fn new<T>(ctx: &Ctx<'a>, side: &Side<T>) -> Self {
        let ids = 0..ctx.world.tuples.len() as u32;
        let (stable, unstable): (Vec<u32>, Vec<u32>) = ids.partition(|&i| is_stable(i));
        let start = side.shadow.count();
        MixedPhase {
            writer: MixedWriter {
                flips: Flipper::new(ctx.rng("mixed-writer"), unstable),
                churn: false,
                boundaries: HashSet::from([start]),
                updates: 0,
                tally: Tally::default(),
            },
            reader: MixedReader {
                world: ctx.world,
                rng: ctx.rng("mixed-reader"),
                stable,
                frozen: side.shadow.clone(),
                seen_counts: Vec::new(),
                last_count: start,
                tuples: 0,
                call_ns: Vec::new(),
                tally: Tally::default(),
            },
        }
    }

    /// One slice of wall time `ctx.slice`: two client threads when the
    /// engine can be shared, else its single owner alternating one
    /// writer call and one reader call. Rates are over wall time, client
    /// think time included.
    pub fn slice<T: Target>(&mut self, ctx: &mut Ctx, side: &mut Side<T>) -> MixedSlice {
        side.stream = None;
        let (w, r) = (&mut self.writer, &mut self.reader);
        let (u0, q0) = (w.updates, r.tuples);
        r.call_ns.clear();
        let budget = ctx.slice;
        let (wall_w, wall_r);
        match side.eng.fork() {
            Some(mut weng) => {
                let (stop, gate) = (AtomicBool::new(false), Barrier::new(2));
                let mut wrec = ctx.rec.fork(1);
                let shadow = &mut side.shadow;
                let reng = &mut side.eng;
                let rrec = &mut ctx.rec;
                (wall_w, wall_r) = std::thread::scope(|sc| {
                    let writer = sc.spawn(|| {
                        gate.wait();
                        let t = Instant::now();
                        while !stop.load(Ordering::Relaxed) {
                            w.step(&mut weng, shadow, &mut wrec);
                        }
                        t.elapsed()
                    });
                    gate.wait();
                    let t = Instant::now();
                    while t.elapsed() < budget {
                        r.step(reng, rrec);
                    }
                    let wall_r = t.elapsed();
                    stop.store(true, Ordering::Relaxed);
                    (writer.join().expect("writer client panicked"), wall_r)
                });
                ctx.rec.join(wrec);
            }
            None => {
                let t = Instant::now();
                while t.elapsed() < budget {
                    w.step(&mut side.eng, &mut side.shadow, &mut ctx.rec);
                    r.step(&mut side.eng, &mut ctx.rec);
                }
                (wall_w, wall_r) = (t.elapsed(), t.elapsed());
            }
        }
        let mut reader = Slice {
            ops: r.tuples - q0,
            ns: wall_r.as_nanos() as u64,
            ..Slice::default()
        };
        reader.set_latencies(&mut r.call_ns);
        MixedSlice {
            writer: Slice {
                ops: w.updates - u0,
                ns: wall_w.as_nanos() as u64,
                ..Slice::default()
            },
            reader,
        }
    }

    /// The reading client with no writer beside it, for one slice: the
    /// baseline its latency under contention is compared with.
    pub fn reader_alone<T: Target>(&mut self, ctx: &mut Ctx, side: &mut Side<T>) -> Slice {
        let r = &mut self.reader;
        let q0 = r.tuples;
        r.call_ns.clear();
        let t = Instant::now();
        while t.elapsed() < ctx.slice {
            r.step(&mut side.eng, &mut ctx.rec);
        }
        let mut s = Slice {
            ops: r.tuples - q0,
            ns: t.elapsed().as_nanos() as u64,
            ..Slice::default()
        };
        s.set_latencies(&mut r.call_ns);
        s
    }

    /// Fold the clients' tallies in and check that every `count()` the
    /// reader saw is the closed-form count at some batch boundary — a
    /// snapshot is never torn across shards.
    pub fn finish(self, ctx: &mut Ctx) {
        let (w, r) = (self.writer, self.reader);
        let torn = r
            .seen_counts
            .iter()
            .filter(|c| !w.boundaries.contains(c))
            .count();
        ctx.tally.absorb(w.tally);
        ctx.tally.absorb(r.tally);
        ctx.tally.check(torn == 0, || {
            format!("{torn} count() reads matched no batch boundary")
        });
    }
}

// ---------------------------------------------------------------------
// persistence
// ---------------------------------------------------------------------

pub struct PersistOut {
    pub stats: SaveStats,
    pub wal_bytes: u64,
    /// `recover` through first `count()` and first enumerated answer.
    pub recover_s: Vec<f64>,
}

/// Save, journal 256 batches of 16 flips through a `FileWal` (default
/// `DurabilityPolicy`: one `sync_data` per batch), drop the engine, and
/// recover it `reps` times with the files in the OS cache. It runs on the
/// freshly built engine, so the bytes written are a function of the seed
/// alone, and hands back the shadow of the crashed state: a caller that
/// goes on with `T::recover` makes every later phase and oracle check
/// that recovery restored a working engine. A
/// traced run adds the comparisons the persist layer metrics need: the
/// same batches unjournaled, `load` alone, `scan_wal` alone.
pub fn persist_stage<T: Target>(
    ctx: &mut Ctx,
    mut side: Side<T>,
    files: &Files,
    reps: usize,
) -> Result<(PersistOut, Shadow), String> {
    let _ = std::fs::remove_file(&files.wal);
    let all = (0..ctx.world.tuples.len() as u32).collect();
    let mut flips = Flipper::new(ctx.rng("journal"), all);
    let mut batches = |ctx: &mut Ctx, side: &mut Side<T>, name: &'static str| {
        for _ in 0..WAL_BATCHES {
            let us = flips.batch(&mut side.shadow, WAL_BATCH, false);
            let eng = &mut side.eng;
            let res = ctx
                .rec
                .time(name, WAL_BATCH as u64, || eng.apply_batch(&us));
            ctx.tally.ops(1);
            if let Err(e) = res {
                ctx.tally.fail(|| format!("{name} rejected: {e}"));
            }
        }
    };
    if ctx.rec.on() {
        batches(ctx, &mut side, "op.plain_batch16");
    }
    let stats = SaveStats {
        plan_bytes: ctx
            .rec
            .time("persist.save_plan", 1, || side.eng.save_plan(files))?,
        snapshot_bytes: ctx
            .rec
            .time("persist.save_snapshot", 1, || side.eng.save_snapshot(files))?,
    };
    side.eng.attach_wal(files)?;
    batches(ctx, &mut side, "op.journaled_batch");
    side.eng.detach_wal();
    verify_stream(ctx, &mut side, "pre-crash");
    let Side {
        eng,
        shadow,
        stream,
        ..
    } = side;
    drop(eng);
    let live = stream.expect("verify_stream keeps the stream");
    let mut recover_s = Vec::with_capacity(reps);
    for rep in 0..reps {
        let t = Instant::now();
        let got = ctx.rec.scope("op.recover", |rec| {
            let eng = rec.time("op.recover.engine_only", 1, || T::recover(files))?;
            let count = eng.count();
            let first = eng.first_answer();
            Ok::<_, String>((eng, count, first))
        });
        recover_s.push(t.elapsed().as_secs_f64());
        ctx.tally.ops(3);
        let (eng, count, first) = match got {
            Ok(x) => x,
            Err(e) => {
                ctx.tally.fail(|| format!("recover failed: {e}"));
                continue;
            }
        };
        let same_first = first.as_deref().map(pack) == live.first().copied();
        ctx.tally.check(count == shadow.count() && same_first, || {
            format!(
                "recovered engine: count {count} (closed form {}), first answer {first:?}",
                shadow.count()
            )
        });
        if rep + 1 == reps {
            let mut again = Vec::with_capacity(live.len());
            eng.for_each_answer(&mut |t| again.push(pack(t)));
            ctx.tally.ops(1);
            ctx.tally.check(again == live, || {
                "recovered answer stream differs from the pre-crash one".into()
            });
        }
    }
    if ctx.rec.on() {
        for _ in 0..3 {
            ctx.rec
                .time("persist.load_engine", 1, || T::load(files).map(drop))?;
            ctx.rec
                .time("persist.scan_wal", 1, || {
                    agq_persist::scan_wal(&files.wal).map(drop)
                })
                .map_err(|e| e.to_string())?;
        }
    }
    let out = PersistOut {
        stats,
        wal_bytes: files.wal_bytes(),
        recover_s,
    };
    Ok((out, shadow))
}
