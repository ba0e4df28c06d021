//! The per-circuit warm cache: synthesized networks and their cut
//! databases, keyed by everything that determines them.
//!
//! Synthesis (the flow script) and cut enumeration are family- and
//! objective-independent: the same AIG submitted against all three gate
//! families shares one synthesized network and one [`CutDb`]. The cache
//! key therefore covers exactly the inputs of those stages — the AIGER
//! bytes, the flow script, the choices knob, and the cut shape
//! (`cut_k`, `max_cuts`) — and deliberately excludes family, objective,
//! verify, patterns and seed. A 3-family replay of one circuit pays for
//! one synthesis and one enumeration, not three.
//!
//! Concurrency model: entries are immutable snapshots behind an `Arc`.
//! A job *clones* the entry's cut database, maps with the clone (the
//! mapper tops it up in place), and publishes the topped-up database
//! back — so later submissions of the same circuit start from the
//! richest database seen so far. Cloning is cheap next to enumeration
//! (the Table-1 drivers use the same pattern).

use aig::{Aig, ChoiceAig, CutDb};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What one cache entry remembers: the flow's products for a circuit.
#[derive(Clone, Debug)]
pub struct SynthEntry {
    /// The synthesized network (flow output).
    pub synthesized: Aig,
    /// The structural-choice network, when the flow collected one.
    pub choices: Option<ChoiceAig>,
    /// The cut database keyed to `synthesized`, as rich as the last
    /// job that used it left it.
    pub cut_db: CutDb,
}

/// The cache key: the synthesis-stage inputs themselves, bucketed by
/// their FNV-1a 64 hash but compared in full on every hit (a
/// single-flight follower's included). FNV-1a is not collision-resistant,
/// and verification cannot catch a collision: a job verifies against the
/// *cached* synthesized network. Two colliding circuits are two entries.
/// The material is shared, so cloning a key bumps reference counts
/// instead of copying the AIGER payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheKey {
    hash: u64,
    aiger: Arc<[u8]>,
    flow: Arc<str>,
    choices: bool,
    cut_k: u8,
    max_cuts: u8,
}

impl CacheKey {
    /// The key of one submission's synthesis-stage inputs.
    pub fn new(aiger: &[u8], flow: &str, choices: bool, cut_k: u8, max_cuts: u8) -> Self {
        let mut h = Fnv1a::new();
        h.update(aiger);
        h.update(&[0xFE]); // domain separator between variable-length fields
        h.update(flow.as_bytes());
        h.update(&[0xFE, choices as u8, cut_k, max_cuts]);
        CacheKey {
            hash: h.finish(),
            aiger: aiger.into(),
            flow: flow.into(),
            choices,
            cut_k,
            max_cuts,
        }
    }
}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The warm cache itself: bounded, LRU-evicted, hit/miss counted, with
/// *single-flight* misses — when several jobs miss the same key at
/// once (the same circuit fanned out across families or clients), one
/// becomes the leader and synthesizes while the rest wait for its
/// published entry instead of duplicating the work.
pub struct SynthCache {
    inner: Mutex<Inner>,
    changed: Condvar,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

struct Inner {
    entries: HashMap<CacheKey, Slot>,
    /// Keys some job is currently building (single-flight leaders).
    pending: HashSet<CacheKey>,
    clock: u64,
}

/// The outcome of [`SynthCache::lookup`].
pub enum Lookup<'a> {
    /// The entry is resident (possibly published by a leader this job
    /// waited for).
    Hit(Arc<SynthEntry>),
    /// This job is the leader for the key: build the entry, then
    /// [`BuildLease::publish`] it. Dropping the lease unpublished
    /// (error/timeout paths) wakes the waiters so one of them takes
    /// over leadership.
    Build(BuildLease<'a>),
}

/// Leadership over a missing key (see [`Lookup::Build`]).
pub struct BuildLease<'a> {
    cache: &'a SynthCache,
    key: CacheKey,
    published: bool,
}

impl BuildLease<'_> {
    /// The leased key.
    pub fn key(&self) -> &CacheKey {
        &self.key
    }

    /// Publishes the built entry and wakes every waiter.
    pub fn publish(mut self, entry: Arc<SynthEntry>) {
        self.published = true;
        self.cache.put(self.key.clone(), entry);
    }
}

impl Drop for BuildLease<'_> {
    fn drop(&mut self) {
        if !self.published {
            let mut inner = self.cache.inner.lock().expect("cache lock");
            inner.pending.remove(&self.key);
            drop(inner);
            self.cache.changed.notify_all();
        }
    }
}

struct Slot {
    entry: Arc<SynthEntry>,
    last_used: u64,
}

impl SynthCache {
    /// An empty cache holding at most `capacity` circuits (minimum 1).
    pub fn new(capacity: usize) -> Self {
        SynthCache {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                pending: HashSet::new(),
                clock: 0,
            }),
            changed: Condvar::new(),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Single-flight lookup: a resident key is a [`Lookup::Hit`]; a
    /// missing key with no builder makes *this caller* the leader
    /// ([`Lookup::Build`]); a missing key someone else is building
    /// blocks until the leader publishes (then hits) or gives up (then
    /// this caller inherits leadership). Returns `None` when `deadline`
    /// lapses while waiting.
    pub fn lookup(&self, key: &CacheKey, deadline: Option<Instant>) -> Option<Lookup<'_>> {
        // Follower wait time (single-flight) lands in the
        // `synthd_cache_singleflight_wait_us` histogram; leader/follower
        // elections show as instant events on the request's span.
        let mut wait_started: Option<Instant> = None;
        let observe_wait = |wait_started: Option<Instant>| {
            if let Some(t0) = wait_started {
                obs::histogram("synthd_cache_singleflight_wait_us")
                    .observe(t0.elapsed().as_micros() as u64);
            }
        };
        let mut inner = self.inner.lock().expect("cache lock");
        loop {
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(slot) = inner.entries.get_mut(key) {
                slot.last_used = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                obs::event("cache/hit");
                observe_wait(wait_started);
                return Some(Lookup::Hit(Arc::clone(&slot.entry)));
            }
            if !inner.pending.contains(key) {
                inner.pending.insert(key.clone());
                self.misses.fetch_add(1, Ordering::Relaxed);
                obs::event("cache/leader");
                observe_wait(wait_started);
                return Some(Lookup::Build(BuildLease {
                    cache: self,
                    key: key.clone(),
                    published: false,
                }));
            }
            // Someone is building this key; wait in bounded slices so
            // a caller-side deadline stays honored.
            if wait_started.is_none() {
                obs::event("cache/follower");
                wait_started = Some(Instant::now());
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                observe_wait(wait_started);
                return None;
            }
            let (guard, _) = self
                .changed
                .wait_timeout(inner, Duration::from_millis(10))
                .expect("cache lock");
            inner = guard;
        }
    }

    /// Publishes an entry (insert or replace), evicting the
    /// least-recently-used circuit beyond capacity. Jobs call this both
    /// on a miss (fresh synthesis) and after a hit (to publish the
    /// topped-up cut database).
    pub fn put(&self, key: CacheKey, entry: Arc<SynthEntry>) {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.clock += 1;
        let clock = inner.clock;
        inner.pending.remove(&key);
        inner.entries.insert(
            key,
            Slot {
                entry,
                last_used: clock,
            },
        );
        while inner.entries.len() > self.capacity {
            let coldest = inner
                .entries
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty over capacity");
            inner.entries.remove(&coldest);
        }
        drop(inner);
        self.changed.notify_all();
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Circuits currently resident.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> Arc<SynthEntry> {
        let mut aig = Aig::new();
        let a = aig.input();
        aig.output(a);
        Arc::new(SynthEntry {
            cut_db: CutDb::new(aig::CutConfig { k: 4, max_cuts: 8 }),
            synthesized: aig,
            choices: None,
        })
    }

    #[test]
    fn keys_cover_every_synthesis_input() {
        let content_key =
            |aiger: &[u8], flow, choices, k, m| CacheKey::new(aiger, flow, choices, k, m).hash;
        let base = content_key(b"aig", "b; rw", false, 6, 8);
        assert_eq!(base, content_key(b"aig", "b; rw", false, 6, 8));
        assert_ne!(base, content_key(b"aiG", "b; rw", false, 6, 8));
        assert_ne!(base, content_key(b"aig", "b; rf", false, 6, 8));
        assert_ne!(base, content_key(b"aig", "b; rw", true, 6, 8));
        assert_ne!(base, content_key(b"aig", "b; rw", false, 5, 8));
        assert_ne!(base, content_key(b"aig", "b; rw", false, 6, 9));
        // Field boundaries are separated: moving a byte across the
        // aiger/flow boundary changes the key.
        assert_ne!(
            content_key(b"ab", "c", false, 6, 8),
            content_key(b"a", "bc", false, 6, 8)
        );
    }

    /// A key distinguished by its AIGER bytes alone.
    fn key(n: u8) -> CacheKey {
        CacheKey::new(&[n], "b", false, 6, 8)
    }

    /// Non-blocking probe: a miss's build lease is dropped on the spot
    /// (so leadership never lingers).
    fn get(cache: &SynthCache, key: &CacheKey) -> Option<Arc<SynthEntry>> {
        match cache.lookup(key, None).expect("no deadline") {
            Lookup::Hit(e) => Some(e),
            Lookup::Build(_lease) => None,
        }
    }

    #[test]
    fn lru_eviction_and_counters() {
        let cache = SynthCache::new(2);
        assert!(get(&cache, &key(1)).is_none());
        cache.put(key(1), entry());
        cache.put(key(2), entry());
        assert!(get(&cache, &key(1)).is_some()); // 1 now warmer than 2
        cache.put(key(3), entry()); // evicts 2
        assert!(get(&cache, &key(2)).is_none());
        assert!(get(&cache, &key(1)).is_some());
        assert!(get(&cache, &key(3)).is_some());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn misses_are_single_flight() {
        let cache = SynthCache::new(4);
        let lease = match cache.lookup(&key(7), None).expect("no deadline") {
            Lookup::Build(lease) => lease,
            Lookup::Hit(_) => panic!("empty cache cannot hit"),
        };
        assert_eq!(lease.key(), &key(7));
        // A follower blocks until the leader publishes, then hits.
        std::thread::scope(|scope| {
            let follower =
                scope.spawn(|| match cache.lookup(&key(7), None).expect("no deadline") {
                    Lookup::Hit(_) => true,
                    Lookup::Build(_) => false,
                });
            std::thread::sleep(Duration::from_millis(20));
            lease.publish(entry());
            assert!(
                follower.join().expect("follower"),
                "follower must hit the published entry"
            );
        });
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);

        // A dropped (failed) lease hands leadership to a waiter.
        let lease = match cache.lookup(&key(8), None).expect("no deadline") {
            Lookup::Build(lease) => lease,
            Lookup::Hit(_) => panic!("key 8 unseen"),
        };
        drop(lease);
        assert!(
            matches!(cache.lookup(&key(8), None), Some(Lookup::Build(_))),
            "leadership must be reacquirable after a failed build"
        );

        // A waiter with a lapsed deadline gives up instead of hanging.
        let _lease = match cache.lookup(&key(9), None).expect("no deadline") {
            Lookup::Build(lease) => lease,
            Lookup::Hit(_) => panic!("key 9 unseen"),
        };
        assert!(
            cache
                .lookup(&key(9), Some(Instant::now() - Duration::from_millis(1)))
                .is_none(),
            "lapsed deadline while waiting must return None"
        );
    }

    #[test]
    fn colliding_hashes_never_share_an_entry() {
        let one = key(1);
        let mut two = key(2);
        two.hash = one.hash;
        let cache = SynthCache::new(4);
        let Some(Lookup::Build(lease)) = cache.lookup(&one, None) else {
            panic!("empty cache cannot hit");
        };
        // While `one` is being built, `two` leads its own build rather
        // than waiting for `one`'s entry; once `one` is resident, `two`
        // still misses.
        let soon = Some(Instant::now() + Duration::from_secs(1));
        assert!(matches!(cache.lookup(&two, soon), Some(Lookup::Build(_))));
        let (entry_one, entry_two) = (entry(), entry());
        lease.publish(Arc::clone(&entry_one));
        assert!(get(&cache, &two).is_none());
        cache.put(two.clone(), Arc::clone(&entry_two));
        let hit = |k| get(&cache, k).expect("resident");
        assert!(Arc::ptr_eq(&hit(&one), &entry_one) && Arc::ptr_eq(&hit(&two), &entry_two));
        assert_eq!((cache.len(), cache.hits(), cache.misses()), (2, 2, 3));
    }
}
