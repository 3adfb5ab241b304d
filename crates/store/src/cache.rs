//! Sharded, capacity-bounded cache of decoded chunk columns.
//!
//! Every read path in this workspace ultimately funnels through
//! [`decode_chunk_columns`](crate::chunk::decode_chunk_columns): the
//! query engine's scans,
//! [`ChunkReader::read_chunks`](crate::reader::ChunkReader::read_chunks),
//! and the external-sort merge cursors. The decode is CPU-bound (CRC + six varint columns),
//! and the takedown-study workloads this repo reproduces hammer one
//! store with many overlapping window/victim queries — the same chunks
//! decoded over and over. This module amortises that: a process-wide
//! LRU of `Arc<ChunkColumns>` keyed by **(store identity, chunk
//! index)**, lock-striped into [`SHARD_COUNT`] shards so concurrent
//! readers rarely contend, with byte-cost accounting against the
//! `BOOTERS_CACHE_BYTES` budget.
//!
//! ## Coherence contract (DESIGN.md §5i)
//!
//! A cache hit must be indistinguishable from a miss — in content,
//! order, and errors. The design makes that true by construction:
//!
//! * **Keys are identities, not paths.** A [`StoreId`] is minted per
//!   *validated open* ([`StoreId::mint`]) and never reused, so a
//!   rewritten or recycled file path can never alias a stale entry.
//!   Two opens of the same file get distinct ids — a missed sharing
//!   opportunity, never a wrong answer.
//! * **Values are immutable.** An entry is the `Arc<ChunkColumns>` of a
//!   chunk that already passed the full validation chain (CRC, column
//!   domains, zone map). Hits hand back the same bytes a fresh decode
//!   would produce; eviction merely forgets, it cannot corrupt.
//! * **Failures are never cached.** A chunk that fails to decode is
//!   never published, so errors surface on every attempt exactly as
//!   they would uncached.
//! * **Capacity 0 is bit-for-bit off.** Every operation returns
//!   immediately — no locks taken, no counters recorded — preserving
//!   the pre-cache behavior exactly.
//!
//! Callers keep the determinism contract (§5b) by doing lookups and
//! publishes **sequentially on the calling thread**, outside `booters-par`
//! regions, in submission order — cache state (and the `cache.*`
//! counters) is then a pure function of the query sequence, invariant
//! under `BOOTERS_THREADS`.

use crate::chunk::ChunkColumns;
use crate::extsort::parse_budget;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Lock stripes. Keys spread over shards by a splitmix64-mixed hash, so
/// concurrent readers of different chunks almost always take different
/// locks. Each shard owns `capacity / SHARD_COUNT` bytes of the budget.
pub const SHARD_COUNT: usize = 16;

/// Approximate bookkeeping overhead charged per cached entry on top of
/// its column bytes (map + recency-index slots, `Arc` header, vec
/// headers). Deliberately coarse — the budget is a bound, not a ledger.
const ENTRY_OVERHEAD_BYTES: usize = 160;

/// Identity of one validated store open — the cache key's store half.
///
/// Minted from a process-global counter, never reused, so entries can
/// never alias across files, rewrites, or re-opens. Readers that own an
/// id should [`evict_store`] on drop when their backing file is about
/// to disappear (scratch stores, spill runs); entries left behind are
/// merely dead weight the LRU reclaims under pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StoreId(u64);

impl StoreId {
    /// Mint a fresh, process-unique identity.
    pub fn mint() -> StoreId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        StoreId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// Sentinel: capacity not yet resolved from the environment.
const CAP_UNSET: usize = usize::MAX;

/// Resolved byte budget; `CAP_UNSET` until first use.
static CAPACITY: AtomicUsize = AtomicUsize::new(CAP_UNSET);

/// Total bytes currently cached, across all shards. Maintained under
/// the shard locks; read lock-free for the fast off-path and tests.
static TOTAL_BYTES: AtomicUsize = AtomicUsize::new(0);

#[cold]
fn capacity_from_env() -> usize {
    let cap = std::env::var("BOOTERS_CACHE_BYTES")
        .ok()
        .and_then(|raw| parse_budget(&raw))
        .unwrap_or(0)
        .min(CAP_UNSET - 1);
    CAPACITY.store(cap, Ordering::Relaxed);
    cap
}

/// The cache's byte budget: `BOOTERS_CACHE_BYTES` (suffixes `k`/`m`/`g`
/// accepted, see [`parse_budget`]), resolved once; unset, empty, or
/// unparsable means `0` — cache off.
pub fn cache_bytes() -> usize {
    match CAPACITY.load(Ordering::Relaxed) {
        CAP_UNSET => capacity_from_env(),
        cap => cap,
    }
}

/// Set the byte budget programmatically (tests, embedding binaries),
/// overriding the environment. Clears the cache so accounting restarts
/// from zero under the new budget. Returns the previous budget.
pub fn set_cache_bytes(bytes: usize) -> usize {
    let prev = cache_bytes();
    CAPACITY.store(bytes.min(CAP_UNSET - 1), Ordering::Relaxed);
    clear();
    prev
}

/// One cached chunk.
struct Entry {
    cols: Arc<ChunkColumns>,
    bytes: usize,
    tick: u64,
}

/// One lock stripe: the entry map plus an LRU recency index
/// (`tick → key`, oldest first) and this stripe's byte total.
#[derive(Default)]
struct Shard {
    map: HashMap<(u64, u64), Entry>,
    order: BTreeMap<u64, (u64, u64)>,
    bytes: usize,
    tick: u64,
}

fn shards() -> &'static [Mutex<Shard>; SHARD_COUNT] {
    static SHARDS: OnceLock<[Mutex<Shard>; SHARD_COUNT]> = OnceLock::new();
    SHARDS.get_or_init(|| std::array::from_fn(|_| Mutex::new(Shard::default())))
}

/// A panic inside a shard's critical section cannot leave the whole
/// cache unusable: recover the guard and keep serving.
fn lock(i: usize) -> MutexGuard<'static, Shard> {
    shards()[i].lock().unwrap_or_else(|e| e.into_inner())
}

/// splitmix64 finalizer — the same mix the flow sharding uses; cheap
/// and uniform enough that sequential chunk indices land on distinct
/// stripes.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stripe index of a key. Public so model-based tests can replay the
/// per-shard LRU exactly; callers have no other use for it.
pub fn shard_of(store: StoreId, chunk: usize) -> usize {
    (mix64(store.0 ^ (chunk as u64).rotate_left(32)) % SHARD_COUNT as u64) as usize
}

/// Byte cost charged against the budget for one cached chunk: the six
/// columns' element bytes plus a fixed bookkeeping overhead.
pub fn entry_cost(cols: &ChunkColumns) -> usize {
    // times 8 + victims 4 + protocols 1 + sensors 4 + ttls 1 + ports 2.
    cols.len() * 20 + ENTRY_OVERHEAD_BYTES
}

/// Look up the decoded columns of `(store, chunk)`. A hit refreshes the
/// entry's recency and returns the shared columns; content is identical
/// to a fresh decode by construction (only validated, immutable columns
/// are ever published). Records `cache.hits` / `cache.misses`. Always
/// `None` when the budget is 0 (and records nothing).
pub fn lookup(store: StoreId, chunk: usize) -> Option<Arc<ChunkColumns>> {
    if cache_bytes() == 0 {
        return None;
    }
    let key = (store.0, chunk as u64);
    let mut shard = lock(shard_of(store, chunk));
    let s = &mut *shard;
    s.tick += 1;
    let fresh = s.tick;
    match s.map.get_mut(&key) {
        Some(e) => {
            s.order.remove(&e.tick);
            e.tick = fresh;
            s.order.insert(fresh, key);
            let cols = e.cols.clone();
            drop(shard);
            booters_obs::counter_add("cache.hits", 1);
            Some(cols)
        }
        None => {
            drop(shard);
            booters_obs::counter_add("cache.misses", 1);
            None
        }
    }
}

/// Publish freshly decoded columns under `(store, chunk)`. Evicts
/// least-recently-used entries from the key's shard until the insert
/// fits its slice of the budget; an entry larger than a whole shard's
/// slice is not cached at all. Publishing a key that is already present
/// only refreshes its recency — the existing entry is equal by
/// construction. No-op at budget 0.
pub fn publish(store: StoreId, chunk: usize, cols: &Arc<ChunkColumns>) {
    let cap = cache_bytes();
    if cap == 0 {
        return;
    }
    let shard_cap = cap / SHARD_COUNT;
    let cost = entry_cost(cols);
    let key = (store.0, chunk as u64);
    let mut evicted = 0u64;
    let total_after;
    {
        let mut shard = lock(shard_of(store, chunk));
        let s = &mut *shard;
        s.tick += 1;
        let fresh = s.tick;
        if let Some(e) = s.map.get_mut(&key) {
            s.order.remove(&e.tick);
            e.tick = fresh;
            s.order.insert(fresh, key);
            return;
        }
        if cost > shard_cap {
            return;
        }
        while s.bytes + cost > shard_cap {
            let (&tick, &victim) = s.order.iter().next().expect("bytes > 0 implies entries");
            s.order.remove(&tick);
            let gone = s.map.remove(&victim).expect("recency index tracks the map");
            s.bytes -= gone.bytes;
            TOTAL_BYTES.fetch_sub(gone.bytes, Ordering::Relaxed);
            evicted += 1;
        }
        s.map.insert(
            key,
            Entry {
                cols: Arc::clone(cols),
                bytes: cost,
                tick: fresh,
            },
        );
        s.order.insert(fresh, key);
        s.bytes += cost;
        total_after = TOTAL_BYTES.fetch_add(cost, Ordering::Relaxed) + cost;
    }
    if evicted > 0 {
        booters_obs::counter_add("cache.evictions", evicted);
    }
    booters_obs::counter_add("cache.inserted_bytes", cost as u64);
    booters_obs::gauge_max("cache.peak_bytes", total_after as u64);
}

/// Drop every entry belonging to `store` — called by owners whose
/// backing file is going away (scratch stores, spill runs). Not an LRU
/// eviction: records no counters, exactly like the uncached world.
pub fn evict_store(store: StoreId) {
    if TOTAL_BYTES.load(Ordering::Relaxed) == 0 {
        return;
    }
    for i in 0..SHARD_COUNT {
        let mut shard = lock(i);
        let s = &mut *shard;
        let doomed: Vec<(u64, (u64, u64))> = s
            .map
            .iter()
            .filter(|((sid, _), _)| *sid == store.0)
            .map(|(k, e)| (e.tick, *k))
            .collect();
        for (tick, key) in doomed {
            s.order.remove(&tick);
            let gone = s.map.remove(&key).expect("just listed");
            s.bytes -= gone.bytes;
            TOTAL_BYTES.fetch_sub(gone.bytes, Ordering::Relaxed);
        }
    }
}

/// Drop every entry. Records no counters.
pub fn clear() {
    for i in 0..SHARD_COUNT {
        let mut shard = lock(i);
        let s = &mut *shard;
        TOTAL_BYTES.fetch_sub(s.bytes, Ordering::Relaxed);
        s.map.clear();
        s.order.clear();
        s.bytes = 0;
    }
}

/// Bytes currently cached across all shards (charged cost, including
/// per-entry overhead).
pub fn total_cached_bytes() -> usize {
    TOTAL_BYTES.load(Ordering::Relaxed)
}

/// Entries currently cached across all shards.
pub fn cached_chunks() -> usize {
    (0..SHARD_COUNT).map(|i| lock(i).map.len()).sum()
}

/// Whether `(store, chunk)` is resident right now, without touching
/// recency or counters. Test/introspection surface.
pub fn contains(store: StoreId, chunk: usize) -> bool {
    if cache_bytes() == 0 {
        return false;
    }
    lock(shard_of(store, chunk))
        .map
        .contains_key(&(store.0, chunk as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Capacity and the shard array are process-global; tests that
    /// mutate them serialise here and restore the previous budget.
    static CACHE_LOCK: Mutex<()> = Mutex::new(());

    fn cols(rows: usize, tag: u8) -> Arc<ChunkColumns> {
        Arc::new(ChunkColumns {
            times: (0..rows as u64).collect(),
            victims: vec![tag as u32; rows],
            protocols: vec![tag; rows],
            sensors: vec![tag as u32; rows],
            ttls: vec![tag; rows],
            ports: vec![tag as u16; rows],
        })
    }

    fn with_budget<T>(bytes: usize, f: impl FnOnce() -> T) -> T {
        let _g = CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = set_cache_bytes(bytes);
        let out = f();
        set_cache_bytes(prev);
        out
    }

    #[test]
    fn budget_zero_is_fully_inert() {
        with_budget(0, || {
            let id = StoreId::mint();
            let c = cols(8, 1);
            publish(id, 0, &c);
            assert!(lookup(id, 0).is_none());
            assert!(!contains(id, 0));
            assert_eq!(total_cached_bytes(), 0);
            assert_eq!(cached_chunks(), 0);
        });
    }

    #[test]
    fn hit_returns_the_published_columns() {
        with_budget(1 << 20, || {
            let id = StoreId::mint();
            let c = cols(16, 7);
            assert!(lookup(id, 3).is_none(), "fresh key must miss");
            publish(id, 3, &c);
            let hit = lookup(id, 3).expect("published key must hit");
            assert!(Arc::ptr_eq(&hit, &c), "hit shares the published allocation");
            assert!(lookup(id, 4).is_none(), "other chunk misses");
            assert!(lookup(StoreId::mint(), 3).is_none(), "other store misses");
        });
    }

    #[test]
    fn distinct_opens_never_alias() {
        with_budget(1 << 20, || {
            let a = StoreId::mint();
            let b = StoreId::mint();
            assert_ne!(a, b);
            publish(a, 0, &cols(4, 1));
            publish(b, 0, &cols(4, 2));
            assert_eq!(lookup(a, 0).unwrap().victims[0], 1);
            assert_eq!(lookup(b, 0).unwrap().victims[0], 2);
        });
    }

    #[test]
    fn capacity_is_never_exceeded_and_lru_evicts_oldest() {
        // Shard-local LRU: drive one shard's slice over budget via one
        // key's shard by reusing a single (store, chunk) shard — easiest
        // with whole-cache accounting instead: insert until the global
        // bound must hold.
        let rows = 100; // cost = 2000 + overhead
        let cost = entry_cost(&cols(rows, 0));
        let budget = cost * SHARD_COUNT * 3; // ~3 entries per shard slice
        with_budget(budget, || {
            let id = StoreId::mint();
            for chunk in 0..200usize {
                publish(id, chunk, &cols(rows, chunk as u8));
                assert!(
                    total_cached_bytes() <= budget,
                    "cached {} exceeds budget {budget} after chunk {chunk}",
                    total_cached_bytes()
                );
            }
            assert!(cached_chunks() > 0, "some entries must be resident");
            assert!(cached_chunks() < 200, "eviction must have run");
        });
    }

    #[test]
    fn recency_protects_hot_entries() {
        // One shard's slice fits two entries; keep touching entry A and
        // publish B, C into the same shard: A must survive, B must go.
        let rows = 100;
        let cost = entry_cost(&cols(rows, 0));
        with_budget(cost * 2 * SHARD_COUNT, || {
            let id = StoreId::mint();
            // Find three chunks mapping to the same shard.
            let target = shard_of(id, 0);
            let same: Vec<usize> =
                (0..10_000).filter(|&c| shard_of(id, c) == target).take(3).collect();
            let (a, b, c) = (same[0], same[1], same[2]);
            publish(id, a, &cols(rows, 1));
            publish(id, b, &cols(rows, 2));
            assert!(lookup(id, a).is_some(), "touch A: now B is the LRU");
            publish(id, c, &cols(rows, 3));
            assert!(contains(id, a), "recently used entry must survive");
            assert!(!contains(id, b), "least recently used entry must go");
            assert!(contains(id, c), "fresh insert must be resident");
        });
    }

    #[test]
    fn republishing_a_resident_key_refreshes_it_whatever_its_size() {
        // A resident key's re-publish only refreshes recency, as the docs
        // say, even when the columns passed would be too big to insert:
        // with A refreshed, B is the LRU entry that C evicts.
        let rows = 100;
        let cost = entry_cost(&cols(rows, 0));
        with_budget(cost * 2 * SHARD_COUNT, || {
            let id = StoreId::mint();
            let target = shard_of(id, 0);
            let same: Vec<usize> =
                (0..10_000).filter(|&c| shard_of(id, c) == target).take(3).collect();
            let (a, b, c) = (same[0], same[1], same[2]);
            publish(id, a, &cols(rows, 1));
            publish(id, b, &cols(rows, 2));
            publish(id, a, &cols(rows * 3, 1));
            publish(id, c, &cols(rows, 3));
            assert!(contains(id, a), "refreshed entry must survive");
            assert!(!contains(id, b), "least recently used entry must go");
            assert_eq!(total_cached_bytes(), 2 * cost);
        });
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let rows = 100;
        let cost = entry_cost(&cols(rows, 0));
        // Budget so small one shard's slice cannot hold the entry.
        with_budget(cost, || {
            let id = StoreId::mint();
            publish(id, 0, &cols(rows, 1));
            assert!(!contains(id, 0));
            assert_eq!(total_cached_bytes(), 0);
        });
    }

    #[test]
    fn evict_store_removes_exactly_that_store() {
        with_budget(1 << 20, || {
            let a = StoreId::mint();
            let b = StoreId::mint();
            for chunk in 0..20usize {
                publish(a, chunk, &cols(10, 1));
                publish(b, chunk, &cols(10, 2));
            }
            let before = total_cached_bytes();
            evict_store(a);
            assert_eq!(total_cached_bytes(), before / 2);
            assert!((0..20).all(|c| !contains(a, c)));
            assert!((0..20).all(|c| contains(b, c)));
            evict_store(b);
            assert_eq!(total_cached_bytes(), 0);
        });
    }

    #[test]
    fn clear_resets_all_accounting() {
        with_budget(1 << 20, || {
            let id = StoreId::mint();
            for chunk in 0..10usize {
                publish(id, chunk, &cols(10, 0));
            }
            assert!(total_cached_bytes() > 0);
            clear();
            assert_eq!(total_cached_bytes(), 0);
            assert_eq!(cached_chunks(), 0);
            assert!(lookup(id, 0).is_none());
        });
    }
}
