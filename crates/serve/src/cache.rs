//! The persistent optimisation-result cache, with configurable entry/byte
//! budgets, frequency-based admission and LRU eviction.
//!
//! Results are keyed by the *request* graph's [`Graph::canonical_hash`], so
//! structurally identical graphs — regardless of node numbering, insertion
//! order, or names — share one entry. The cache serialises to a versioned
//! JSON document (graphs embedded in the interchange format of
//! [`xrlflow_graph::json`]; see `docs/FORMATS.md` for the full schema) so a
//! restarted server can reload it and keep answering repeat requests
//! without re-running the policy. Graphs go through the one graph codec,
//! as request and response graphs do: [`ResultCache::to_json`] writes the
//! snapshot's own fields in place and splices each entry's
//! [`Graph::to_json`] bytes, and loading parses the snapshot's own fields
//! as a [`JsonValue`] and hands each `graph` member to [`Graph::from_json`]
//! as text.
//!
//! Cache keys are serialised as **decimal strings**, not JSON numbers:
//! canonical hashes use all 64 bits and JSON numbers are `f64`, which is
//! only exact up to 2^53.
//!
//! ## Budgets, admission and eviction
//!
//! A [`CacheConfig`] bounds the cache by entry count and/or by (estimated)
//! bytes. Recency is advanced by [`ResultCache::get`] (every served hit
//! refreshes its entry) and by inserts. Under an entry budget, frequency is
//! estimated too, and inserts are admitted by W-TinyLFU (Einziger, Friedman
//! and Manes, *TinyLFU: A Highly Efficient Cache Admission Policy*, ACM TOS
//! 2017): a fixed-size count-min sketch counts how often each key was
//! requested recently, resident or not. A request counts once, when it
//! first looks its key up ([`ResultCache::get`]; in the service, a
//! body-index hit or the canonical-hash path's first look), never on a
//! re-check.
//!
//! A new result is on probation for its first `max_entries / 8` inserts (at
//! least one), the paper's admission window: no insert evicts an entry on
//! probation while another entry is left, so a new result outlives a
//! single-flight cohort's loop-back and a client's prompt repeat. When the
//! insert that ends an entry's probation pushes the cache over a budget,
//! that entry competes with the least-recently-used entry off probation: it
//! stays only if its key was requested **strictly more often**, and the LRU
//! entry is evicted instead; on a tie or less it is the one evicted (the
//! `serve/cache_rejected` counter). Any further eviction is
//! least-recently-used among the entries off probation. So a burst of
//! one-off graphs costs the hot set one entry at most, where plain LRU
//! flushed it. [`ResultCache::set_config`] and the load clamp evict in
//! recency order alone, and a byte budget alone is plain LRU.
//!
//! The sketch holds 4 rows of 4-bit counters, sized from the entry budget,
//! with every counter halved after each 10 × `max_entries` recorded
//! requests, so old popularity fades. Keys are hashed with fixed constants:
//! the same request sequence always evicts the same keys. A cache without
//! an entry budget builds no sketch and records nothing. Neither recency
//! nor frequencies are persisted — a reloaded snapshot starts with recency
//! in document order and no frequencies, so when a snapshot is loaded into
//! a smaller budget the clamp keeps the entries latest in the document —
//! and a budget change or [`ResultCache`] rebuild (a restart,
//! `clear_cache`) starts the frequencies afresh. Every eviction bumps the
//! `serve/cache_evictions` counter and the `serve/cache_entries` /
//! `serve/cache_bytes` gauges track live occupancy, so budget pressure is
//! visible in the `/metrics` snapshot.
//!
//! ## The body index
//!
//! A build pipeline that re-submits the same exported model sends the same
//! bytes, and parsing, validating and canonically hashing them again only
//! re-derives a key the cache has already seen. So each entry can carry two
//! memos: the exact request body that last resolved to it, and its hit-form
//! response document, rendered once (the graph's [`Graph::to_json`] bytes
//! spliced in, as the snapshot splices them). A private `digest -> key` map finds the
//! candidate entry for an incoming body; the body is untrusted and the digest
//! is a forgeable 64-bit non-cryptographic hash, so the digest only *finds*
//! the candidate and a **full byte comparison decides**. The index is an
//! accelerator in front of the canonical hash, never a second key space:
//! entries are owned by their key, and the memos live and die with their
//! entry (evicted, overwritten and cleared together). Memos count against
//! the byte budget — one is attached only while the budget still holds, so
//! the budget is never exceeded, not even transiently — and they are not
//! persisted: a reloaded snapshot answers its first request per graph
//! through the canonical hash and re-attaches.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use xrlflow_core::ConfigError;
use xrlflow_graph::{Graph, JsonValue};

use crate::env_usize;
use crate::error::ServeError;

/// The persistence format version this build writes and accepts.
pub const CACHE_JSON_VERSION: u64 = 1;

/// The `"format"` marker identifying a cache snapshot document.
pub const CACHE_JSON_FORMAT: &str = "xrlflow-serve-cache";

/// One cached optimisation outcome.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The optimised graph.
    pub graph: Arc<Graph>,
    /// Simulated latency of the request graph (ms).
    pub initial_latency_ms: f64,
    /// Simulated latency of the optimised graph (ms).
    pub final_latency_ms: f64,
    /// Number of substitutions the policy applied.
    pub steps: usize,
}

impl CacheEntry {
    /// Deterministic structural estimate of this entry's in-memory
    /// footprint, used for the [`CacheConfig`] byte budget.
    ///
    /// The estimate is intentionally *structural* (node and edge counts at
    /// fixed per-item costs), not an exact heap measurement: it is cheap,
    /// identical across platforms and allocator states, and scales with the
    /// thing that actually dominates an entry — the optimised graph.
    pub fn approx_bytes(&self) -> usize {
        const ENTRY_OVERHEAD: usize = 128;
        const PER_NODE: usize = 160;
        const PER_EDGE: usize = 24;
        ENTRY_OVERHEAD + self.graph.num_nodes() * PER_NODE + self.graph.num_edges() * PER_EDGE
    }
}

/// Entry-count and byte budgets for a [`ResultCache`].
///
/// Built via the validating [`CacheConfig::builder`] (zero budgets are
/// rejected — a cache that can hold nothing is a misconfiguration, not a
/// policy) or read from the environment with [`CacheConfig::from_env`].
/// `None` means unbounded on that axis; [`CacheConfig::unbounded`] (the
/// [`ResultCache::new`] default) bounds neither.
///
/// # Examples
///
/// ```
/// use xrlflow_serve::CacheConfig;
///
/// let config = CacheConfig::builder().max_entries(1024).max_bytes(64 << 20).build().unwrap();
/// assert_eq!(config.max_entries(), Some(1024));
/// assert!(CacheConfig::builder().max_entries(0).build().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheConfig {
    max_entries: Option<usize>,
    max_bytes: Option<usize>,
}

impl CacheConfig {
    /// No budget on either axis — the pre-PR-9 behaviour.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Starts a validating builder with both axes unbounded.
    pub fn builder() -> CacheConfigBuilder {
        CacheConfigBuilder { max_entries: None, max_bytes: None }
    }

    /// Reads budgets from `XRLFLOW_CACHE_MAX_ENTRIES` and
    /// `XRLFLOW_CACHE_MAX_BYTES`. Unset variables leave the axis unbounded;
    /// set-but-invalid values (non-numeric, zero) are a typed error rather
    /// than a silently unbounded cache.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the offending variable.
    pub fn from_env() -> Result<Self, ConfigError> {
        let mut builder = Self::builder();
        if let Some(n) = env_usize("XRLFLOW_CACHE_MAX_ENTRIES", "cache.max_entries")? {
            builder = builder.max_entries(n);
        }
        if let Some(n) = env_usize("XRLFLOW_CACHE_MAX_BYTES", "cache.max_bytes")? {
            builder = builder.max_bytes(n);
        }
        builder.build()
    }

    /// The entry-count budget, if bounded.
    pub fn max_entries(&self) -> Option<usize> {
        self.max_entries
    }

    /// The byte budget (against [`CacheEntry::approx_bytes`]), if bounded.
    pub fn max_bytes(&self) -> Option<usize> {
        self.max_bytes
    }
}

/// Validating builder for [`CacheConfig`] — see [`CacheConfig::builder`].
#[derive(Debug, Clone)]
pub struct CacheConfigBuilder {
    max_entries: Option<usize>,
    max_bytes: Option<usize>,
}

impl CacheConfigBuilder {
    /// Bounds the cache to at most `n` entries.
    pub fn max_entries(mut self, n: usize) -> Self {
        self.max_entries = Some(n);
        self
    }

    /// Bounds the cache to approximately `n` bytes of entries
    /// (per [`CacheEntry::approx_bytes`]).
    pub fn max_bytes(mut self, n: usize) -> Self {
        self.max_bytes = Some(n);
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when a configured budget is zero.
    pub fn build(self) -> Result<CacheConfig, ConfigError> {
        if self.max_entries == Some(0) {
            return Err(ConfigError {
                field: "cache.max_entries",
                message: "must be positive when set (omit it for an unbounded cache)".to_string(),
            });
        }
        if self.max_bytes == Some(0) {
            return Err(ConfigError {
                field: "cache.max_bytes",
                message: "must be positive when set (omit it for an unbounded cache)".to_string(),
            });
        }
        Ok(CacheConfig { max_entries: self.max_entries, max_bytes: self.max_bytes })
    }
}

#[derive(Debug)]
struct Slot {
    entry: CacheEntry,
    tick: u64,
    /// The number of the insert that stored the entry (0: loaded from a
    /// snapshot).
    inserted: u64,
    /// The entry's structural estimate plus the lengths of both memos.
    bytes: usize,
    /// The request body that last resolved to this entry, with its digest.
    body: Option<(u64, Box<[u8]>)>,
    /// The hit-form response document, rendered on the first served hit.
    rendered: Option<Arc<str>>,
}

/// A served lookup: the entry (its graph shared with the cache), the key it
/// lives under and its response document if one has been rendered.
#[derive(Debug)]
pub(crate) struct Found {
    pub(crate) key: u64,
    pub(crate) entry: CacheEntry,
    pub(crate) rendered: Option<Arc<str>>,
}

/// Digest of a request body for the body index: four independent
/// word-at-a-time multiplicative lanes (so the multiplies overlap instead of
/// queueing behind one another) folded with the length. Not cryptographic —
/// a lookup is only ever confirmed by comparing the bytes.
pub(crate) fn body_digest(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let word = |chunk: &[u8]| u64::from_le_bytes(chunk.try_into().expect("chunk of eight"));
    let mix = |lane: u64, word: u64| (lane ^ word).wrapping_mul(PRIME).rotate_left(29);
    let mut lanes =
        [0xCBF2_9CE4_8422_2325u64, 0x9E37_79B9_7F4A_7C15, 0xC2B2_AE3D_27D4_EB4F, 0x1656_67B1_9E37_79F9];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, chunk) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, word(chunk));
        }
    }
    let mut hash = bytes.len() as u64;
    for lane in lanes {
        hash = mix(hash, lane);
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for chunk in &mut words {
        hash = mix(hash, word(chunk));
    }
    for &byte in words.remainder() {
        hash = mix(hash, u64::from(byte));
    }
    hash
}

/// Rows of the sketch: a key's estimate is the least of its 4 counters.
const SKETCH_ROWS: usize = 4;
/// A counter's ceiling: the TinyLFU paper's 4-bit counters, enough because
/// the periodic halving keeps every count within a small multiple of the
/// sample's share.
const COUNTER_MAX: u64 = 15;
/// Recorded requests between halvings, per unit of capacity: the TinyLFU
/// paper's sample of 10 × capacity.
const SAMPLE_PER_ENTRY: usize = 10;
/// Counters per row per unit of capacity (rounded up to a power of two):
/// wide enough that a burst of one-off keys seldom lifts all four of one
/// key's counters past a key asked for a few times.
const COUNTERS_PER_ENTRY: usize = 8;
/// The widest a row grows, whatever the budget says: 4 rows of it are
/// 2 MiB.
const MAX_ROW_COUNTERS: usize = 1 << 20;
/// Entry budget per insert on probation: W-TinyLFU's admission window is
/// an eighth of the cache (at least one entry). The paper's 1 % window would
/// hold one entry of a 128-entry cache, so a new result would be on trial
/// from the very next insert; an eighth outlasts a single-flight cohort and
/// a client's prompt repeat, and costs a log-uniform stream about half a
/// point of hit ratio against a one-entry window.
const ENTRIES_PER_WINDOW_SLOT: usize = 8;
/// Per-row hash seeds (odd 64-bit constants), fixed so that eviction is a
/// function of the request sequence alone.
const ROW_SEEDS: [u64; SKETCH_ROWS] =
    [0x9E37_79B9_7F4A_7C15, 0xC2B2_AE3D_27D4_EB4F, 0x1656_67B1_9E37_79F9, 0x27D4_EB2F_1656_67C5];

/// TinyLFU's frequency sketch: a count-min sketch of 4-bit counters,
/// sixteen to a word, sized once when it is built.
#[derive(Debug)]
struct FrequencySketch {
    /// `SKETCH_ROWS` rows of `row_mask + 1` counters each.
    words: Box<[u64]>,
    row_mask: usize,
    /// Requests recorded since the last halving, and the halving period.
    recorded: usize,
    sample: usize,
}

impl FrequencySketch {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let row =
            capacity.saturating_mul(COUNTERS_PER_ENTRY).min(MAX_ROW_COUNTERS).next_power_of_two().max(16);
        Self {
            words: vec![0; SKETCH_ROWS * row / 16].into_boxed_slice(),
            row_mask: row - 1,
            recorded: 0,
            sample: capacity.saturating_mul(SAMPLE_PER_ENTRY),
        }
    }

    /// Where `key`'s counter lives in each row: a word and a bit shift.
    fn counters(&self, key: u64) -> [(usize, u32); SKETCH_ROWS] {
        std::array::from_fn(|row| {
            // SplitMix64's finaliser over the seeded key.
            let mut h = key ^ ROW_SEEDS[row];
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            h ^= h >> 31;
            let at = row * (self.row_mask + 1) + (h as usize & self.row_mask);
            (at / 16, (at % 16) as u32 * 4)
        })
    }

    fn read(&self, (word, shift): (usize, u32)) -> u64 {
        (self.words[word] >> shift) & COUNTER_MAX
    }

    /// The count-min estimate: the least of a key's counters.
    fn least(&self, counters: &[(usize, u32); SKETCH_ROWS]) -> u64 {
        counters.iter().map(|&at| self.read(at)).min().expect("the sketch has rows")
    }

    /// Counts one request for `key` — only in the counters holding its
    /// estimate, the paper's minimal increment, so keys sharing a counter
    /// inflate each other less — halving every counter at the end of each
    /// sample.
    fn record(&mut self, key: u64) {
        let counters = self.counters(key);
        let estimate = self.least(&counters);
        if estimate < COUNTER_MAX {
            for (word, shift) in counters {
                if self.read((word, shift)) == estimate {
                    self.words[word] += 1 << shift;
                }
            }
        }
        self.recorded += 1;
        if self.recorded >= self.sample {
            self.recorded = 0;
            for word in self.words.iter_mut() {
                *word = (*word >> 1) & 0x7777_7777_7777_7777;
            }
        }
    }

    /// How often `key` was requested recently (an over-estimate at worst).
    fn estimate(&self, key: u64) -> u64 {
        self.least(&self.counters(key))
    }
}

/// W-TinyLFU's state for an entry budget: the frequency sketch, and the
/// window of recent inserts on probation.
#[derive(Debug)]
struct Admission {
    sketch: FrequencySketch,
    /// The inserts on probation, oldest first, as (key, insert number).
    window: VecDeque<(u64, u64)>,
    /// How many inserts the window holds.
    window_len: usize,
}

impl Admission {
    fn new(max_entries: usize) -> Self {
        let window_len = (max_entries / ENTRIES_PER_WINDOW_SLOT).max(1);
        Self {
            sketch: FrequencySketch::new(max_entries),
            window: VecDeque::with_capacity(window_len + 1),
            window_len,
        }
    }

    /// Puts insert number `number`, of `key`, on probation; returns the
    /// insert whose probation that ended, if the window was full.
    fn enter(&mut self, key: u64, number: u64) -> Option<(u64, u64)> {
        self.window.push_back((key, number));
        if self.window.len() > self.window_len {
            self.window.pop_front()
        } else {
            None
        }
    }

    /// Whether the entry stored by insert number `number` is on probation.
    /// Every insert enters the window, so those are the inserts from the
    /// window's oldest on.
    fn on_probation(&self, number: u64) -> bool {
        self.window.front().is_some_and(|&(_, first)| number >= first)
    }
}

/// An in-memory result cache keyed by canonical graph hash: budget-bounded
/// with LRU eviction behind W-TinyLFU admission (under an entry budget),
/// snapshot-persistable to disk.
#[derive(Debug, Default)]
pub struct ResultCache {
    entries: HashMap<u64, Slot>,
    /// Recency index: monotonic tick -> key. The smallest tick is the
    /// least-recently-used entry, so eviction is a `pop_first`.
    recency: BTreeMap<u64, u64>,
    /// The body index: digest of an attached request body -> the key of the
    /// entry carrying it. Every mapping points at a live entry whose body
    /// memo has that digest; an entry whose mapping a colliding body took
    /// over simply stops being reachable through the index.
    by_digest: HashMap<u64, u64>,
    next_tick: u64,
    total_bytes: usize,
    config: CacheConfig,
    /// Frequency-based admission: built with an entry budget, never
    /// without one.
    admission: Option<Admission>,
    /// Inserts made so far: the next one is number `inserts + 1`.
    inserts: u64,
}

impl ResultCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache with the given budgets.
    pub fn with_config(config: CacheConfig) -> Self {
        Self { config, admission: config.max_entries.map(Admission::new), ..Self::default() }
    }

    /// The budgets currently in force.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Replaces the budgets, immediately evicting least-recently-used
    /// entries until the new budgets hold. Returns the number of entries
    /// evicted — the load path uses this to report how hard a reloaded
    /// snapshot was clamped. New budgets start admission afresh: a sketch
    /// sized for them, and no entry on probation.
    pub fn set_config(&mut self, config: CacheConfig) -> usize {
        if config != self.config {
            self.admission = config.max_entries.map(Admission::new);
        }
        self.config = config;
        let evicted = self.evict_to_budget(None);
        self.record_occupancy();
        evicted
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Estimated bytes held by all entries (see [`CacheEntry::approx_bytes`])
    /// plus the exact bytes of their body-index memos.
    pub fn total_bytes(&self) -> usize {
        self.total_bytes
    }

    /// Looks up the result for a request graph's canonical hash, counting
    /// the request towards the key's frequency and refreshing the entry's
    /// recency: a request is the signal a result is worth keeping, so `get`
    /// is `&mut self`. Use [`ResultCache::peek`] for a neutral read.
    pub fn get(&mut self, key: u64) -> Option<&CacheEntry> {
        self.record(key);
        self.touch(key).map(|slot| &slot.entry)
    }

    /// Looks up a result without touching recency or frequency (tests,
    /// inspection).
    pub fn peek(&self, key: u64) -> Option<&CacheEntry> {
        self.entries.get(&key).map(|slot| &slot.entry)
    }

    /// Marks `key`'s entry most recently used.
    fn touch(&mut self, key: u64) -> Option<&mut Slot> {
        let slot = self.entries.get_mut(&key)?;
        self.recency.remove(&slot.tick);
        slot.tick = self.next_tick;
        self.recency.insert(slot.tick, key);
        self.next_tick += 1;
        Some(slot)
    }

    /// The sketch's estimate of how often `key` was requested.
    #[cfg(test)]
    pub(crate) fn frequency(&self, key: u64) -> u64 {
        self.admission.as_ref().map_or(0, |admission| admission.sketch.estimate(key))
    }

    /// Counts one request for `key` towards its frequency (a no-op without
    /// an entry budget).
    pub(crate) fn record(&mut self, key: u64) {
        if let Some(admission) = &mut self.admission {
            admission.sketch.record(key);
        }
    }

    /// The service's lookup: the entry by value, with its key and rendered
    /// document. Refreshes recency like [`ResultCache::get`] but does not
    /// count the request: the service counts each request once, with
    /// [`ResultCache::record`], however often it looks.
    pub(crate) fn find(&mut self, key: u64) -> Option<Found> {
        let slot = self.touch(key)?;
        Some(Found { key, entry: slot.entry.clone(), rendered: slot.rendered.clone() })
    }

    /// Looks a request body up in the body index: `digest` (normally
    /// [`body_digest`] of `body`) finds the candidate entry and a full byte
    /// comparison against its memoised body decides. A match is a served
    /// hit and counts and refreshes exactly as [`ResultCache::get`] does; the
    /// service counts a request that does not match before its
    /// canonical-hash lookup.
    pub(crate) fn find_by_body(&mut self, digest: u64, body: &[u8]) -> Option<Found> {
        let key = *self.by_digest.get(&digest)?;
        let (_, memo) = self.entries.get(&key)?.body.as_ref()?;
        if **memo != *body {
            return None;
        }
        self.record(key);
        self.find(key)
    }

    /// Whether attached memos may grow by `added` bytes after shrinking by
    /// `freed` without breaking the byte budget.
    fn memo_fits(&self, freed: usize, added: usize) -> bool {
        self.config.max_bytes.is_none_or(|max| self.total_bytes - freed + added <= max)
    }

    /// Memoises `body` (which resolved to `key` through the canonical hash,
    /// so it passed import validation) as the entry's request text,
    /// replacing an earlier text. Skipped — leaving what was attached —
    /// when the entry is gone or the byte budget would not hold.
    pub(crate) fn attach_body(&mut self, key: u64, digest: u64, body: &[u8]) -> bool {
        let Some(slot) = self.entries.get(&key) else { return false };
        let freed = slot.body.as_ref().map_or(0, |(_, old)| old.len());
        if !self.memo_fits(freed, body.len()) {
            return false;
        }
        let slot = self.entries.get_mut(&key).expect("looked up above");
        let replaced = slot.body.replace((digest, body.into()));
        slot.bytes = slot.bytes - freed + body.len();
        self.unindex(key, &replaced);
        self.total_bytes = self.total_bytes - freed + body.len();
        self.by_digest.insert(digest, key);
        self.record_occupancy();
        true
    }

    /// Memoises the hit-form response document of `key`'s entry, unless the
    /// entry was replaced since `graph` was read from it, already has one,
    /// or the byte budget would not hold.
    pub(crate) fn attach_rendered(&mut self, key: u64, graph: &Arc<Graph>, rendered: Arc<str>) -> bool {
        let fits = self.memo_fits(0, rendered.len());
        let Some(slot) = self.entries.get_mut(&key) else { return false };
        if !fits || slot.rendered.is_some() || !Arc::ptr_eq(&slot.entry.graph, graph) {
            return false;
        }
        slot.bytes += rendered.len();
        self.total_bytes += rendered.len();
        slot.rendered = Some(rendered);
        self.record_occupancy();
        true
    }

    /// Drops the body-index mapping for `memo`, the body attached to `key`'s
    /// entry, if it still points at `key` (a colliding body may have taken
    /// the digest over).
    fn unindex(&mut self, key: u64, memo: &Option<(u64, Box<[u8]>)>) {
        if let Some((digest, _)) = memo {
            if self.by_digest.get(digest) == Some(&key) {
                self.by_digest.remove(digest);
            }
        }
    }

    /// Settles the books for `key`'s slot, just taken out of `entries`: its
    /// bytes, memos included, and its index mapping go with it.
    fn release(&mut self, key: u64, slot: Slot) {
        self.total_bytes -= slot.bytes;
        self.unindex(key, &slot.body);
    }

    /// Stores a result and evicts until the configured budgets hold,
    /// returning how many were evicted: the insert whose probation this one
    /// ended, or the least-recently-used entry off probation, whichever was
    /// requested less often (see the module docs).
    ///
    /// Overwriting an existing key is deliberate and harmless: optimisation
    /// is deterministic per key (the policy is read-only and greedy
    /// inference draws no randomness), so two racing misses compute
    /// identical entries. The overwritten entry's body-index memos go with it.
    ///
    /// Budgets are strict: an entry that alone exceeds the byte budget is
    /// evicted immediately (the cache never lies about its footprint); the
    /// `serve/cache_evictions` counter is where such a misconfiguration
    /// becomes visible.
    pub fn insert(&mut self, key: u64, entry: CacheEntry) -> usize {
        self.inserts += 1;
        self.store(key, entry, self.inserts);
        let ended = self.admission.as_mut().and_then(|admission| admission.enter(key, self.inserts));
        // Overwritten or evicted since, an insert has no entry to defend.
        let contender = ended
            .filter(|&(key, number)| self.entries.get(&key).is_some_and(|slot| slot.inserted == number))
            .map(|(key, _)| key);
        let evicted = self.evict_to_budget(contender);
        self.record_occupancy();
        evicted
    }

    /// Puts `entry` under `key` as the most recently used entry, stored by
    /// insert number `inserted` (0 for a loaded snapshot), replacing what
    /// was there, without evicting.
    fn store(&mut self, key: u64, entry: CacheEntry, inserted: u64) {
        if let Some(old) = self.entries.remove(&key) {
            self.recency.remove(&old.tick);
            self.release(key, old);
        }
        let bytes = entry.approx_bytes();
        let tick = self.next_tick;
        self.next_tick += 1;
        self.entries.insert(key, Slot { entry, tick, inserted, bytes, body: None, rendered: None });
        self.recency.insert(tick, key);
        self.total_bytes += bytes;
    }

    /// Evicts until both budgets hold. The first eviction is a contest
    /// between `contender` (an insert whose probation just ended) and the
    /// least-recently-used entry off probation; every other one is
    /// least-recently-used, off probation while such an entry is left.
    /// Returns the eviction count (also recorded into the
    /// `serve/cache_evictions` counter).
    fn evict_to_budget(&mut self, mut contender: Option<u64>) -> usize {
        let (mut evicted, mut rejected) = (0, 0);
        loop {
            let over_entries = self.config.max_entries.is_some_and(|max| self.entries.len() > max);
            let over_bytes = self.config.max_bytes.is_some_and(|max| self.total_bytes > max);
            if !(over_entries || over_bytes) {
                break;
            }
            let lru = self.least_recent_settled(contender);
            let victim = match (contender.take(), lru) {
                (Some(newcomer), Some(lru)) => {
                    let sketch = &self.admission.as_ref().expect("only admission names a contender").sketch;
                    if sketch.estimate(newcomer) > sketch.estimate(lru) {
                        lru
                    } else {
                        rejected += 1;
                        newcomer
                    }
                }
                (newcomer, lru) => match newcomer.or(lru) {
                    Some(victim) => victim,
                    // Everything is on probation: recency order alone, so
                    // the newest insert goes last.
                    None => match self.recency.first_key_value() {
                        Some((_, &oldest)) => oldest,
                        None => break,
                    },
                },
            };
            let slot = self.entries.remove(&victim).expect("the recency index holds live keys");
            self.recency.remove(&slot.tick);
            self.release(victim, slot);
            evicted += 1;
        }
        if evicted > 0 {
            xrlflow_obs::counter!("serve/cache_evictions").add(evicted as u64);
        }
        if rejected > 0 {
            xrlflow_obs::counter!("serve/cache_rejected").add(rejected);
        }
        evicted
    }

    /// The least-recently-used entry that is neither on probation nor
    /// `skip`. The walk passes at most the window's entries.
    fn least_recent_settled(&self, skip: Option<u64>) -> Option<u64> {
        let on_probation = |key: &u64| {
            let inserted = self.entries[key].inserted;
            self.admission.as_ref().is_some_and(|admission| admission.on_probation(inserted))
        };
        self.recency.values().copied().find(|key| Some(*key) != skip && !on_probation(key))
    }

    /// Publishes current occupancy to the `serve/cache_entries` and
    /// `serve/cache_bytes` gauges (values already computed — observation
    /// only).
    fn record_occupancy(&self) {
        xrlflow_obs::gauge!("serve/cache_entries").set(self.entries.len() as f64);
        xrlflow_obs::gauge!("serve/cache_bytes").set(self.total_bytes as f64);
    }

    /// Serialises the cache as a versioned JSON snapshot. Entries are
    /// ordered by key so the output is byte-stable; neither recency, nor
    /// frequencies, nor the body index is persisted (see the module docs).
    /// The document is written in place in [`JsonValue::to_json`]'s layout,
    /// each entry's graph spliced in as its [`Graph::to_json`] bytes.
    pub fn to_json(&self) -> String {
        let mut keys: Vec<u64> = self.entries.keys().copied().collect();
        keys.sort_unstable();
        let mut out = format!(
            "{{\"format\": \"{CACHE_JSON_FORMAT}\", \"version\": {CACHE_JSON_VERSION}, \"entries\": ["
        );
        for (i, key) in keys.iter().enumerate() {
            let e = &self.entries[key].entry;
            if i > 0 {
                out.push_str(", ");
            }
            write!(out, "{{\"key\": \"{key}\"").expect("writing to a String cannot fail");
            write_number_field("initial_latency_ms", e.initial_latency_ms, &mut out);
            write_number_field("final_latency_ms", e.final_latency_ms, &mut out);
            write_number_field("steps", e.steps as f64, &mut out);
            out.push_str(", \"graph\": ");
            out.push_str(&e.graph.to_json());
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Restores an unbounded cache from a JSON snapshot, fully validating
    /// it: the format marker and version, every key, every latency, and
    /// every embedded graph (which goes through the same import validation
    /// as a request graph). See [`ResultCache::from_json_with_config`] to
    /// restore under a budget.
    ///
    /// # Errors
    ///
    /// [`ServeError::Cache`] for malformed documents, [`ServeError::Graph`]
    /// for embedded graphs that fail import validation.
    pub fn from_json(text: &str) -> Result<Self, ServeError> {
        Self::from_json_with_config(text, CacheConfig::unbounded())
    }

    /// Restores a cache from a JSON snapshot under `config`, clamping with
    /// an eviction pass when the snapshot holds more than the budgets allow
    /// (entries earliest in the document go first — recency is document
    /// order on load). The clamp is visible: evictions land in the
    /// `serve/cache_evictions` counter and the caller can compare
    /// [`ResultCache::len`] against the document.
    ///
    /// # Errors
    ///
    /// See [`ResultCache::from_json`].
    pub fn from_json_with_config(text: &str, config: CacheConfig) -> Result<Self, ServeError> {
        let cache_err = |message: String| ServeError::Cache(message);
        let value = JsonValue::parse(text).map_err(cache_err)?;
        let format = value
            .get("format")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| cache_err("missing \"format\" marker".to_string()))?;
        if format != CACHE_JSON_FORMAT {
            return Err(cache_err(format!("not a cache snapshot (format {format:?})")));
        }
        let version = value
            .get("version")
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| cache_err("missing \"version\"".to_string()))?;
        if version as u64 != CACHE_JSON_VERSION {
            return Err(cache_err(format!(
                "unsupported version {version} (this build reads version {CACHE_JSON_VERSION})"
            )));
        }
        let entry_values = value
            .get("entries")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| cache_err("missing \"entries\" array".to_string()))?;
        let mut cache = Self::with_config(config);
        let mut clamped = 0usize;
        for (i, ev) in entry_values.iter().enumerate() {
            let key = ev
                .get("key")
                .and_then(JsonValue::as_str)
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| cache_err(format!("entry {i}: key must be a decimal u64 string")))?;
            let latency = |field: &str| {
                ev.get(field)
                    .and_then(JsonValue::as_f64)
                    .filter(|l| l.is_finite() && *l >= 0.0)
                    .ok_or_else(|| cache_err(format!("entry {i}: {field} must be a non-negative number")))
            };
            let initial_latency_ms = latency("initial_latency_ms")?;
            let final_latency_ms = latency("final_latency_ms")?;
            let steps = ev
                .get("steps")
                .and_then(JsonValue::as_usize)
                .ok_or_else(|| cache_err(format!("entry {i}: steps must be a non-negative integer")))?;
            let graph_value =
                ev.get("graph").ok_or_else(|| cache_err(format!("entry {i}: missing graph")))?;
            let graph = Graph::from_json(&graph_value.to_json())?;
            cache.store(
                key,
                CacheEntry { graph: Arc::new(graph), initial_latency_ms, final_latency_ms, steps },
                0,
            );
            clamped += cache.evict_to_budget(None);
        }
        cache.record_occupancy();
        if clamped > 0 {
            xrlflow_obs::counter!("serve/cache_load_clamped").add(clamped as u64);
        }
        Ok(cache)
    }

    /// Writes a JSON snapshot of the cache to `path`, atomically: the
    /// document is staged into a temp file, fsynced and renamed over the
    /// target, so a crash mid-save can never leave a torn snapshot under the
    /// final name (a warm restart either sees the old snapshot or the new
    /// one, never garbage).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the file cannot be written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ServeError> {
        let path = path.as_ref();
        xrlflow_tensor::atomic_write(path, self.to_json().as_bytes())
            .map_err(|e| ServeError::Io(format!("writing {}: {e}", path.display())))
    }

    /// Loads and validates a JSON snapshot from `path` into an unbounded
    /// cache.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the file cannot be read; the
    /// [`ResultCache::from_json`] errors for malformed content.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ServeError> {
        Self::load_with_config(path, CacheConfig::unbounded())
    }

    /// Loads a JSON snapshot from `path` under `config`, clamping to the
    /// budgets (see [`ResultCache::from_json_with_config`]).
    ///
    /// # Errors
    ///
    /// See [`ResultCache::load`].
    pub fn load_with_config(path: impl AsRef<Path>, config: CacheConfig) -> Result<Self, ServeError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| ServeError::Io(format!("reading {}: {e}", path.display())))?;
        Self::from_json_with_config(&text, config)
    }
}

/// Appends `, "key": value` in [`JsonValue`]'s number form: `null` for a
/// non-finite value, which JSON cannot write.
pub(crate) fn write_number_field(key: &str, value: f64, out: &mut String) {
    if value.is_finite() { write!(out, ", \"{key}\": {value}") } else { write!(out, ", \"{key}\": null") }
        .expect("writing to a String cannot fail");
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrlflow_graph::models::{build_model, ModelKind, ModelScale};

    fn entry() -> (u64, CacheEntry) {
        let graph = build_model(ModelKind::SqueezeNet, ModelScale::Bench).unwrap();
        let key = graph.canonical_hash();
        (
            key,
            CacheEntry { graph: Arc::new(graph), initial_latency_ms: 4.25, final_latency_ms: 3.5, steps: 7 },
        )
    }

    /// Distinct keys over one shared graph: cache budgets don't care that
    /// the graphs coincide, only about keys and sizes.
    fn synthetic_entries(n: usize) -> Vec<(u64, CacheEntry)> {
        let (_, e) = entry();
        (0..n as u64).map(|k| (k, e.clone())).collect()
    }

    #[test]
    fn json_round_trip_preserves_entries_exactly() {
        let mut cache = ResultCache::new();
        let (key, e) = entry();
        cache.insert(key, e.clone());
        let back = ResultCache::from_json(&cache.to_json()).unwrap();
        assert_eq!(back.len(), 1);
        let b = back.peek(key).unwrap();
        assert_eq!(b.graph.canonical_hash(), e.graph.canonical_hash());
        assert_eq!(b.initial_latency_ms, e.initial_latency_ms);
        assert_eq!(b.final_latency_ms, e.final_latency_ms);
        assert_eq!(b.steps, e.steps);
        // Byte-stable output.
        assert_eq!(back.to_json(), cache.to_json());
    }

    #[test]
    fn large_keys_survive_the_round_trip() {
        // Keys above 2^53 are exactly the ones JSON numbers would corrupt.
        let (_, e) = entry();
        let mut cache = ResultCache::new();
        let key = u64::MAX - 1;
        cache.insert(key, e);
        let back = ResultCache::from_json(&cache.to_json()).unwrap();
        assert!(back.peek(key).is_some());
        assert!(back.peek(u64::MAX).is_none());
    }

    /// The snapshot writer the splice replaced, kept as its oracle: the
    /// document built as a [`JsonValue`] tree, each graph as its tree form.
    fn to_json_tree(cache: &ResultCache) -> String {
        let mut keys: Vec<u64> = cache.entries.keys().copied().collect();
        keys.sort_unstable();
        let entries: Vec<JsonValue> = keys
            .iter()
            .map(|key| {
                let e = &cache.entries[key].entry;
                JsonValue::Object(vec![
                    ("key".to_string(), JsonValue::String(key.to_string())),
                    ("initial_latency_ms".to_string(), JsonValue::Number(e.initial_latency_ms)),
                    ("final_latency_ms".to_string(), JsonValue::Number(e.final_latency_ms)),
                    ("steps".to_string(), JsonValue::Number(e.steps as f64)),
                    ("graph".to_string(), e.graph.to_json_value()),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            ("format".to_string(), JsonValue::String(CACHE_JSON_FORMAT.to_string())),
            ("version".to_string(), JsonValue::Number(CACHE_JSON_VERSION as f64)),
            ("entries".to_string(), JsonValue::Array(entries)),
        ])
        .to_json()
    }

    /// A two-node graph whose node name needs every kind of escape.
    fn escaped_graph() -> Arc<Graph> {
        use xrlflow_graph::{OpAttributes, OpKind, TensorShape};
        let mut g = Graph::new();
        let x = g.add_input(TensorShape::new(vec![1, 8]));
        let name = "relu \"1\" \\ \n\té😀\u{1}";
        let relu = g.add_named_node(name, OpKind::Relu, OpAttributes::default(), vec![x.into()]).unwrap();
        g.mark_output(relu.into());
        Arc::new(g)
    }

    fn cache_of(entries: &[(u64, f64, f64, usize)], graph: &Arc<Graph>) -> ResultCache {
        let mut cache = ResultCache::new();
        for &(key, initial_latency_ms, final_latency_ms, steps) in entries {
            let graph = Arc::clone(graph);
            cache.insert(key, CacheEntry { graph, initial_latency_ms, final_latency_ms, steps });
        }
        cache
    }

    #[test]
    fn the_spliced_snapshot_writes_the_tree_writers_bytes() {
        let (key, e) = entry();
        let zoo = e.graph;
        let escaped = escaped_graph();
        let big = 1u64 << 53;
        let caches = [
            ("empty", cache_of(&[], &zoo)),
            ("one entry", cache_of(&[(key, 4.25, 3.5, 7)], &zoo)),
            ("many entries", cache_of(&[(3, 1.0, 1.0, 0), (1, 2.0, 1.5, 2), (2, 8.0, 4.0, 40)], &zoo)),
            (
                "keys >= 2^53",
                cache_of(&[(big, 1.0, 1.0, 1), (big + 1, 1.0, 1.0, 1), (u64::MAX, 1.0, 1.0, 1)], &zoo),
            ),
            (
                "non-integer and zero latencies",
                cache_of(
                    &[(1, 0.1 + 0.2, 0.0, 3), (2, 1e-7, -0.0, 0), (3, 1e300, 2.5e-300, usize::MAX)],
                    &zoo,
                ),
            ),
            ("non-finite latencies", cache_of(&[(1, f64::NAN, f64::INFINITY, 1)], &zoo)),
            ("escaped node names", cache_of(&[(12, 4.25, 1e-7, 0), (u64::MAX - 1, 0.3, 0.0, 3)], &escaped)),
        ];
        for (label, cache) in &caches {
            assert_eq!(cache.to_json(), to_json_tree(cache), "{label}: the writers disagree");
        }
    }

    /// A snapshot written by the tree writer, before the splice replaced it.
    const TREE_WRITTEN_SNAPSHOT: &str = concat!(
        r#"{"format": "xrlflow-serve-cache", "version": 1, "entries": ["#,
        r#"{"key": "12", "initial_latency_ms": 4.25, "final_latency_ms": 0.0000001, "steps": 0, "graph": "#,
        r#"{"format": "xrlflow-graph", "version": 1, "nodes": [{"op": "Input", "outputs": [[1, 8]]}, "#,
        r#"{"op": "Relu", "name": "relu \"1\" \\ \u000a\u0009é😀\u0001", "inputs": [[0, 0]], "outputs": [[1, 8]]}], "#,
        r#""outputs": [[1, 0]]}}, "#,
        r#"{"key": "9007199254740993", "initial_latency_ms": 2.5, "final_latency_ms": 1, "steps": 1, "graph": "#,
        r#"{"format": "xrlflow-graph", "version": 1, "nodes": [{"op": "Input", "outputs": [[1, 8]]}, "#,
        r#"{"op": "Relu", "name": "relu \"1\" \\ \u000a\u0009é😀\u0001", "inputs": [[0, 0]], "outputs": [[1, 8]]}], "#,
        r#""outputs": [[1, 0]]}}, "#,
        r#"{"key": "18446744073709551614", "initial_latency_ms": 0.30000000000000004, "final_latency_ms": 0, "#,
        r#""steps": 3, "graph": "#,
        r#"{"format": "xrlflow-graph", "version": 1, "nodes": [{"op": "Input", "outputs": [[1, 8]]}, "#,
        r#"{"op": "Relu", "name": "relu \"1\" \\ \u000a\u0009é😀\u0001", "inputs": [[0, 0]], "outputs": [[1, 8]]}], "#,
        r#""outputs": [[1, 0]]}}]}"#,
    );

    #[test]
    fn a_tree_written_snapshot_loads_to_equal_entries_and_writes_back_its_bytes() {
        let escaped = escaped_graph();
        let expected = cache_of(
            &[(u64::MAX - 1, 0.1 + 0.2, 0.0, 3), (12, 4.25, 1e-7, 0), ((1 << 53) + 1, 2.5, 1.0, 1)],
            &escaped,
        );
        let back = ResultCache::from_json(TREE_WRITTEN_SNAPSHOT).unwrap();
        assert_eq!(back.len(), expected.len());
        for (key, slot) in &expected.entries {
            let (want, got) = (&slot.entry, back.peek(*key).unwrap());
            assert_eq!(got.graph.to_json(), want.graph.to_json(), "key {key}: graph");
            assert_eq!(got.graph.canonical_hash(), want.graph.canonical_hash(), "key {key}: canonical hash");
            assert_eq!(got.initial_latency_ms.to_bits(), want.initial_latency_ms.to_bits(), "key {key}");
            assert_eq!(got.final_latency_ms.to_bits(), want.final_latency_ms.to_bits(), "key {key}");
            assert_eq!(got.steps, want.steps, "key {key}: steps");
        }
        assert_eq!(back.to_json(), TREE_WRITTEN_SNAPSHOT);
        assert_eq!(expected.to_json(), TREE_WRITTEN_SNAPSHOT);
    }

    #[test]
    fn malformed_snapshots_are_typed_errors() {
        assert!(matches!(ResultCache::from_json("nope"), Err(ServeError::Cache(_))));
        assert!(matches!(
            ResultCache::from_json("{\"format\": \"other\", \"version\": 1, \"entries\": []}"),
            Err(ServeError::Cache(_))
        ));
        assert!(matches!(
            ResultCache::from_json("{\"format\": \"xrlflow-serve-cache\", \"version\": 9, \"entries\": []}"),
            Err(ServeError::Cache(_))
        ));
        // Numeric (non-string) key: rejected to protect 64-bit exactness.
        let doc = "{\"format\": \"xrlflow-serve-cache\", \"version\": 1, \"entries\": [\
            {\"key\": 12, \"initial_latency_ms\": 1, \"final_latency_ms\": 1, \"steps\": 0, \
             \"graph\": {}}]}";
        assert!(matches!(ResultCache::from_json(doc), Err(ServeError::Cache(_))));
        // Corrupted embedded graph: surfaces as a graph import error.
        let mut cache = ResultCache::new();
        let (key, e) = entry();
        cache.insert(key, e);
        let broken = cache.to_json().replace("MatMul", "BogusOp").replace("Conv2d", "BogusOp");
        assert!(matches!(ResultCache::from_json(&broken), Err(ServeError::Graph(_))));
    }

    #[test]
    fn save_load_round_trip_on_disk() {
        let mut cache = ResultCache::new();
        let (key, e) = entry();
        cache.insert(key, e);
        let path = std::env::temp_dir().join("xrlflow-serve-cache-unit-test.json");
        cache.save(&path).unwrap();
        let back = ResultCache::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.len(), 1);
        assert!(back.peek(key).is_some());
        assert!(matches!(
            ResultCache::load(std::env::temp_dir().join("xrlflow-no-such-cache.json")),
            Err(ServeError::Io(_))
        ));
    }

    #[test]
    fn config_builder_validates_budgets() {
        assert!(CacheConfig::builder().build().unwrap().max_entries().is_none());
        let cfg = CacheConfig::builder().max_entries(4).max_bytes(1 << 20).build().unwrap();
        assert_eq!(cfg.max_entries(), Some(4));
        assert_eq!(cfg.max_bytes(), Some(1 << 20));
        assert_eq!(CacheConfig::builder().max_entries(0).build().unwrap_err().field, "cache.max_entries");
        assert_eq!(CacheConfig::builder().max_bytes(0).build().unwrap_err().field, "cache.max_bytes");
    }

    #[test]
    fn entry_budget_never_exceeded_and_eviction_is_lru() {
        let config = CacheConfig::builder().max_entries(3).build().unwrap();
        let mut cache = ResultCache::with_config(config);
        let entries = synthetic_entries(8);
        // Key 0 is requested once and key 2 twice; key 0 stays the
        // least-recently-used entry and key 2 is the previous insert.
        let (key0, e0) = entries[0].clone();
        assert_eq!(cache.insert(key0, e0), 0);
        assert!(cache.get(0).is_some());
        for (key, e) in entries[1..3].iter().cloned() {
            assert_eq!(cache.insert(key, e), 0);
        }
        assert!(cache.get(2).is_some() && cache.get(2).is_some());
        let (key3, e3) = entries[3].clone();
        assert_eq!(cache.insert(key3, e3), 1, "inserting over budget evicts exactly one entry");
        assert_eq!(cache.len(), 3);
        assert!(cache.peek(0).is_none(), "requested more often, the previous insert displaces the LRU entry");
        assert!(cache.peek(1).is_some() && cache.peek(2).is_some() && cache.peek(3).is_some());
        // Key 3, now the previous insert, was requested no more often than
        // key 1, the LRU entry: key 3 is the one evicted.
        let (key4, e4) = entries[4].clone();
        assert_eq!(cache.insert(key4, e4), 1);
        assert!(cache.peek(3).is_none(), "requested no more often, the previous insert goes");
        assert!(cache.peek(1).is_some() && cache.peek(2).is_some() && cache.peek(4).is_some());
        // Sustained load: the budget holds at every step, one eviction per
        // insert, and the entry just inserted is always resident.
        for (key, e) in entries[5..].iter().cloned() {
            assert_eq!(cache.insert(key, e), 1);
            assert_eq!(cache.len(), 3);
            assert!(cache.peek(key).is_some());
        }
    }

    #[test]
    fn byte_budget_evicts_and_accounting_tracks_entries() {
        let (_, e) = entry();
        let per_entry = e.approx_bytes();
        assert!(per_entry > 0);
        let config = CacheConfig::builder().max_bytes(per_entry * 2).build().unwrap();
        let mut cache = ResultCache::with_config(config);
        for (key, e) in synthetic_entries(4) {
            cache.insert(key, e);
        }
        assert_eq!(cache.len(), 2, "byte budget fits exactly two entries");
        assert!(cache.total_bytes() <= per_entry * 2);
        // An unbounded cache tracks bytes without evicting.
        let mut unbounded = ResultCache::new();
        for (key, e) in synthetic_entries(4) {
            assert_eq!(unbounded.insert(key, e), 0);
        }
        assert_eq!(unbounded.total_bytes(), per_entry * 4);
        // Overwriting a key must not double-count its bytes.
        let (_, e) = entry();
        unbounded.insert(0, e);
        assert_eq!(unbounded.total_bytes(), per_entry * 4);
    }

    #[test]
    fn oversized_single_entry_is_evicted_not_kept_over_budget() {
        let (_, e) = entry();
        let config = CacheConfig::builder().max_bytes(e.approx_bytes() / 2).build().unwrap();
        let mut cache = ResultCache::with_config(config);
        assert_eq!(cache.insert(9, e), 1, "an entry alone over the byte budget cannot stay");
        assert!(cache.is_empty());
        assert_eq!(cache.total_bytes(), 0);
    }

    #[test]
    fn set_config_clamps_immediately() {
        let mut cache = ResultCache::new();
        for (key, e) in synthetic_entries(5) {
            cache.insert(key, e);
        }
        let evicted = cache.set_config(CacheConfig::builder().max_entries(2).build().unwrap());
        assert_eq!(evicted, 3);
        assert_eq!(cache.len(), 2);
        // The survivors are the most recently inserted keys.
        assert!(cache.peek(3).is_some() && cache.peek(4).is_some());
    }

    #[test]
    fn loading_a_snapshot_larger_than_the_budget_clamps_with_evictions() {
        let mut cache = ResultCache::new();
        for (key, e) in synthetic_entries(4) {
            cache.insert(key, e);
        }
        let json = cache.to_json();
        let config = CacheConfig::builder().max_entries(2).build().unwrap();
        let clamped = ResultCache::from_json_with_config(&json, config).unwrap();
        assert_eq!(clamped.len(), 2, "load must clamp to the entry budget, not grow unbounded");
        // Document order is recency order on load: the latest entries stay.
        assert!(clamped.peek(2).is_some() && clamped.peek(3).is_some());
        // An unbounded load of the same document keeps everything.
        assert_eq!(ResultCache::from_json(&json).unwrap().len(), 4);
    }

    /// The structural (memo-free) size of `n` of the shared test entries.
    fn structural(n: usize) -> usize {
        n * entry().1.approx_bytes()
    }

    #[test]
    fn the_body_digest_sees_every_byte_and_the_length() {
        let text: Vec<u8> = (0..100u8).collect();
        let digest = body_digest(&text);
        assert_eq!(digest, body_digest(&text.clone()));
        for i in 0..text.len() {
            let mut other = text.clone();
            other[i] ^= 1;
            assert_ne!(digest, body_digest(&other), "byte {i} does not reach the digest");
        }
        assert_ne!(digest, body_digest(&text[..99]));
        assert_ne!(body_digest(b""), body_digest(b"\0"));
    }

    #[test]
    fn the_body_index_serves_equal_bytes_never_equal_digests() {
        let mut cache = ResultCache::new();
        let (key, e) = entry();
        cache.insert(key, e);
        // A forged digest is the attacker's best case: the digest of the
        // forgery is *injected* equal to the attached body's.
        assert!(cache.attach_body(key, 42, b"the validated body"));
        assert!(cache.find_by_body(42, b"a forgery, same digest").is_none());
        assert!(cache.find_by_body(42, b"the validated bodx").is_none());
        assert!(cache.find_by_body(7, b"the validated body").is_none(), "unknown digest");
        let found = cache.find_by_body(42, b"the validated body").expect("equal bytes are a hit");
        assert_eq!(found.key, key);
        assert!(found.rendered.is_none(), "nothing is rendered before a response was");
        // Nothing can be attached to a key the cache does not hold.
        assert!(!cache.attach_body(key ^ 1, 43, b"orphan"));
        assert_eq!(cache.total_bytes(), structural(1) + b"the validated body".len());
    }

    #[test]
    fn a_newer_text_replaces_the_memo_and_a_colliding_one_takes_the_digest_over() {
        let mut cache = ResultCache::new();
        for (key, e) in synthetic_entries(2) {
            cache.insert(key, e);
        }
        assert!(cache.attach_body(0, 1, b"first text"));
        assert!(cache.attach_body(0, 2, b"second, longer text"));
        assert!(cache.find_by_body(1, b"first text").is_none(), "the memo follows the newer text");
        assert_eq!(cache.find_by_body(2, b"second, longer text").unwrap().key, 0);
        assert_eq!(cache.total_bytes(), structural(2) + b"second, longer text".len());
        assert_eq!(cache.by_digest.len(), 1);

        // Key 1's body collides with key 0's digest: the index now leads to
        // key 1, key 0 is reachable through its canonical hash only, and
        // evicting key 0 must not tear down key 1's mapping.
        assert!(cache.attach_body(1, 2, b"collides"));
        assert!(cache.find_by_body(2, b"second, longer text").is_none());
        assert_eq!(cache.find_by_body(2, b"collides").unwrap().key, 1);
        cache.set_config(CacheConfig::builder().max_entries(1).build().unwrap());
        assert!(cache.peek(0).is_none() && cache.peek(1).is_some());
        assert_eq!(cache.find_by_body(2, b"collides").unwrap().key, 1);
        assert_eq!(cache.total_bytes(), structural(1) + b"collides".len());
    }

    #[test]
    fn memos_live_and_die_with_their_entry() {
        let doc: Arc<str> = "{\"rendered\": true}".into();
        let mut cache = ResultCache::with_config(CacheConfig::builder().max_entries(2).build().unwrap());
        for (key, e) in synthetic_entries(2) {
            cache.insert(key, e);
        }
        let e = cache.peek(0).unwrap().clone();
        assert!(cache.attach_body(0, 10, b"body zero"));
        assert!(cache.attach_rendered(0, &e.graph, Arc::clone(&doc)));
        assert!(!cache.attach_rendered(0, &e.graph, Arc::clone(&doc)), "rendered once");
        assert!(
            !cache.attach_rendered(1, &Arc::new((*e.graph).clone()), Arc::clone(&doc)),
            "a replaced entry"
        );
        assert_eq!(cache.total_bytes(), structural(2) + b"body zero".len() + doc.len());
        assert_eq!(cache.find_by_body(10, b"body zero").unwrap().rendered.as_deref(), Some(&*doc));

        // The indexed hit refreshed key 0, so key 1 is the one evicted…
        cache.insert(2, e.clone());
        assert!(cache.peek(1).is_none() && cache.peek(0).is_some());
        // …and when key 0 goes — evicted, then overwritten — so do its memos.
        // Key 2, requested more often than key 0, displaces it.
        assert!(cache.get(2).is_some() && cache.get(2).is_some());
        cache.insert(3, e.clone());
        assert!(cache.peek(0).is_none());
        assert!(cache.find_by_body(10, b"body zero").is_none());
        assert!(cache.by_digest.is_empty());
        assert_eq!(cache.total_bytes(), structural(2));
        assert!(cache.attach_body(3, 11, b"body three"));
        cache.insert(3, e);
        assert!(cache.find_by_body(11, b"body three").is_none(), "an overwritten entry starts without memos");
        assert_eq!(cache.total_bytes(), structural(2));
    }

    #[test]
    fn memos_never_push_the_cache_over_its_byte_budget() {
        let max = structural(2) + 10;
        let mut cache = ResultCache::with_config(CacheConfig::builder().max_bytes(max).build().unwrap());
        for (key, e) in synthetic_entries(2) {
            cache.insert(key, e);
        }
        let e = cache.peek(0).unwrap().clone();
        assert!(!cache.attach_body(0, 1, b"eleven bytes"), "over budget: not attached");
        assert!(cache.attach_body(0, 1, b"six by"));
        assert!(!cache.attach_rendered(0, &e.graph, "12345".into()), "6 + 5 > 10");
        assert!(cache.attach_rendered(0, &e.graph, "1234".into()));
        // A replacement is judged on what it frees too, and a refused one
        // leaves the attached text in place.
        assert!(cache.attach_body(1, 2, b""));
        assert!(!cache.attach_body(0, 3, b"seven b"));
        assert!(cache.attach_body(0, 3, b"six b!"));
        assert_eq!(cache.total_bytes(), max);
        assert_eq!(cache.len(), 2, "a memo never evicts an entry");
        // Shrinking the budget evicts whole entries, memos and all.
        cache.set_config(CacheConfig::builder().max_bytes(structural(1) + 10).build().unwrap());
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.total_bytes(),
            structural(1),
            "key 0 was least recently used; its memos went with it"
        );
    }

    #[test]
    fn snapshots_do_not_carry_the_body_index() {
        let mut cache = ResultCache::new();
        let (key, e) = entry();
        cache.insert(key, e.clone());
        let plain = cache.to_json();
        cache.attach_body(key, 5, b"request text");
        cache.attach_rendered(key, &e.graph, "response text".into());
        assert_eq!(cache.to_json(), plain, "the snapshot format does not know about memos");
        let mut back = ResultCache::from_json(&cache.to_json()).unwrap();
        assert_eq!(back.total_bytes(), structural(1));
        assert!(back.find_by_body(5, b"request text").is_none());
        assert!(back.get(key).is_some(), "the entry itself is there");
    }

    /// A request for `key` as the service makes it: counted once, looked
    /// up, and on a miss inserted. Returns whether it hit.
    fn request(cache: &mut ResultCache, key: u64, entry: &CacheEntry) -> bool {
        cache.record(key);
        let hit = cache.find(key).is_some();
        if !hit {
            cache.insert(key, entry.clone());
        }
        hit
    }

    /// The benchmark's `serve_mixed` popularity: rank `⌊504^u⌋ − 1` for
    /// `u` uniform in `[0, 1)`.
    fn log_uniform_keys(seed: u64, n: usize) -> Vec<u64> {
        let mut rng = xrlflow_tensor::XorShiftRng::new(seed);
        (0..n)
            .map(|_| {
                let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                504f64.powf(u).floor() as u64 - 1
            })
            .collect()
    }

    #[test]
    fn frequency_admission_beats_lru_on_a_log_uniform_stream() {
        let stream = log_uniform_keys(7, 200_000);
        let (_, e) = entry();
        let mut cache = ResultCache::with_config(CacheConfig::builder().max_entries(128).build().unwrap());
        let hits = stream.iter().filter(|&&key| request(&mut cache, key, &e)).count();
        let ratio = hits as f64 / stream.len() as f64;

        // Plain LRU over the same stream, most recent last.
        let mut lru: Vec<u64> = Vec::with_capacity(129);
        let mut lru_hits = 0;
        for &key in &stream {
            if let Some(at) = lru.iter().position(|&k| k == key) {
                lru_hits += 1;
                lru.remove(at);
            } else if lru.len() == 128 {
                lru.remove(0);
            }
            lru.push(key);
        }
        let lru_ratio = lru_hits as f64 / stream.len() as f64;
        assert!(ratio >= 0.74, "hit ratio {ratio:.4}");
        assert!(lru_ratio <= 0.70, "LRU hit ratio {lru_ratio:.4}");
        assert_eq!(cache.len(), 128);
    }

    #[test]
    fn a_hot_set_survives_a_burst_of_one_off_keys() {
        // Half the cache is a hot set, asked for three times each; then
        // 1 000 graphs nobody asks for again arrive, within one sample of
        // the sketch (10 × 128 requests), so nothing has been halved away.
        let (_, e) = entry();
        let mut cache = ResultCache::with_config(CacheConfig::builder().max_entries(128).build().unwrap());
        for _ in 0..3 {
            for key in 0..64 {
                request(&mut cache, key, &e);
            }
        }
        for key in 1_000..2_000 {
            assert!(!request(&mut cache, key, &e));
        }
        let survivors = (0..64).filter(|&key| cache.peek(key).is_some()).count();
        // Plain LRU would hold the burst's last 128 keys and no hot one.
        assert!(survivors >= 63, "{survivors} of 64 hot keys survived");
    }

    /// The books a cache keeps, checked against its slots and its budgets.
    fn assert_consistent(cache: &ResultCache, context: &str) {
        let config = cache.config();
        assert!(config.max_entries().is_none_or(|max| cache.len() <= max), "{context}: entry budget");
        assert!(config.max_bytes().is_none_or(|max| cache.total_bytes() <= max), "{context}: byte budget");
        assert_eq!(cache.recency.len(), cache.len(), "{context}: recency index");
        let bytes: usize = cache.entries.values().map(|slot| slot.bytes).sum();
        assert_eq!(cache.total_bytes(), bytes, "{context}: byte count");
        assert!(cache.by_digest.values().all(|key| cache.entries.contains_key(key)), "{context}: body index");
    }

    #[test]
    fn both_budgets_hold_after_every_step_of_a_random_interleaving() {
        let big = entry().1;
        let mut small = Graph::new();
        let input = small.add_input(xrlflow_graph::TensorShape::new(vec![1, 8]));
        small.mark_output(input.into());
        let small = CacheEntry { graph: Arc::new(small), ..big.clone() };
        let (b, s) = (big.approx_bytes(), small.approx_bytes());
        let configs = [
            CacheConfig::builder().max_entries(4).build().unwrap(),
            CacheConfig::builder().max_entries(9).max_bytes(3 * b + 40).build().unwrap(),
            CacheConfig::builder().max_bytes(2 * b + 5 * s).build().unwrap(),
            CacheConfig::builder().max_bytes(b / 2).build().unwrap(),
            CacheConfig::unbounded(),
        ];
        let mut rng = xrlflow_tensor::XorShiftRng::new(3);
        let mut cache = ResultCache::with_config(configs[1]);
        let mut evictions = 0;
        for step in 0..20_000 {
            let key = rng.gen_range(24) as u64;
            match rng.gen_range(10) {
                0..=3 => {
                    cache.record(key);
                    cache.find(key);
                }
                4..=6 => {
                    let e = if key.is_multiple_of(3) { big.clone() } else { small.clone() };
                    evictions += cache.insert(key, e);
                    assert!(
                        cache.peek(key).is_some() || cache.is_empty(),
                        "step {step}: an insert evicts itself only when it alone breaks the budget"
                    );
                }
                7 | 8 => {
                    let body = vec![b'x'; rng.gen_range(64)];
                    cache.attach_body(key, body_digest(&body), &body);
                }
                _ => evictions += cache.set_config(configs[rng.gen_range(configs.len())]),
            }
            assert_consistent(&cache, &format!("step {step}"));
        }
        assert!(evictions > 1_000, "the interleaving must press on the budgets: {evictions} evictions");
    }

    #[test]
    fn the_sketch_is_sized_from_the_budget_and_bounded() {
        let sketch = FrequencySketch::new(128);
        assert_eq!((sketch.row_mask + 1, sketch.words.len(), sketch.sample), (1024, 256, 1280));
        let huge = FrequencySketch::new(usize::MAX);
        assert_eq!(huge.row_mask + 1, MAX_ROW_COUNTERS);
        assert_eq!(FrequencySketch::new(1).row_mask + 1, 16);
        // Counts saturate at 15 and are halved at the end of each sample.
        let mut sketch = FrequencySketch::new(4);
        for _ in 0..20 {
            sketch.record(7);
        }
        assert_eq!(sketch.estimate(7), 15);
        for _ in 0..20 {
            sketch.record(7);
        }
        assert_eq!(sketch.estimate(7), 7, "the sample is 10 × 4 requests");
        assert_eq!(sketch.estimate(8), 0);
    }

    #[test]
    fn a_cache_without_an_entry_budget_records_nothing() {
        let (_, e) = entry();
        let mut cache = ResultCache::new();
        for key in 0..100 {
            request(&mut cache, key % 10, &e);
        }
        assert!(cache.admission.is_none());
        // Bounded, it counts; unbounded again, it forgets.
        cache.set_config(CacheConfig::builder().max_entries(20).build().unwrap());
        assert!(cache.get(3).is_some());
        assert_eq!(cache.frequency(3), 1);
        cache.set_config(CacheConfig::unbounded());
        assert!(cache.get(3).is_some());
        assert!(cache.admission.is_none());
        // A byte budget alone is plain LRU: nothing is counted, and every
        // over-budget insert evicts the least-recently-used entry.
        let mut bytes =
            ResultCache::with_config(CacheConfig::builder().max_bytes(5 * e.approx_bytes()).build().unwrap());
        for key in 0..5 {
            request(&mut bytes, key, &e);
        }
        request(&mut bytes, 0, &e);
        request(&mut bytes, 5, &e);
        assert!(bytes.admission.is_none());
        assert!(bytes.peek(1).is_none(), "key 1 was the least recently used");
        assert!([0, 2, 3, 4, 5].iter().all(|&key| bytes.peek(key).is_some()));
    }

    #[test]
    fn a_new_result_stays_on_probation_for_an_eighth_of_the_budget() {
        // A full cache of keys asked for three times each, then new keys
        // asked for once: each stays through the next 15 inserts, so 16
        // new results in a row are all found again, in any order.
        let (_, e) = entry();
        let mut cache = ResultCache::with_config(CacheConfig::builder().max_entries(128).build().unwrap());
        assert_eq!(cache.admission.as_ref().unwrap().window_len, 16);
        for _ in 0..3 {
            for key in 0..128 {
                request(&mut cache, key, &e);
            }
        }
        for key in 1_000..1_016 {
            assert!(!request(&mut cache, key, &e));
        }
        assert!((1_000..1_016).rev().all(|key| request(&mut cache, key, &e)));
        // A, B, A: a one-off graph coming back after another miss hits.
        assert!(!request(&mut cache, 2_000, &e) && !request(&mut cache, 2_001, &e));
        assert!(request(&mut cache, 2_000, &e));
        // Once out of the window, a key asked for twice still loses to the
        // hot set; one asked for four times displaces its LRU entry.
        for key in 3_000..3_016 {
            request(&mut cache, key, &e);
        }
        assert!((1_000..1_016).all(|key| cache.peek(key).is_none()), "asked for twice, they lost");
        assert!((3_000..3_016).all(|key| cache.peek(key).is_some()), "on probation");
        // Hot keys 112..128, on probation when the new keys came, tied with
        // hot key 0 and went; the rest of the hot set is intact.
        assert!((0..112).all(|key| cache.peek(key).is_some()));
        assert_eq!(cache.len(), 128);
        // Small budgets keep a one-insert window.
        assert_eq!(Admission::new(15).window_len, 1);
        assert_eq!(Admission::new(16).window_len, 2);
    }

    #[test]
    fn two_caches_fed_one_sequence_hold_the_same_keys() {
        let (_, e) = entry();
        let config = CacheConfig::builder().max_entries(32).build().unwrap();
        let (mut first, mut second) = (ResultCache::with_config(config), ResultCache::with_config(config));
        for key in log_uniform_keys(11, 20_000) {
            // Canonical hashes use all 64 bits: spread the ranks out.
            let key = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            assert_eq!(request(&mut first, key, &e), request(&mut second, key, &e));
        }
        let keys = |cache: &ResultCache| {
            let mut keys: Vec<u64> = cache.entries.keys().copied().collect();
            keys.sort_unstable();
            keys
        };
        assert_eq!(keys(&first), keys(&second));
        assert_eq!(first.len(), 32);
    }

    #[test]
    fn from_env_reads_and_validates_budgets() {
        // Unset: unbounded. (Serial-safe: these vars are only read here.)
        std::env::remove_var("XRLFLOW_CACHE_MAX_ENTRIES");
        std::env::remove_var("XRLFLOW_CACHE_MAX_BYTES");
        assert_eq!(CacheConfig::from_env().unwrap(), CacheConfig::unbounded());
        std::env::set_var("XRLFLOW_CACHE_MAX_ENTRIES", "8");
        std::env::set_var("XRLFLOW_CACHE_MAX_BYTES", "1048576");
        let cfg = CacheConfig::from_env().unwrap();
        assert_eq!(cfg.max_entries(), Some(8));
        assert_eq!(cfg.max_bytes(), Some(1048576));
        std::env::set_var("XRLFLOW_CACHE_MAX_ENTRIES", "lots");
        assert_eq!(CacheConfig::from_env().unwrap_err().field, "cache.max_entries");
        std::env::set_var("XRLFLOW_CACHE_MAX_ENTRIES", "0");
        assert_eq!(CacheConfig::from_env().unwrap_err().field, "cache.max_entries");
        // Surrounding whitespace is ignored, as for the server's variables.
        std::env::set_var("XRLFLOW_CACHE_MAX_ENTRIES", " 5");
        assert_eq!(CacheConfig::from_env().unwrap().max_entries(), Some(5));
        std::env::remove_var("XRLFLOW_CACHE_MAX_ENTRIES");
        std::env::remove_var("XRLFLOW_CACHE_MAX_BYTES");
    }
}
