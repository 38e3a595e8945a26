//! The persistent optimisation-result cache, with configurable entry/byte
//! budgets and LRU eviction.
//!
//! Results are keyed by the *request* graph's [`Graph::canonical_hash`], so
//! structurally identical graphs — regardless of node numbering, insertion
//! order, or names — share one entry. The cache serialises to a versioned
//! JSON document (graphs embedded in the interchange format of
//! [`xrlflow_graph::json`]; see `docs/FORMATS.md` for the full schema) so a
//! restarted server can reload it and keep answering repeat requests
//! without re-running the policy.
//!
//! Cache keys are serialised as **decimal strings**, not JSON numbers:
//! canonical hashes use all 64 bits and JSON numbers are `f64`, which is
//! only exact up to 2^53.
//!
//! ## Budgets and eviction
//!
//! A [`CacheConfig`] bounds the cache by entry count and/or by (estimated)
//! bytes; [`ResultCache::insert`] evicts least-recently-used entries until
//! both budgets hold again. Recency is advanced by [`ResultCache::get`]
//! (every served hit refreshes its entry) and by inserts; recency is **not**
//! persisted — a reloaded snapshot starts with recency in document order, so
//! when a snapshot is loaded into a smaller budget the clamp keeps the
//! entries latest in the document. Every eviction bumps the
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
//! response document, rendered once. A private `digest -> key` map finds the
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

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;

use xrlflow_core::ConfigError;
use xrlflow_graph::{Graph, JsonValue};

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
        let axis = |var: &'static str, field: &'static str| -> Result<Option<usize>, ConfigError> {
            match std::env::var(var) {
                Err(_) => Ok(None),
                Ok(raw) => raw
                    .parse::<usize>()
                    .map_err(|_| ConfigError {
                        field,
                        message: format!("{var} must be a positive integer, got {raw:?}"),
                    })
                    .map(Some),
            }
        };
        let mut builder = Self::builder();
        if let Some(n) = axis("XRLFLOW_CACHE_MAX_ENTRIES", "cache.max_entries")? {
            builder = builder.max_entries(n);
        }
        if let Some(n) = axis("XRLFLOW_CACHE_MAX_BYTES", "cache.max_bytes")? {
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

/// An in-memory result cache keyed by canonical graph hash: budget-bounded
/// with LRU eviction, snapshot-persistable to disk.
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
}

impl ResultCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache with the given budgets.
    pub fn with_config(config: CacheConfig) -> Self {
        Self { config, ..Self::default() }
    }

    /// The budgets currently in force.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Replaces the budgets, immediately evicting least-recently-used
    /// entries until the new budgets hold. Returns the number of entries
    /// evicted — the load path uses this to report how hard a reloaded
    /// snapshot was clamped.
    pub fn set_config(&mut self, config: CacheConfig) -> usize {
        self.config = config;
        let evicted = self.evict_to_budget();
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

    /// Looks up the result for a request graph's canonical hash, refreshing
    /// the entry's recency: a served hit is the signal the entry is worth
    /// keeping, so `get` is `&mut self`. Use [`ResultCache::peek`] for a
    /// recency-neutral read.
    pub fn get(&mut self, key: u64) -> Option<&CacheEntry> {
        self.touch(key).map(|slot| &slot.entry)
    }

    /// Looks up a result without touching recency (tests, inspection).
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

    /// [`ResultCache::get`] for the service: the entry by value, with its
    /// key and rendered document.
    pub(crate) fn find(&mut self, key: u64) -> Option<Found> {
        let slot = self.touch(key)?;
        Some(Found { key, entry: slot.entry.clone(), rendered: slot.rendered.clone() })
    }

    /// Looks a request body up in the body index: `digest` (normally
    /// [`body_digest`] of `body`) finds the candidate entry and a full byte
    /// comparison against its memoised body decides. A match is a served
    /// hit and refreshes recency exactly as [`ResultCache::get`] does.
    pub(crate) fn find_by_body(&mut self, digest: u64, body: &[u8]) -> Option<Found> {
        let key = *self.by_digest.get(&digest)?;
        let (_, memo) = self.entries.get(&key)?.body.as_ref()?;
        if **memo != *body {
            return None;
        }
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

    /// Stores a result and evicts least-recently-used entries until the
    /// configured budgets hold, returning how many were evicted.
    ///
    /// Overwriting an existing key is deliberate and harmless: optimisation
    /// is deterministic per key (the policy is read-only and the episode RNG
    /// is seeded from the key), so two racing misses compute identical
    /// entries. The overwritten entry's body-index memos go with it.
    ///
    /// Budgets are strict: an entry that alone exceeds the byte budget is
    /// evicted immediately (the cache never lies about its footprint); the
    /// `serve/cache_evictions` counter is where such a misconfiguration
    /// becomes visible.
    pub fn insert(&mut self, key: u64, entry: CacheEntry) -> usize {
        if let Some(old) = self.entries.remove(&key) {
            self.recency.remove(&old.tick);
            self.release(key, old);
        }
        let bytes = entry.approx_bytes();
        let tick = self.next_tick;
        self.next_tick += 1;
        self.entries.insert(key, Slot { entry, tick, bytes, body: None, rendered: None });
        self.recency.insert(tick, key);
        self.total_bytes += bytes;
        let evicted = self.evict_to_budget();
        self.record_occupancy();
        evicted
    }

    /// Evicts LRU entries until both budgets hold. Returns the eviction
    /// count (also recorded into the `serve/cache_evictions` counter).
    fn evict_to_budget(&mut self) -> usize {
        let mut evicted = 0;
        loop {
            let over_entries = self.config.max_entries.is_some_and(|max| self.entries.len() > max);
            let over_bytes = self.config.max_bytes.is_some_and(|max| self.total_bytes > max);
            if !(over_entries || over_bytes) {
                break;
            }
            let Some((_, key)) = self.recency.pop_first() else { break };
            if let Some(slot) = self.entries.remove(&key) {
                self.release(key, slot);
                evicted += 1;
            }
        }
        if evicted > 0 {
            xrlflow_obs::counter!("serve/cache_evictions").add(evicted as u64);
        }
        evicted
    }

    /// Publishes current occupancy to the `serve/cache_entries` and
    /// `serve/cache_bytes` gauges (values already computed — observation
    /// only).
    fn record_occupancy(&self) {
        xrlflow_obs::gauge!("serve/cache_entries").set(self.entries.len() as f64);
        xrlflow_obs::gauge!("serve/cache_bytes").set(self.total_bytes as f64);
    }

    /// Serialises the cache as a versioned JSON snapshot. Entries are
    /// ordered by key so the output is byte-stable; neither recency nor the
    /// body index is persisted (see the module docs).
    pub fn to_json(&self) -> String {
        let mut keys: Vec<u64> = self.entries.keys().copied().collect();
        keys.sort_unstable();
        let entries: Vec<JsonValue> = keys
            .iter()
            .map(|key| {
                let e = &self.entries[key].entry;
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
            let graph = Graph::from_json_value(graph_value)?;
            clamped += cache.insert(
                key,
                CacheEntry { graph: Arc::new(graph), initial_latency_ms, final_latency_ms, steps },
            );
        }
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
        let entries = synthetic_entries(5);
        for (key, e) in entries.iter().take(3).cloned() {
            assert_eq!(cache.insert(key, e), 0);
        }
        // Touch key 0 so key 1 becomes the LRU entry.
        assert!(cache.get(0).is_some());
        let (key3, e3) = entries[3].clone();
        assert_eq!(cache.insert(key3, e3), 1, "inserting over budget evicts exactly one entry");
        assert_eq!(cache.len(), 3);
        assert!(cache.peek(1).is_none(), "the least-recently-used entry must be the one evicted");
        assert!(cache.peek(0).is_some() && cache.peek(2).is_some() && cache.peek(3).is_some());
        // Sustained load: the budget holds at every step.
        let (key4, e4) = entries[4].clone();
        cache.insert(key4, e4);
        assert_eq!(cache.len(), 3);
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
        std::env::remove_var("XRLFLOW_CACHE_MAX_ENTRIES");
        std::env::remove_var("XRLFLOW_CACHE_MAX_BYTES");
    }
}
