//! The five workloads and the seeded generator of their inputs.
//!
//! `--seed` drives only what is generated here (which graphs are requested,
//! in which order) and the trainer seed of the `train_*` workloads; the
//! program under test sees nothing but the generated bodies and specs.

use xrlflow::graph::models::{ModelConfig, ModelKind, ModelScale};
use xrlflow::graph::Graph;
use xrlflow::tensor::{splitmix64, XorShiftRng};

/// The eight zoo architectures the serve workloads draw from.
pub const KINDS: [ModelKind; 8] = [
    ModelKind::InceptionV3,
    ModelKind::SqueezeNet,
    ModelKind::ResNext50,
    ModelKind::ResNet18,
    ModelKind::Bert,
    ModelKind::DallE,
    ModelKind::TransformerTransducer,
    ModelKind::Vit,
];

/// The models the served policy and `train_zoo` train on.
pub const CURRICULUM_KINDS: [ModelKind; 3] = [ModelKind::SqueezeNet, ModelKind::Bert, ModelKind::ResNet18];

/// Distinct input sizes per kind in the `serve_cold` universe
/// (8 x 256 = 2048 never-seen graphs, more than a run can consume).
pub const COLD_SIZES_PER_KIND: usize = 256;
/// The kinds `serve_mixed` draws from: all but InceptionV3. A miss on its
/// 268-node graphs costs ten times any other miss; with it in the mix, a
/// run's throughput and tail are a count of how many Inception misses
/// happened to fall into it (same-seed runs spread by 17 %).
pub const MIXED_KINDS: [ModelKind; 7] = [
    ModelKind::SqueezeNet,
    ModelKind::ResNext50,
    ModelKind::ResNet18,
    ModelKind::Bert,
    ModelKind::DallE,
    ModelKind::TransformerTransducer,
    ModelKind::Vit,
];
/// Distinct input sizes per kind in the `serve_mixed` universe (U = 504).
pub const MIXED_SIZES_PER_KIND: usize = 72;
/// The result-cache entry budget on `serve_mixed`: a quarter of the universe.
pub const MIXED_CACHE_ENTRIES: usize = 128;
/// Length of the pre-drawn request order of the repeating workloads; the
/// order wraps around if a run outlasts it.
const REPEATING_ORDER_LEN: usize = 1 << 16;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every request a never-seen graph: the policy path does all the work.
    ServeCold,
    /// Every request a cache hit: transport, import, hash, export.
    ServeWarm,
    /// Skewed popularity over a universe four times the cache budget.
    ServeMixed,
    /// Curriculum training on three models with two workers and checkpoints.
    TrainZoo,
    /// Single-model, single-worker training without checkpoints.
    TrainSingle,
}

impl Workload {
    /// Every workload, in the order `--all` runs them.
    pub const ALL: [Workload; 5] = [
        Workload::ServeCold,
        Workload::ServeWarm,
        Workload::ServeMixed,
        Workload::TrainZoo,
        Workload::TrainSingle,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeCold => "serve_cold",
            Workload::ServeWarm => "serve_warm",
            Workload::ServeMixed => "serve_mixed",
            Workload::TrainZoo => "train_zoo",
            Workload::TrainSingle => "train_single",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` for the workloads that drive the HTTP server.
    pub fn is_serve(self) -> bool {
        matches!(self, Workload::ServeCold | Workload::ServeWarm | Workload::ServeMixed)
    }

    /// The tail quantile `latency_tail_ms` reports. Each sits inside a mode
    /// of its workload's latency distribution, not on the edge between two,
    /// where a few requests more or less of one kind would move it by a
    /// factor: **p95** on `serve_cold` (the InceptionV3 eighth of the
    /// requests) and `serve_warm` (on the shared hosts this runs on, p99 of a
    /// 1 ms request is set by the handful of scheduler hiccups a run happens
    /// to meet: same-code runs 77 % apart at the extremes, p95 27 %), **p99**
    /// on `serve_mixed` (the costliest misses; p95 falls between two kinds of
    /// miss), **p90** of the 60–160 rounds of a `train_*` run.
    pub fn tail_quantile(self) -> f64 {
        match self {
            Workload::ServeCold | Workload::ServeWarm => 0.95,
            Workload::ServeMixed => 0.99,
            Workload::TrainZoo | Workload::TrainSingle => 0.90,
        }
    }

    /// How strongly the workload's CPU time follows the machine probe (see
    /// [`crate::machine`]): CPU time grows as the probe's reading to this
    /// power. The log-log slope of the runs' median CPU time over their
    /// median probe reading, fitted once over 22–64 runs per workload that
    /// spanned quiet and loaded phases of the host (probe 52–107 µs), on the
    /// code the benchmark was defined on. The serve workloads probe every
    /// 20 ms, between requests, into a half-warm cache; the train workloads
    /// only between rounds, into a cold one, where the probe moves less than
    /// the training does — hence exponents on both sides of 1.
    ///
    /// A change that makes a workload touch memory differently moves its
    /// true exponent; the error that leaves in a reported time is the
    /// exponent's shift times the logarithm of the slowness: nothing on a
    /// quiet machine, 3–4 % per 0.1 when the probe reads 1.4x its reference.
    pub fn machine_sensitivity(self) -> f64 {
        match self {
            Workload::ServeCold | Workload::ServeWarm | Workload::ServeMixed => 0.8,
            Workload::TrainZoo => 1.15,
            Workload::TrainSingle => 1.5,
        }
    }
}

/// One request the load generator can send.
#[derive(Debug, Clone)]
pub struct RequestBody {
    /// The architecture the graph was built from.
    pub kind: ModelKind,
    /// Image size or sequence length it was built at.
    pub input_size: usize,
    /// The `POST /optimize` body (graph interchange JSON).
    pub body: String,
    /// The graph's canonical hash — the service's cache key.
    pub key: u64,
}

/// The generated input of one serve workload: a table of request bodies and
/// the order in which the clients send them.
#[derive(Debug, Clone)]
pub struct RequestStream {
    /// Distinct request bodies.
    pub bodies: Vec<RequestBody>,
    /// Indices into `bodies`, in send order.
    pub order: Vec<u32>,
    /// Whether the order wraps around when exhausted (`serve_cold` must
    /// never repeat a body, so its run ends with its order).
    pub wraps: bool,
}

impl RequestStream {
    /// The body index of stream position `position`, or `None` once a
    /// non-wrapping stream is exhausted.
    pub fn at(&self, position: usize) -> Option<u32> {
        if position < self.order.len() {
            Some(self.order[position])
        } else if self.wraps {
            Some(self.order[position % self.order.len()])
        } else {
            None
        }
    }

    /// A digest of the request stream (cache keys in send order): equal
    /// seeds must give equal digests, different seeds different ones.
    pub fn digest(&self) -> u64 {
        self.order
            .iter()
            .fold(self.order.len() as u64, |acc, &index| splitmix64(acc ^ self.bodies[index as usize].key))
    }
}

/// Fisher–Yates shuffle driven by the benchmark's own seeded generator.
pub fn shuffle<T>(items: &mut [T], rng: &mut XorShiftRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(i + 1));
    }
}

/// Builds one request body; `None` when shape inference rejects the size.
fn build_body(kind: ModelKind, input_size: usize) -> Option<RequestBody> {
    let graph = ModelConfig::new(kind, ModelScale::Bench).with_input_size(input_size).build().ok()?;
    Some(RequestBody { kind, input_size, body: graph.to_json(), key: graph.canonical_hash() })
}

/// Input sizes scanned per requested body before giving up on a kind.
const SCAN_FACTOR: usize = 4;

/// The first `count` input sizes of `kind` that build, scanning upwards from
/// a quarter of the default size plus `offset`. Sizes that fail shape
/// inference are skipped, so no generated request can fail for a reason of
/// its own.
fn bodies_of_kind(kind: ModelKind, offset: usize, count: usize) -> Vec<RequestBody> {
    let first = (kind.default_input_size() / 4).max(8) + offset;
    let bodies: Vec<RequestBody> =
        (first..first + SCAN_FACTOR * count).filter_map(|size| build_body(kind, size)).take(count).collect();
    assert_eq!(bodies.len(), count, "{kind}: fewer than {count} input sizes build");
    bodies
}

/// Probe set `set` (0 or 1) of the traced run: one body per kind at an input
/// size beyond every workload's universe, so each is a guaranteed miss the
/// first time it is sent and a guaranteed hit right after. Every traced run
/// sends them, whatever its workload, so no hit- or miss-path number is
/// ever left unmeasured.
pub fn probe_bodies(set: usize) -> Vec<RequestBody> {
    let beyond = SCAN_FACTOR * COLD_SIZES_PER_KIND + 2 * SCAN_FACTOR * set;
    KINDS.iter().flat_map(|&kind| bodies_of_kind(kind, beyond, 1)).collect()
}

/// `per_kind` bodies of each of `kinds`, each kind's list shuffled by the
/// seed, flattened kind-major (`index = slot * per_kind + position`).
fn shuffled_universe(kinds: &[ModelKind], per_kind: usize, rng: &mut XorShiftRng) -> Vec<RequestBody> {
    let mut universe = Vec::with_capacity(kinds.len() * per_kind);
    for &kind in kinds {
        let mut bodies = bodies_of_kind(kind, 0, per_kind);
        shuffle(&mut bodies, rng);
        universe.extend(bodies);
    }
    universe
}

/// `groups` seeded permutations of `0..kinds`, concatenated: position
/// `g * kinds + i` names the kind slot sent (or ranked) there, so every
/// aligned group of `kinds` positions covers every kind once.
fn balanced_slots(kinds: usize, groups: usize, rng: &mut XorShiftRng) -> Vec<usize> {
    let mut slots = Vec::with_capacity(kinds * groups);
    for _ in 0..groups {
        let mut perm: Vec<usize> = (0..kinds).collect();
        shuffle(&mut perm, rng);
        slots.extend(perm);
    }
    slots
}

/// Generates the request stream of a serve workload from the seed.
///
/// Every stream is balanced over its kinds in each aligned group of
/// positions (or popularity ranks), so any prefix a time-bounded run
/// completes has the same mix of cheap and expensive architectures.
///
/// # Panics
///
/// Panics when called for a `train_*` workload.
pub fn request_stream(workload: Workload, seed: u64) -> RequestStream {
    let mut rng = XorShiftRng::new(splitmix64(seed ^ 0x5EED_0F7E_57AB));
    match workload {
        Workload::ServeCold => {
            let bodies = shuffled_universe(&KINDS, COLD_SIZES_PER_KIND, &mut rng);
            let order = balanced_slots(KINDS.len(), COLD_SIZES_PER_KIND, &mut rng)
                .into_iter()
                .enumerate()
                .map(|(i, slot)| (slot * COLD_SIZES_PER_KIND + i / KINDS.len()) as u32)
                .collect();
            RequestStream { bodies, order, wraps: false }
        }
        Workload::ServeWarm => {
            let bodies: Vec<RequestBody> = KINDS
                .iter()
                .map(|&kind| build_body(kind, kind.default_input_size()).expect("default size builds"))
                .collect();
            let order = balanced_slots(KINDS.len(), REPEATING_ORDER_LEN / KINDS.len(), &mut rng)
                .into_iter()
                .map(|slot| slot as u32)
                .collect();
            RequestStream { bodies, order, wraps: true }
        }
        Workload::ServeMixed => {
            let bodies = shuffled_universe(&MIXED_KINDS, MIXED_SIZES_PER_KIND, &mut rng);
            // Popularity rank r is kind `r % 7` at shuffled position `r / 7`:
            // every seven consecutive ranks cover every kind, and which kind
            // holds which rank does not depend on the seed — the few hottest
            // ranks draw a third of the traffic, so with seeded kinds the
            // median request was a BERT on one seed and a ResNeXt on the next
            // (medians 12 % apart). The seed picks the sizes and the draws.
            let by_rank: Vec<u32> = (0..bodies.len())
                .map(|rank| {
                    ((rank % MIXED_KINDS.len()) * MIXED_SIZES_PER_KIND + rank / MIXED_KINDS.len()) as u32
                })
                .collect();
            let universe = by_rank.len() as f64;
            let order = (0..REPEATING_ORDER_LEN)
                .map(|_| {
                    // Log-uniform popularity: rank = floor(U^u) - 1, u in [0, 1).
                    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    by_rank[(universe.powf(u).floor() as usize - 1).min(by_rank.len() - 1)]
                })
                .collect();
            RequestStream { bodies, order, wraps: true }
        }
        Workload::TrainZoo | Workload::TrainSingle => panic!("{} has no request stream", workload.name()),
    }
}

/// Builds a zoo graph at its default input size.
pub fn zoo_graph(kind: ModelKind) -> Graph {
    ModelConfig::new(kind, ModelScale::Bench).build().expect("default zoo graphs build")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("serve"), None);
    }

    #[test]
    fn same_seed_same_stream_and_different_seed_different_stream() {
        for workload in [Workload::ServeCold, Workload::ServeWarm, Workload::ServeMixed] {
            let a = request_stream(workload, 7);
            let b = request_stream(workload, 7);
            let c = request_stream(workload, 8);
            assert_eq!(a.digest(), b.digest(), "{}: same seed, different stream", workload.name());
            assert_eq!(a.order, b.order);
            assert_ne!(a.digest(), c.digest(), "{}: different seed, same stream", workload.name());
        }
    }

    #[test]
    fn cold_bodies_are_all_distinct_and_never_repeat() {
        let stream = request_stream(Workload::ServeCold, 1);
        assert_eq!(stream.bodies.len(), KINDS.len() * COLD_SIZES_PER_KIND);
        let keys: HashSet<u64> = stream.bodies.iter().map(|b| b.key).collect();
        assert_eq!(keys.len(), stream.bodies.len(), "canonical hashes collide");
        let sent: HashSet<u32> = stream.order.iter().copied().collect();
        assert_eq!(sent.len(), stream.order.len(), "a cold body is sent twice");
        assert_eq!(stream.at(stream.order.len()), None, "a cold stream must not wrap");
        // Any aligned group of eight positions covers the eight kinds.
        for group in stream.order.chunks(8).take(16) {
            let kinds: HashSet<&str> = group.iter().map(|&i| stream.bodies[i as usize].kind.name()).collect();
            assert_eq!(kinds.len(), 8);
        }
    }

    #[test]
    fn probe_bodies_lie_outside_every_universe() {
        let cold: HashSet<u64> =
            request_stream(Workload::ServeCold, 1).bodies.iter().map(|b| b.key).collect();
        let probes: Vec<RequestBody> = probe_bodies(0).into_iter().chain(probe_bodies(1)).collect();
        let keys: HashSet<u64> = probes.iter().map(|b| b.key).collect();
        assert_eq!(keys.len(), 16, "probe bodies repeat");
        assert!(keys.is_disjoint(&cold), "a probe body is part of the cold universe");
        for (probe, kind) in probes.iter().zip(KINDS.iter().chain(KINDS.iter())) {
            assert_eq!(probe.kind, *kind);
            assert_ne!(probe.input_size, kind.default_input_size());
        }
    }

    #[test]
    fn warm_stream_cycles_over_the_eight_default_graphs() {
        let stream = request_stream(Workload::ServeWarm, 3);
        assert_eq!(stream.bodies.len(), 8);
        for cycle in stream.order.chunks(8).take(32) {
            let seen: HashSet<u32> = cycle.iter().copied().collect();
            assert_eq!(seen.len(), 8);
        }
        assert_eq!(stream.at(stream.order.len() + 5), Some(stream.order[5]));
    }

    #[test]
    fn mixed_stream_is_skewed_over_a_universe_larger_than_the_cache() {
        let stream = request_stream(Workload::ServeMixed, 5);
        assert_eq!(stream.bodies.len(), 504);
        assert!(stream.bodies.iter().all(|b| b.kind != ModelKind::InceptionV3));
        // The hottest graphs are of the same kinds at every seed.
        let hottest = |stream: &RequestStream| {
            let mut counts = std::collections::HashMap::new();
            for &index in &stream.order {
                *counts.entry(index).or_insert(0usize) += 1;
            }
            let mut by_count: Vec<(usize, u32)> = counts.into_iter().map(|(index, n)| (n, index)).collect();
            by_count.sort_unstable_by(|a, b| b.cmp(a));
            by_count.iter().take(3).map(|&(_, index)| stream.bodies[index as usize].kind).collect::<Vec<_>>()
        };
        assert_eq!(hottest(&stream), MIXED_KINDS[..3]);
        assert_eq!(hottest(&request_stream(Workload::ServeMixed, 6)), MIXED_KINDS[..3]);
        let prefix = &stream.order[..8192];
        let distinct: HashSet<u32> = prefix.iter().copied().collect();
        assert!(distinct.len() > MIXED_CACHE_ENTRIES, "working set fits the cache: {}", distinct.len());
        // Log-uniform: half the draws fall on the sqrt(U) ~ 22 most popular ranks.
        let mut counts = std::collections::HashMap::new();
        for &index in prefix {
            *counts.entry(index).or_insert(0usize) += 1;
        }
        let mut by_count: Vec<usize> = counts.into_values().collect();
        by_count.sort_unstable_by(|a, b| b.cmp(a));
        let top: usize = by_count.iter().take(24).sum();
        assert!(top * 10 > prefix.len() * 4, "top 24 bodies draw only {top} of {}", prefix.len());
    }
}
