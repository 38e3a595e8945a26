//! Rollout storage for on-policy training.
//!
//! PPO collects several episodes of experience under the current policy
//! (the paper updates every 10 episodes, Table 4) before performing
//! mini-batch updates; the buffer stores whatever observation type the
//! caller uses (X-RLflow stores the current graph plus its candidate set).

use crate::gae::gae;

/// One environment transition.
#[derive(Debug, Clone)]
pub struct Transition<O> {
    /// The observation the action was taken in.
    pub observation: O,
    /// The action index (into the padded action space).
    pub action: usize,
    /// Log-probability of the action under the behaviour policy.
    pub log_prob: f32,
    /// Value estimate of the observation.
    pub value: f32,
    /// Reward received after the action.
    pub reward: f32,
    /// Whether the episode terminated after this transition.
    pub done: bool,
    /// Validity mask of the padded action space at this step.
    pub action_mask: Vec<bool>,
}

/// A rollout buffer accumulating transitions across episodes.
#[derive(Debug, Clone)]
pub struct RolloutBuffer<O> {
    transitions: Vec<Transition<O>>,
    advantages: Vec<f32>,
    returns: Vec<f32>,
}

// Manual impl: an empty buffer needs no `O: Default` (the derive would
// demand one even though no `O` value is ever constructed).
impl<O> Default for RolloutBuffer<O> {
    fn default() -> Self {
        Self::new()
    }
}

impl<O> RolloutBuffer<O> {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self { transitions: Vec::new(), advantages: Vec::new(), returns: Vec::new() }
    }

    /// Appends a transition.
    pub fn push(&mut self, transition: Transition<O>) {
        self.transitions.push(transition);
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// Returns `true` when no transitions are stored.
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// The stored transitions.
    pub fn transitions(&self) -> &[Transition<O>] {
        &self.transitions
    }

    /// Moves every transition of `other` onto the end of this buffer,
    /// leaving `other` empty.
    ///
    /// This is the merge primitive of the parallel rollout engine: workers
    /// collect per-episode buffers and the engine appends them **in episode
    /// order** (not completion order), so a merged buffer is
    /// transition-for-transition identical to serial collection. Derived
    /// advantages/returns on either buffer are cleared — call
    /// [`RolloutBuffer::compute_advantages`] on the merged result.
    pub fn append(&mut self, other: &mut RolloutBuffer<O>) {
        self.transitions.append(&mut other.transitions);
        self.advantages.clear();
        self.returns.clear();
        other.advantages.clear();
        other.returns.clear();
    }

    /// Computes GAE advantages and returns over the stored transitions
    /// (which may span several episodes — `done` flags reset the estimator).
    /// Advantages are normalised to zero mean and unit variance, the usual
    /// PPO stabilisation.
    pub fn compute_advantages(&mut self, gamma: f32, lambda: f32) {
        self.compute_advantages_segmented(gamma, lambda, &[]);
    }

    /// Like [`RolloutBuffer::compute_advantages`], but normalises the
    /// advantages *within each segment* of transition indices instead of
    /// globally.
    ///
    /// This is the multi-model curriculum's per-spec normalisation: a merged
    /// buffer holds each model's episodes as one contiguous segment, and
    /// normalising per segment stops a large graph's long, high-variance
    /// episodes from drowning the gradient signal of smaller models sharing
    /// the update. GAE itself is unaffected (episode boundaries come from
    /// `done` flags); only the normalisation statistics are per-segment.
    ///
    /// An empty `segments` slice means one segment spanning the whole buffer
    /// — exactly [`RolloutBuffer::compute_advantages`].
    ///
    /// # Panics
    ///
    /// Panics when the segments are not disjoint, in order, and covering
    /// every transition exactly once.
    pub fn compute_advantages_segmented(
        &mut self,
        gamma: f32,
        lambda: f32,
        segments: &[std::ops::Range<usize>],
    ) {
        let rewards: Vec<f32> = self.transitions.iter().map(|t| t.reward).collect();
        let values: Vec<f32> = self.transitions.iter().map(|t| t.value).collect();
        let dones: Vec<bool> = self.transitions.iter().map(|t| t.done).collect();
        let (mut advantages, returns) = gae(&rewards, &values, &dones, 0.0, gamma, lambda);
        let whole = 0..advantages.len();
        let segments = if segments.is_empty() { std::slice::from_ref(&whole) } else { segments };
        let mut covered = 0;
        for segment in segments {
            assert_eq!(segment.start, covered, "segments must partition the buffer in order");
            assert!(segment.end <= advantages.len(), "segment exceeds the buffer");
            covered = segment.end;
            let slice = &mut advantages[segment.clone()];
            if slice.len() > 1 {
                let mean = slice.iter().sum::<f32>() / slice.len() as f32;
                let var = slice.iter().map(|a| (a - mean) * (a - mean)).sum::<f32>() / slice.len() as f32;
                let std = var.sqrt().max(1e-6);
                for a in slice {
                    *a = (*a - mean) / std;
                }
            }
        }
        assert_eq!(covered, advantages.len(), "segments must cover every transition");
        self.advantages = advantages;
        self.returns = returns;
    }

    /// The normalised advantages (empty before [`RolloutBuffer::compute_advantages`]).
    pub fn advantages(&self) -> &[f32] {
        &self.advantages
    }

    /// The value targets (empty before [`RolloutBuffer::compute_advantages`]).
    pub fn returns(&self) -> &[f32] {
        &self.returns
    }

    /// Yields mini-batches of transition indices of size `batch_size`
    /// (the final batch may be smaller), in a deterministic shuffled order
    /// derived from `seed`.
    pub fn minibatch_indices(&self, batch_size: usize, seed: u64) -> Vec<Vec<usize>> {
        assert!(batch_size > 0, "batch size must be positive");
        let mut indices: Vec<usize> = (0..self.transitions.len()).collect();
        // Fisher–Yates with a small deterministic generator.
        let mut state = seed | 1;
        for i in (1..indices.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let j = (state % (i as u64 + 1)) as usize;
            indices.swap(i, j);
        }
        indices.chunks(batch_size).map(|c| c.to_vec()).collect()
    }

    /// Clears all stored data.
    pub fn clear(&mut self) {
        self.transitions.clear();
        self.advantages.clear();
        self.returns.clear();
    }

    /// Sum of rewards per episode, in the order episodes were collected.
    pub fn episode_rewards(&self) -> Vec<f32> {
        let mut out = Vec::new();
        let mut acc = 0.0;
        for t in &self.transitions {
            acc += t.reward;
            if t.done {
                out.push(acc);
                acc = 0.0;
            }
        }
        if acc != 0.0 {
            out.push(acc);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transition(reward: f32, done: bool) -> Transition<u32> {
        Transition {
            observation: 0,
            action: 0,
            log_prob: -0.5,
            value: 0.1,
            reward,
            done,
            action_mask: vec![true],
        }
    }

    #[test]
    fn push_and_episode_rewards() {
        let mut buf = RolloutBuffer::new();
        buf.push(transition(1.0, false));
        buf.push(transition(2.0, true));
        buf.push(transition(0.5, true));
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.episode_rewards(), vec![3.0, 0.5]);
    }

    #[test]
    fn advantages_are_normalised() {
        let mut buf = RolloutBuffer::new();
        for i in 0..10 {
            buf.push(transition(i as f32, i == 9));
        }
        buf.compute_advantages(0.99, 0.95);
        let adv = buf.advantages();
        let mean: f32 = adv.iter().sum::<f32>() / adv.len() as f32;
        let var: f32 = adv.iter().map(|a| (a - mean) * (a - mean)).sum::<f32>() / adv.len() as f32;
        assert!(mean.abs() < 1e-4);
        assert!((var - 1.0).abs() < 1e-3);
        assert_eq!(buf.returns().len(), 10);
    }

    #[test]
    fn segmented_normalisation_with_one_segment_matches_global() {
        let mut global = RolloutBuffer::new();
        let mut segmented = RolloutBuffer::new();
        for i in 0..12 {
            global.push(transition(i as f32 * 0.3 - 1.0, i % 4 == 3));
            segmented.push(transition(i as f32 * 0.3 - 1.0, i % 4 == 3));
        }
        global.compute_advantages(0.99, 0.95);
        segmented.compute_advantages_segmented(0.99, 0.95, std::slice::from_ref(&(0..12)));
        assert_eq!(global.advantages(), segmented.advantages());
        assert_eq!(global.returns(), segmented.returns());
    }

    #[test]
    fn segmented_normalisation_is_per_segment() {
        let mut buf = RolloutBuffer::new();
        // Segment 0: small rewards; segment 1: rewards two orders larger
        // (a "big model dominating the merge" in miniature).
        for i in 0..6 {
            buf.push(transition(i as f32 * 0.1, i == 5));
        }
        for i in 0..6 {
            buf.push(transition(i as f32 * 10.0, i == 5));
        }
        buf.compute_advantages_segmented(0.99, 0.95, &[0..6, 6..12]);
        for segment in [0..6usize, 6..12] {
            let adv = &buf.advantages()[segment];
            let mean: f32 = adv.iter().sum::<f32>() / adv.len() as f32;
            let var: f32 = adv.iter().map(|a| (a - mean) * (a - mean)).sum::<f32>() / adv.len() as f32;
            assert!(mean.abs() < 1e-4, "segment mean {mean} not centred");
            assert!((var - 1.0).abs() < 1e-3, "segment variance {var} not unit");
        }
        // GAE/returns are segment-independent.
        assert_eq!(buf.returns().len(), 12);
    }

    #[test]
    #[should_panic(expected = "segments must cover every transition")]
    fn segmented_normalisation_rejects_partial_cover() {
        let mut buf = RolloutBuffer::new();
        for i in 0..4 {
            buf.push(transition(i as f32, i == 3));
        }
        buf.compute_advantages_segmented(0.99, 0.95, std::slice::from_ref(&(0..2)));
    }

    #[test]
    fn minibatches_cover_all_indices_exactly_once() {
        let mut buf = RolloutBuffer::new();
        for i in 0..23 {
            buf.push(transition(i as f32, false));
        }
        let batches = buf.minibatch_indices(5, 42);
        let mut all: Vec<usize> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn minibatch_order_is_deterministic_per_seed() {
        let mut buf = RolloutBuffer::new();
        for _ in 0..16 {
            buf.push(transition(0.0, false));
        }
        assert_eq!(buf.minibatch_indices(4, 7), buf.minibatch_indices(4, 7));
        assert_ne!(buf.minibatch_indices(4, 7), buf.minibatch_indices(4, 8));
    }

    #[test]
    fn append_moves_transitions_and_invalidates_derived_data() {
        let mut a = RolloutBuffer::new();
        a.push(transition(1.0, true));
        a.compute_advantages(0.99, 0.95);
        let mut b = RolloutBuffer::new();
        b.push(transition(2.0, false));
        b.push(transition(3.0, true));
        b.compute_advantages(0.99, 0.95);
        a.append(&mut b);
        assert_eq!(a.len(), 3);
        assert!(b.is_empty());
        assert_eq!(a.transitions()[1].reward, 2.0);
        // Stale advantages must not survive the merge on either side.
        assert!(a.advantages().is_empty());
        assert!(b.advantages().is_empty());
    }

    #[test]
    fn clear_resets_everything() {
        let mut buf = RolloutBuffer::new();
        buf.push(transition(1.0, true));
        buf.compute_advantages(0.99, 0.95);
        buf.clear();
        assert!(buf.is_empty());
        assert!(buf.advantages().is_empty());
        assert!(buf.returns().is_empty());
    }
}
