//! Configuration of the X-RLflow system.
//!
//! Defaults follow the paper's Table 4: learning rate 5e-4, value-loss
//! coefficient 0.5, entropy coefficient 0.01, edge normaliser M = 4096,
//! k = 5 GAT layers, update frequency 10, feedback frequency N = 5, MLP
//! heads [256, 64] and batch size 16.

use xrlflow_env::EnvConfig;
use xrlflow_gnn::EncoderConfig;
use xrlflow_rl::PpoHyperParams;

/// Full configuration of the X-RLflow agent, environment and training loop.
#[derive(Debug, Clone)]
pub struct XrlflowConfig {
    /// PPO hyper-parameters (Table 4).
    pub ppo: PpoHyperParams,
    /// GNN encoder configuration (hidden width and `k` GAT layers).
    pub encoder: EncoderConfig,
    /// Hidden sizes of the policy and value MLP heads (Table 4: `[256, 64]`).
    pub head_dims: Vec<usize>,
    /// Environment configuration (feedback frequency `N`, action-space
    /// padding, step budget).
    pub env: EnvConfig,
    /// Upper bound on the worker threads of the parallel rollout engine
    /// (`xrlflow-rollout`): a phase starts `min(num_workers, usable CPUs,
    /// work items)` threads, where usable CPUs honours the process's
    /// affinity mask and cgroup CPU quota. `1` keeps every phase on the
    /// calling thread; any value is transition-for-transition equivalent —
    /// workers replay a fixed per-episode seed schedule against the one
    /// borrowed agent, so the worker count changes wall-clock time only,
    /// never a learned number. Overridable at run time via the
    /// `XRLFLOW_WORKERS` environment variable (see
    /// [`XrlflowConfig::effective_num_workers`]).
    pub num_workers: usize,
}

impl XrlflowConfig {
    /// The paper's configuration (Table 4). Training on full-size models is a
    /// GPU-scale workload; use [`XrlflowConfig::bench`] or
    /// [`XrlflowConfig::smoke_test`] for CPU-scale experiments with the same
    /// structure.
    pub fn paper() -> Self {
        Self {
            ppo: PpoHyperParams::default(),
            encoder: EncoderConfig { hidden_dim: 64, num_gat_layers: 5 },
            head_dims: vec![256, 64],
            env: EnvConfig::default(),
            num_workers: 1,
        }
    }

    /// A CPU-friendly configuration used by the benchmark harness: identical
    /// structure with a narrower encoder and shorter episodes.
    pub fn bench() -> Self {
        Self {
            ppo: PpoHyperParams {
                update_frequency: 4,
                epochs_per_update: 2,
                batch_size: 16,
                ..PpoHyperParams::default()
            },
            encoder: EncoderConfig { hidden_dim: 32, num_gat_layers: 3 },
            head_dims: vec![64, 32],
            env: EnvConfig { max_steps: 25, max_candidates: 32, ..EnvConfig::default() },
            num_workers: 4,
        }
    }

    /// A minimal configuration for unit tests (tiny networks, very short
    /// episodes) that still exercises every code path.
    pub fn smoke_test() -> Self {
        Self {
            ppo: PpoHyperParams {
                update_frequency: 2,
                epochs_per_update: 1,
                batch_size: 8,
                ..PpoHyperParams::default()
            },
            encoder: EncoderConfig { hidden_dim: 16, num_gat_layers: 1 },
            head_dims: vec![32, 16],
            env: EnvConfig { max_steps: 4, max_candidates: 8, feedback_frequency: 2 },
            num_workers: 2,
        }
    }

    /// The rollout worker count in effect — an upper bound, like
    /// [`XrlflowConfig::num_workers`]: the rollout engine never starts more
    /// threads than the process may use CPUs. The `XRLFLOW_WORKERS`
    /// environment variable when set to a positive integer, otherwise
    /// [`XrlflowConfig::num_workers`], floored at 1.
    pub fn effective_num_workers(&self) -> usize {
        std::env::var("XRLFLOW_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&w| w > 0)
            .unwrap_or(self.num_workers)
            .max(1)
    }

    /// Checks the configuration for degenerate values (zero workers, batch
    /// sizes, step budgets, …), returning a typed [`ConfigError`] instead
    /// of panicking deep inside training. Presets always pass; this is the
    /// boundary-facing check for externally supplied settings.
    ///
    /// # Examples
    ///
    /// ```
    /// use xrlflow_core::XrlflowConfig;
    ///
    /// let cfg = XrlflowConfig { num_workers: 2, ..XrlflowConfig::paper() };
    /// assert!(cfg.validate().is_ok());
    /// assert!(XrlflowConfig { num_workers: 0, ..cfg }.validate().is_err());
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first degenerate field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let positive = |field: &'static str, value: usize| {
            if value == 0 {
                Err(ConfigError { field, message: "must be positive".to_string() })
            } else {
                Ok(())
            }
        };
        positive("num_workers", self.num_workers)?;
        positive("ppo.batch_size", self.ppo.batch_size)?;
        positive("ppo.update_frequency", self.ppo.update_frequency)?;
        positive("ppo.epochs_per_update", self.ppo.epochs_per_update)?;
        positive("encoder.hidden_dim", self.encoder.hidden_dim)?;
        positive("encoder.num_gat_layers", self.encoder.num_gat_layers)?;
        positive("env.max_steps", self.env.max_steps)?;
        positive("env.max_candidates", self.env.max_candidates)?;
        positive("env.feedback_frequency", self.env.feedback_frequency)?;
        if self.head_dims.is_empty() {
            return Err(ConfigError {
                field: "head_dims",
                message: "must name at least one hidden layer".to_string(),
            });
        }
        for (i, &dim) in self.head_dims.iter().enumerate() {
            if dim == 0 {
                return Err(ConfigError {
                    field: "head_dims",
                    message: format!("layer {i} must be positive"),
                });
            }
        }
        Ok(())
    }
}

/// A rejected [`XrlflowConfig::validate`]: which field failed and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Dotted path of the offending field (e.g. `"ppo.batch_size"`).
    pub field: &'static str,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid configuration: {} {}", self.field, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl Default for XrlflowConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Flat summary of the hyper-parameters, mirroring the paper's
/// Table 4 (used by the benchmark harness to print the table).
#[derive(Debug, Clone, PartialEq)]
pub struct HyperParameterTable {
    /// Learning rate of PPO's policy and value networks.
    pub learning_rate: f32,
    /// Value loss coefficient `c1`.
    pub value_loss_coefficient: f32,
    /// Entropy loss coefficient `c2`.
    pub entropy_coefficient: f32,
    /// Edge attribute normalisation constant `M`.
    pub edge_attribute_constant: f32,
    /// Number of GAT layers `k`.
    pub num_gat_layers: usize,
    /// Update frequency (episodes between PPO updates).
    pub update_frequency: usize,
    /// Feedback frequency `N` (steps between latency measurements).
    pub feedback_frequency: usize,
    /// MLP head hidden sizes.
    pub mlp_heads: Vec<usize>,
    /// Mini-batch size.
    pub batch_size: usize,
}

impl From<&XrlflowConfig> for HyperParameterTable {
    fn from(cfg: &XrlflowConfig) -> Self {
        Self {
            learning_rate: xrlflow_rl::LEARNING_RATE,
            value_loss_coefficient: xrlflow_rl::VALUE_LOSS_COEFFICIENT,
            entropy_coefficient: xrlflow_rl::ENTROPY_COEFFICIENT,
            edge_attribute_constant: xrlflow_gnn::EDGE_NORMALISER,
            num_gat_layers: cfg.encoder.num_gat_layers,
            update_frequency: cfg.ppo.update_frequency,
            feedback_frequency: cfg.env.feedback_frequency,
            mlp_heads: cfg.head_dims.clone(),
            batch_size: cfg.ppo.batch_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table4() {
        let table = HyperParameterTable::from(&XrlflowConfig::paper());
        assert_eq!(table.learning_rate, 5e-4);
        assert_eq!(table.value_loss_coefficient, 0.5);
        assert_eq!(table.entropy_coefficient, 0.01);
        assert_eq!(table.edge_attribute_constant, 4096.0);
        assert_eq!(table.num_gat_layers, 5);
        assert_eq!(table.update_frequency, 10);
        assert_eq!(table.feedback_frequency, 5);
        assert_eq!(table.mlp_heads, vec![256, 64]);
        assert_eq!(table.batch_size, 16);
        assert_eq!(xrlflow_rl::CLIP_EPSILON, 0.2);
        assert_eq!(xrlflow_rl::MAX_GRAD_NORM, 0.5);
        assert_eq!(xrlflow_env::EXPLORATION_BONUS, 0.1);
    }

    #[test]
    fn smoke_test_config_is_small() {
        let cfg = XrlflowConfig::smoke_test();
        assert!(cfg.encoder.hidden_dim <= 16);
        assert!(cfg.env.max_steps <= 5);
    }

    #[test]
    fn validate_accepts_valid_overrides() {
        let mut cfg = XrlflowConfig { num_workers: 3, ..XrlflowConfig::paper() };
        cfg.ppo.batch_size = 4;
        cfg.head_dims = vec![32];
        cfg.validate().unwrap();
    }

    #[test]
    fn validate_rejects_degenerate_values() {
        type Degrade = fn(&mut XrlflowConfig);
        let cases: [(Degrade, &str); 6] = [
            (|c| c.num_workers = 0, "num_workers"),
            (|c| c.ppo.batch_size = 0, "ppo.batch_size"),
            (|c| c.head_dims = vec![], "head_dims"),
            (|c| c.head_dims = vec![64, 0], "head_dims"),
            (|c| c.encoder = EncoderConfig { hidden_dim: 0, num_gat_layers: 1 }, "encoder.hidden_dim"),
            (|c| c.env = EnvConfig { max_steps: 0, ..EnvConfig::default() }, "env.max_steps"),
        ];
        for (degrade, field) in cases {
            let mut config = XrlflowConfig::paper();
            degrade(&mut config);
            let err = config.validate().expect_err(field);
            assert_eq!(err.field, field);
            assert!(err.to_string().contains(field));
        }
    }

    #[test]
    fn presets_all_validate() {
        for cfg in [XrlflowConfig::paper(), XrlflowConfig::bench(), XrlflowConfig::smoke_test()] {
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn effective_num_workers_is_at_least_one() {
        // XRLFLOW_WORKERS may or may not be set in the ambient environment
        // (CI sets it for bench jobs); whatever its value, the effective
        // count must be usable as a thread count.
        let mut cfg = XrlflowConfig::smoke_test();
        cfg.num_workers = 0;
        assert!(cfg.effective_num_workers() >= 1);
        cfg.num_workers = 3;
        assert!(cfg.effective_num_workers() >= 1);
    }
}
