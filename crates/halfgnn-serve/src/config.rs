//! Serving configuration and its named-rejection validation — the same
//! die-at-config-time discipline as `TrainConfig::validate`.

use crate::cache::CachePrecision;
use halfgnn_exec::CaptureRefused;
use halfgnn_graph::PartitionStrategy;
use halfgnn_nn::models::PrecisionMode;
use halfgnn_sim::Topology;

/// Depth of the served model (the two-layer GCN every trainer in this
/// repo produces). Request coalescing must extract at least this many
/// hops for served logits to be exact.
pub const MODEL_DEPTH: usize = 2;

/// Serving configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Kernel/precision system for the forward pass. Serving supports
    /// [`PrecisionMode::Float`] and [`PrecisionMode::HalfGnn`]; the
    /// training-ablation modes are rejected by [`ServeConfig::validate`].
    pub precision: PrecisionMode,
    /// Receptive-field hops extracted per request (≥ [`MODEL_DEPTH`]).
    pub hops: usize,
    /// Maximum concurrent requests coalesced into one batched launch.
    pub batch_window: usize,
    /// Embedding-cache byte budget (0 disables the cache).
    pub cache_bytes: usize,
    /// Embedding-cache entry precision — f16 fits ~2× the vertices of
    /// f32 in the same budget, the headline serving metric.
    pub cache_precision: CachePrecision,
    /// Simulated devices the feature table is sharded over.
    pub shards: usize,
    /// Interconnect wiring between the shards (ignored when `shards == 1`).
    pub topology: Topology,
    /// Vertex-to-shard assignment (ignored when `shards == 1`).
    pub partition: PartitionStrategy,
    /// Capture the first batch's kernel sequence and replay it for every
    /// later batch of the same shape (launch overhead stripped). Requires
    /// `batch_window == 1` — see [`CaptureRefused::DynamicBatchShape`].
    pub replay: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            precision: PrecisionMode::Float,
            hops: MODEL_DEPTH,
            batch_window: 8,
            cache_bytes: 0,
            cache_precision: CachePrecision::F16,
            shards: 1,
            topology: Topology::Ring,
            partition: PartitionStrategy::Contiguous,
            replay: false,
        }
    }
}

/// A serving configuration rejected before the engine is built, by name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeConfigError {
    /// `--hops` below the model depth: served logits would read truncated
    /// receptive fields and silently diverge from training-side outputs.
    HopsBelowModelDepth,
    /// `--batch-window 0` coalesces nothing.
    ZeroBatchWindow,
    /// `--shards 0` leaves the feature table nowhere.
    ZeroShards,
    /// `--precision halfnaive` / `nodiscretize` are training ablations
    /// (grad-bearing overflow studies), and `i8` is a training-side
    /// bandwidth optimization whose stochastic rounding would make
    /// served logits nondeterministic — none are serving modes.
    TrainingOnlyPrecision,
    /// `--replay` with `--batch-window` > 1: no steady-state kernel
    /// sequence exists to capture.
    ReplayWithDynamicBatch(CaptureRefused),
    /// Half-precision serving needs even feature/class widths (half2
    /// kernel layout); the loaded model has odd dims.
    OddWidthForHalf,
    /// The snapshot's architecture is not the two-layer GCN the serving
    /// forward path implements.
    SnapshotModelUnsupported,
    /// The snapshot's parameter count does not match its declared dims.
    SnapshotDimsMismatch,
    /// `--partition 1p5d` with a shard count the replication factor does
    /// not divide: replication groups must be whole.
    ReplicationDoesNotDivideShards,
}

impl std::fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeConfigError::HopsBelowModelDepth => write!(
                f,
                "--hops must be at least the model depth ({MODEL_DEPTH}) so served \
                 embeddings are exact"
            ),
            ServeConfigError::ZeroBatchWindow => {
                write!(f, "--batch-window must be at least 1")
            }
            ServeConfigError::ZeroShards => write!(f, "--shards must be at least 1"),
            ServeConfigError::TrainingOnlyPrecision => write!(
                f,
                "unsupported serving precision: halfnaive, nodiscretize and i8 are \
                 training-only modes; --precision must be float|halfgnn"
            ),
            ServeConfigError::ReplayWithDynamicBatch(r) => {
                write!(f, "--replay requires --batch-window 1 ({r})")
            }
            ServeConfigError::OddWidthForHalf => write!(
                f,
                "half-precision serving requires even feature and class widths \
                 (half2 layout); retrain with padded dims or serve --precision float"
            ),
            ServeConfigError::SnapshotModelUnsupported => write!(
                f,
                "snapshot model is not servable: the serving forward path implements \
                 the two-layer GCN (model gcn)"
            ),
            ServeConfigError::SnapshotDimsMismatch => write!(
                f,
                "snapshot parameter count does not match its declared dims (torn or \
                 mismatched file?)"
            ),
            ServeConfigError::ReplicationDoesNotDivideShards => {
                write!(f, "--partition 1p5d requires --shards divisible by the replication factor")
            }
        }
    }
}

impl std::error::Error for ServeConfigError {}

impl ServeConfig {
    /// Reject configurations that cannot serve, with a named reason.
    pub fn validate(&self) -> Result<(), ServeConfigError> {
        if self.hops < MODEL_DEPTH {
            return Err(ServeConfigError::HopsBelowModelDepth);
        }
        if self.batch_window == 0 {
            return Err(ServeConfigError::ZeroBatchWindow);
        }
        if self.shards == 0 {
            return Err(ServeConfigError::ZeroShards);
        }
        if matches!(
            self.precision,
            PrecisionMode::HalfNaive | PrecisionMode::HalfGnnNoDiscretize | PrecisionMode::I8
        ) {
            return Err(ServeConfigError::TrainingOnlyPrecision);
        }
        if self.replay && self.batch_window != 1 {
            return Err(ServeConfigError::ReplayWithDynamicBatch(
                CaptureRefused::DynamicBatchShape,
            ));
        }
        if self.shards > 1 && !self.shards.is_multiple_of(self.partition.replication()) {
            return Err(ServeConfigError::ReplicationDoesNotDivideShards);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(ServeConfig::default().validate(), Ok(()));
    }

    #[test]
    fn each_illegal_combination_is_named() {
        let base = ServeConfig::default;
        let cases: Vec<(ServeConfig, ServeConfigError)> = vec![
            (ServeConfig { hops: 0, ..base() }, ServeConfigError::HopsBelowModelDepth),
            (ServeConfig { hops: 1, ..base() }, ServeConfigError::HopsBelowModelDepth),
            (ServeConfig { batch_window: 0, ..base() }, ServeConfigError::ZeroBatchWindow),
            (ServeConfig { shards: 0, ..base() }, ServeConfigError::ZeroShards),
            (
                ServeConfig { precision: PrecisionMode::HalfNaive, ..base() },
                ServeConfigError::TrainingOnlyPrecision,
            ),
            (
                ServeConfig { precision: PrecisionMode::HalfGnnNoDiscretize, ..base() },
                ServeConfigError::TrainingOnlyPrecision,
            ),
            (
                ServeConfig { precision: PrecisionMode::I8, ..base() },
                ServeConfigError::TrainingOnlyPrecision,
            ),
            (
                ServeConfig { replay: true, batch_window: 4, ..base() },
                ServeConfigError::ReplayWithDynamicBatch(CaptureRefused::DynamicBatchShape),
            ),
            (
                ServeConfig { shards: 3, partition: PartitionStrategy::OneP5D { c: 2 }, ..base() },
                ServeConfigError::ReplicationDoesNotDivideShards,
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(cfg.validate(), Err(want.clone()), "{cfg:?}");
            // Every error formats without panicking and is non-empty.
            assert!(!want.to_string().is_empty());
        }
        // Replay with window 1 is the legal capture shape.
        assert_eq!(
            ServeConfig { replay: true, batch_window: 1, ..ServeConfig::default() }.validate(),
            Ok(())
        );
        // 1.5D with a divisible shard count serves fine.
        assert_eq!(
            ServeConfig {
                shards: 4,
                partition: PartitionStrategy::OneP5D { c: 2 },
                ..ServeConfig::default()
            }
            .validate(),
            Ok(())
        );
    }

    #[test]
    fn replay_error_carries_the_capture_refusal_text() {
        let err = ServeConfig { replay: true, batch_window: 2, ..ServeConfig::default() }
            .validate()
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("--replay"), "{msg}");
        assert!(msg.contains("--batch-window"), "{msg}");
        assert!(msg.contains("capture refused"), "{msg}");
    }
}
