"""Inter-case predictive process monitoring with quantum kernel methods.

Event logs are parsed into prefix samples, encoded with intra-case and
sliding-window inter-case features, and classified with kernel SVMs
(classical or quantum-overlap kernels on a statevector simulator) or a
variational circuit. See the README for the experiment protocol.
"""

from .bench import ExperimentConfig, RunResult, run_experiment, sweep
from .encoding import FeatureVector, ScalingParams, Vocabulary, apply_scaler, fit_scaler
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateModelError,
    IcppmError,
    ParseError,
    RecordError,
    TrainingError,
)
from .eventlog import (
    END_LABEL,
    Event,
    EventLog,
    PrefixSample,
    Trace,
    build_prefix_log,
    load_log,
    parse_csv,
    parse_xes,
)
from .intercase import EventIndex, InterCaseEncoder, PeerWindow
from .qkernel import KernelKind, KernelMatrix, cross, gram, psd_repair
from .qsim import CircuitSpec, FeatureMapKind, GateOp, ShotConfig, run
from .svm import MulticlassModel, SvmModel, fit, fit_multiclass
from .vqc import OptimizerConfig, VqcModel, train

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConvergenceError",
    "DegenerateModelError",
    "IcppmError",
    "ParseError",
    "RecordError",
    "TrainingError",
    "END_LABEL",
    "Event",
    "EventLog",
    "PrefixSample",
    "Trace",
    "build_prefix_log",
    "load_log",
    "parse_csv",
    "parse_xes",
    "FeatureVector",
    "ScalingParams",
    "Vocabulary",
    "apply_scaler",
    "fit_scaler",
    "EventIndex",
    "InterCaseEncoder",
    "PeerWindow",
    "CircuitSpec",
    "FeatureMapKind",
    "GateOp",
    "ShotConfig",
    "run",
    "KernelKind",
    "KernelMatrix",
    "cross",
    "gram",
    "psd_repair",
    "MulticlassModel",
    "SvmModel",
    "fit",
    "fit_multiclass",
    "OptimizerConfig",
    "VqcModel",
    "train",
    "ExperimentConfig",
    "RunResult",
    "run_experiment",
    "sweep",
    "__version__",
]
