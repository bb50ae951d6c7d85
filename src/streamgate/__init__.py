"""streamgate: deterministic benchmark harness for stream-paced test-time adaptation.

Adaptation methods are charged their per-batch cost against a constant-speed
data stream; batches arriving while a method is busy are predicted by a
fallback snapshot instead.  The package ships a synthetic distribution-shift
benchmark, desk-scale adapter analogs with latency models, offline/online/
single-model protocols, counterfactual trace replay, and a CLI.
"""

from .adapters import (
    ADAPTERS,
    AdaptOutcome,
    Adapter,
    Constant,
    EntropyMinAdapter,
    InputRestoreAdapter,
    NormStatAdapter,
    PerSample,
    PseudoLabelAdapter,
    RejectionEntropyAdapter,
    SourceAdapter,
    Stochastic,
    make_adapter,
    sample_latency,
)
from .clock import StreamClock, relative_adaptation_speed
from .model import (
    ModelParams,
    blend_parameters,
    params_fingerprint,
    predict,
)
from .protocol import (
    DELAYED,
    IMMEDIATE,
    OFFLINE,
    ONLINE,
    SINGLE_MODEL,
    BusyWindow,
    FixedModulo,
    ProtocolConfig,
    ProtocolError,
    run_segments,
    run_stream,
)
from .report import (
    DomainReport,
    RunReport,
    ScheduleRecord,
)
from .stream import (
    Batch,
    CorruptionSpec,
    ScenarioSpec,
    SourceSpec,
    StreamSegment,
    TrainSpec,
    TrainingError,
    apply_corruption,
    compose_stream,
    default_corruption_suite,
    default_scenario,
    make_source_dataset,
    pretrain_source_model,
)
from .trace import TraceFormatError, TraceRecord, parse_trace, replay_online, write_trace

__version__ = "0.1.0"
