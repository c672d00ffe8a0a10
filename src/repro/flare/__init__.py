"""``repro.flare`` — the NVFlare-style federated-learning framework.

Provision → register (token handshake) → ScatterAndGather rounds →
aggregate → persist, all in one process, with a real (if in-memory) signed
message transport.  One round engine runs every job; a ``CommitPolicy``
(``Barrier`` or ``Buffered``) decides when a round commits.  See DESIGN.md
for the mapping to NVFlare concepts.
"""

from .aggregators import (
    Aggregator,
    CoordinateMedianAggregator,
    FedOptAggregator,
    InTimeAccumulateWeightedAggregator,
    MaterializationTracker,
    TreeAggregator,
    TrimmedMeanAggregator,
)
from .client import FederatedClient, session_key_from_token
from .constants import DataKind, EventType, FLRole, ReservedKey, ReturnCode, TaskName
from .controller import (
    Barrier,
    Buffered,
    CommitPolicy,
    ScatterAndGather,
    staleness_discount,
)
from .cross_site_eval import CrossSiteModelEval
from .codec import (
    decode_tensors,
    encode_tensors,
    reset_wire_metrics,
    wire_totals,
)
from .downlink import Downlink
from .dxo import DXO, MetaKey
from .events import FLComponent, LogCapture, get_fl_logger, set_console_level
from .faults import FaultInjector, FaultPlan
from .filters import (
    CompressionConfig,
    DeltaDecode,
    DeltaEncode,
    DXOFilter,
    ExcludeVars,
    FilterChain,
    Float16Dequantize,
    Float16Quantize,
    GaussianPrivacy,
    NormClipPrivacy,
    PercentilePrivacy,
    TopKDensify,
    TopKSparsify,
)
from .fl_context import FLContext
from .job import FLJob
from .learner import Learner
from .persistor import ModelPersistor
from .provision import (
    ParticipantSpec,
    ProjectSpec,
    Provisioner,
    StartupKit,
    default_project,
    make_join_token,
)
from .sampling import UniformSampler
from .security import (
    Certificate,
    CertificateAuthority,
    RSAKeyPair,
    generate_keypair,
    hmac_sign,
    hmac_verify,
    sign,
    verify,
)
from .server import AuthenticationError, FLServer
from .shareable import Shareable, from_dxo, make_reply, to_dxo
from .shareable_generator import FullModelShareableGenerator
from .simulator import SimulationResult, SimulatorRunner
from .shm_transport import ShmMessageBus
from .socket_transport import SocketMessageBus
from .runner import ProcessClientRunner, WorkerRuntime
from .stats import ClientRoundRecord, RoundRecord, RunStats
from .transport import (
    BaseTransport,
    Message,
    MessageBus,
    ReceiveTimeout,
    RetryPolicy,
    SignatureError,
    Transport,
    TransportError,
    send_with_retry,
)

__all__ = [
    "DataKind", "ReturnCode", "EventType", "ReservedKey", "TaskName", "FLRole",
    "FLContext", "FLComponent", "LogCapture", "get_fl_logger", "set_console_level",
    "DXO", "MetaKey", "Shareable", "from_dxo", "to_dxo", "make_reply",
    "encode_tensors", "decode_tensors", "wire_totals", "reset_wire_metrics",
    "RSAKeyPair", "generate_keypair", "sign", "verify",
    "Certificate", "CertificateAuthority", "hmac_sign", "hmac_verify",
    "ParticipantSpec", "ProjectSpec", "StartupKit", "Provisioner",
    "default_project", "make_join_token",
    "Message", "MessageBus", "TransportError", "ReceiveTimeout", "SignatureError",
    "Transport", "BaseTransport", "SocketMessageBus", "ShmMessageBus",
    "ProcessClientRunner", "WorkerRuntime",
    "RetryPolicy", "send_with_retry",
    "FaultPlan", "FaultInjector",
    "Aggregator", "InTimeAccumulateWeightedAggregator", "FedOptAggregator",
    "CoordinateMedianAggregator", "TrimmedMeanAggregator",
    "TreeAggregator", "MaterializationTracker",
    "UniformSampler",
    "FullModelShareableGenerator", "ModelPersistor",
    "DXOFilter", "FilterChain", "ExcludeVars", "GaussianPrivacy",
    "PercentilePrivacy", "NormClipPrivacy",
    "CompressionConfig", "DeltaEncode", "DeltaDecode",
    "Float16Quantize", "Float16Dequantize", "TopKSparsify", "TopKDensify",
    "Learner", "FederatedClient", "session_key_from_token",
    "FLServer", "AuthenticationError",
    "ScatterAndGather", "CommitPolicy", "Barrier", "Buffered",
    "staleness_discount", "Downlink",
    "CrossSiteModelEval",
    "FLJob", "SimulatorRunner", "SimulationResult",
    "ClientRoundRecord", "RoundRecord", "RunStats",
]
