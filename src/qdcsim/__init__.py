"""Deterministic density-matrix simulation of a two-QPU quantum data centre.

The package compiles monolithic circuits into remote-gate protocols
(cat-comm and three teleportation variants), runs them through an
event-timed noisy simulator, and checks the results against closed-form
fidelity analytics.
"""

from .analysis import (
    ApproxKind,
    InputStateParams,
    NoErrorBaselineError,
    build_input_state,
    delta_oe,
    first_order,
    oracle_1tp,
    oracle_cat,
    oracle_cat_cnot,
)
from .channels import (
    GateErrorParam,
    MemoryParam,
    WernerParam,
    werner_state,
)
from .compiler import (
    CompileError,
    DistributedCircuit,
    Partition,
    ResourceCount,
    Scheme,
    SchemeInapplicableError,
    compile_circuit,
    compile_report,
    count_resources,
    detect_remote,
    partition_qubits,
)
from .engine import (
    DurationTable,
    EngineError,
    SimConfig,
    SimResult,
    TelemetryRow,
    elapsed_time,
    ideal_output,
    simulate,
    telemetry_csv,
)
from .experiments import (
    PROFILES,
    ExperimentError,
    ExperimentSpec,
    Profile,
    SweepRow,
    compare_csv,
    load_spec,
    run_compare,
    run_sweep,
    sweep_csv,
    template_circuit,
)
from .gates import Gate, gate_unitary
from .qasm import Circuit, QasmError, lower_to_basis, parse_qasm
from .states import (
    DensityMatrix,
    PureState,
    QubitRef,
    Role,
    Site,
    bell_state,
    fidelity_general,
    fidelity_pure,
    maximally_mixed,
)

__version__ = "0.2.0"

__all__ = [
    "ApproxKind",
    "Circuit",
    "CompileError",
    "DensityMatrix",
    "DistributedCircuit",
    "DurationTable",
    "EngineError",
    "ExperimentError",
    "ExperimentSpec",
    "Gate",
    "GateErrorParam",
    "InputStateParams",
    "MemoryParam",
    "NoErrorBaselineError",
    "PROFILES",
    "Partition",
    "Profile",
    "PureState",
    "QasmError",
    "QubitRef",
    "ResourceCount",
    "Role",
    "Scheme",
    "SchemeInapplicableError",
    "SimConfig",
    "SimResult",
    "Site",
    "SweepRow",
    "TelemetryRow",
    "WernerParam",
    "bell_state",
    "build_input_state",
    "compare_csv",
    "compile_circuit",
    "compile_report",
    "count_resources",
    "delta_oe",
    "detect_remote",
    "elapsed_time",
    "fidelity_general",
    "fidelity_pure",
    "first_order",
    "gate_unitary",
    "ideal_output",
    "load_spec",
    "lower_to_basis",
    "maximally_mixed",
    "oracle_1tp",
    "oracle_cat",
    "oracle_cat_cnot",
    "parse_qasm",
    "partition_qubits",
    "run_compare",
    "run_sweep",
    "simulate",
    "sweep_csv",
    "telemetry_csv",
    "template_circuit",
    "__version__",
]
