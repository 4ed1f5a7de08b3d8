"""The ScaleDeep compiler: workload mapping, cost model, code generation."""

from repro.compiler.cost import (
    INSTRUCTION_OVERHEAD_FACTOR,
    StepCost,
    TrafficSummary,
    UtilizationCascade,
    layer_stage_cycles,
    step_cost,
)
from repro.compiler.mapping import (
    MappingUnit,
    UnitAllocation,
    WorkloadMapping,
    default_group_key,
    map_network,
)
from repro.compiler.partition import (
    FeatureHome,
    StatePartition,
    TileAllocator,
    partition_graph,
)
from repro.compiler.codegen import CompiledForward, ForwardCompiler
from repro.compiler.codegen_training import (
    CompiledTraining,
    TrainingCompiler,
    compile_training,
)
from repro.compiler.codegen_dag import compile_dag_forward
from repro.compiler.templates import (
    CONV_BATCH_FP,
    DMA_GATHER,
    MATMUL_BLOCKED_FP,
    RoutineTemplate,
    TEMPLATE_LIBRARY,
    WUPDATE_SWEEP,
)
from repro.compiler.trackers import (
    audit_trackers,
    calibrate_trackers,
    instruction_accesses,
)
from repro.compiler.verifier import (
    MachineShape,
    assert_verified,
    verify_programs,
)
from repro.compiler.ir import (
    IR_SCHEMA_VERSION,
    IREdge,
    IROp,
    MappingIR,
    Phase,
    UnitPlan,
    build_mapping_ir,
    build_tile_ir,
)
from repro.compiler.pipeline import CompiledNetwork, compile_network

__all__ = [
    "CompiledNetwork",
    "IR_SCHEMA_VERSION",
    "IREdge",
    "IROp",
    "MappingIR",
    "Phase",
    "UnitPlan",
    "build_mapping_ir",
    "build_tile_ir",
    "compile_network",
    "CompiledForward",
    "CONV_BATCH_FP",
    "CompiledTraining",
    "DMA_GATHER",
    "MATMUL_BLOCKED_FP",
    "MachineShape",
    "RoutineTemplate",
    "TEMPLATE_LIBRARY",
    "WUPDATE_SWEEP",
    "TrainingCompiler",
    "assert_verified",
    "audit_trackers",
    "calibrate_trackers",
    "compile_dag_forward",
    "compile_training",
    "instruction_accesses",
    "FeatureHome",
    "ForwardCompiler",
    "INSTRUCTION_OVERHEAD_FACTOR",
    "MappingUnit",
    "StatePartition",
    "StepCost",
    "TileAllocator",
    "TrafficSummary",
    "UnitAllocation",
    "UtilizationCascade",
    "WorkloadMapping",
    "default_group_key",
    "layer_stage_cycles",
    "map_network",
    "partition_graph",
    "step_cost",
    "verify_programs",
]
