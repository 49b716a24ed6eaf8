"""repro — a reproduction of *Dynamic Data Distributions in Vienna
Fortran* (Chapman, Mehrotra, Moritsch, Zima; Supercomputing '93).

Layers (bottom-up):

- :mod:`repro.machine` — simulated distributed-memory multicomputer
  (processor grids, local memories, alpha+beta*n message cost model);
- :mod:`repro.core` — the distribution model: BLOCK / CYCLIC(k) /
  B_BLOCK / S_BLOCK / ``:`` intrinsics, alignments and CONSTRUCT,
  DYNAMIC arrays with connect classes, RANGE / IDT / DCASE queries;
- :mod:`repro.runtime` — the Vienna Fortran Engine: distributed
  arrays, access functions, translation tables, overlap areas, the
  DISTRIBUTE algorithm, and a PARTI-style inspector/executor;
- :mod:`repro.lang` — Vienna Fortran-flavoured surface syntax
  (distribution-expression parser, declarations, program scopes,
  procedure-boundary redistribution, the ``PLAN`` annotation);
- :mod:`repro.compiler` — reaching-distribution analysis over a mini
  IR, partial evaluation of queries, communication analysis, SPMD
  lowering;
- :mod:`repro.planner` — the automatic distribution planner: phase
  extraction from the IR, candidate-layout enumeration, cost-model
  pricing, and a dynamic program over the phase x layout lattice that
  decides where to insert redistributions (the decision the paper
  leaves to the programmer);
- :mod:`repro.backend` — pluggable SPMD execution backends: the
  serial in-process reference and a multiprocess backend (one worker
  per processor, segments in shared memory, message-passing
  transport), plus transport calibration that fits *measured*
  alpha/beta/flop-rate constants into a ``MeasuredMachine`` the
  planner schedules against;
- :mod:`repro.sim` — the discrete-event execution simulator: the
  engine/backends emit typed events (kernel, send/recv, barrier,
  allgather, redistribute-transfer) through a recording seam, and the
  simulator replays them with blocking semantics (bit-for-bit the
  aggregate accounting) or split-phase nonblocking post/wait —
  per-processor timelines, idle/imbalance metrics, critical-path
  extraction, Gantt/JSON trace export (``python -m repro trace``);
- :mod:`repro.apps` — the paper's §4 workloads: ADI (Figure 1),
  particle-in-cell with B_BLOCK load balancing (Figure 2), the
  grid-smoothing distribution-choice example, and the irregular-mesh
  relaxation;
- :mod:`repro.obs` — cross-layer observability: a process-wide
  metrics registry (Counter/Gauge/Histogram, Prometheus text
  exposition, off by default and near-zero-cost when off), structured
  tracing spans carrying request/trace IDs through every tier, and a
  Chrome-trace exporter that merges runtime spans with simulated
  timelines;
- :mod:`repro.faults` — deterministic, seedable fault injection
  (:class:`~repro.faults.FaultPlan`: worker crashes, transport
  delays/drops, shm allocation failures, request faults) and the
  resilience primitives built against it — fleet supervision with
  restart-and-replay, circuit breakers, graceful degradation to the
  serial backend;
- :mod:`repro.api` — the session facade over all of the above: one
  :func:`session` owns the machine policy, backend, plan cache,
  event recording and RNG seeding, and hands out fluent workload
  handles with typed ``plan`` / ``run`` / ``trace`` / ``bench``
  stages, driven by a decorator-based workload registry.

Quickstart::

    import repro

    with repro.session(nprocs=4, cost_model="Paragon") as sess:
        result = sess.workload("adi", size=64, iterations=4).run()
        print(result.summary())
        plan = sess.workload("adi", size=64, iterations=4).plan()
        print(plan.summary())

or, for the raw Vienna Fortran Engine (declare / DISTRIBUTE / IDT /
DCASE)::

    with repro.session(nprocs=4) as sess:
        vfe = sess.engine(name="R")
        V = vfe.declare("V", (100, 100), dist=repro.dist_type(":", "BLOCK"),
                        dynamic=repro.DynamicAttr())
        # ... x-sweep (columns local) ...
        vfe.distribute("V", repro.dist_type("BLOCK", ":"))
        # ... y-sweep (rows local) ...

The CLI mirrors the facade: ``python -m repro
plan|run|trace|bench|calibrate`` (see ``python -m repro --help``).
"""

# Every name is imported and exported explicitly: the curated __all__
# below IS the public surface, pinned by tests/test_public_api.py so
# changes to it are deliberate.  (The compiler IR's ``Block`` is the
# one name intentionally *not* re-exported at the root — it collides
# with the BLOCK distribution intrinsic; reach it as
# ``repro.compiler.Block``.)

from . import adapt as adapt
from . import api as api
from . import apps as apps
from . import backend as backend
from . import compiler as compiler
from . import faults as faults
from . import lang as lang
from . import obs as obs
from . import perf as perf
from . import planner as planner
from . import serve as serve
from . import sim as sim
from .adapt import (
    AdaptiveController,
    LoadMonitor,
    PolicyLibrary,
    run_adapt_bench,
)
from .api import (
    AdaptResult,
    BenchResult,
    PlanResult,
    RunResult,
    Session,
    SessionClosedError,
    SessionConfig,
    SessionResult,
    TraceResult,
    WorkloadHandle,
    WorkloadRegistry,
    WorkloadSpec,
    available_workloads,
    config_fingerprint,
    register_workload,
    session,
)
from .backend import (
    Backend,
    BackendError,
    BlockMeta,
    FleetSupervisor,
    MultiprocessBackend,
    SerialBackend,
    SharedSegmentAllocator,
    Transport,
    TransportBroken,
    TransportTimeout,
    attached_backend,
    calibrate,
    fit_alpha_beta,
    measured_machine,
    resolve_backend,
    segment_moves,
    shift_plan,
    transfer_plan,
)
from .compiler import (
    ALWAYS,
    MAYBE,
    NEVER,
    TOP,
    AccessKind,
    AnalysisResult,
    ArrayRef,
    Assign,
    Call,
    CFG,
    CFGEdge,
    CFGNode,
    CommEstimate,
    DCaseStmt,
    DistributeStmt,
    If,
    IRProgram,
    LineSweepKernel,
    Loop,
    MemoryEstimate,
    OptimizeStats,
    PlausibleSet,
    ProcDef,
    ReachingDistributions,
    StencilKernel,
    Stmt,
    analyze,
    build_cfg,
    decide_pattern,
    decide_querylist,
    dim_implies,
    dim_overlaps,
    estimate_memory,
    estimate_ref,
    infer_overlap,
    lower_line_sweep,
    lower_stencil,
    optimize,
    pattern_implies,
    pattern_overlaps,
    refine_pattern,
)
from .core import (
    ANY,
    DEFAULT,
    Aligned,
    Alignment,
    ArrayDescriptor,
    AxisMap,
    Block,
    ConnectClass,
    Connection,
    Cyclic,
    DCase,
    DimDist,
    Distribution,
    DistributionGenerator,
    DistributionType,
    DistributionUndefinedError,
    DynamicAttr,
    Extraction,
    GenBlock,
    IndexDomain,
    Indirect,
    NoDist,
    QueryList,
    Range,
    Replicated,
    SBlock,
    TypePattern,
    Wild,
    clear_interning_caches,
    construct,
    dist_type,
    get_generator,
    idt,
    intern_dimdist,
    intern_distribution,
    owners_cache_stats,
    register_generator,
)
from .defaults import DEFAULT_SEED
from .lang import (
    Declaration,
    FormalArg,
    Procedure,
    Scope,
    VFProgram,
    VFSyntaxError,
    parse_alignment,
    parse_declaration,
    parse_dist_expr,
    parse_pattern,
    parse_processors,
    parse_program,
    parse_section,
)
from .machine import (
    AllocationRecord,
    Calibration,
    CostModel,
    IPSC860,
    LocalMemory,
    Machine,
    MeasuredMachine,
    MemoryError_,
    MessageRecord,
    MODERN_CLUSTER,
    Network,
    NetworkStats,
    PARAGON,
    PRESETS,
    ProcessorArray,
    ProcessorSection,
    ZERO_COST,
    grid_shapes,
    link_matrix,
    per_processor_table,
    summary,
    timeline_summary,
    timeline_table,
)
from .planner import (
    ArrayLoad,
    CostEngine,
    HandDistribute,
    Phase,
    PhaseSequence,
    Plan,
    PlanExecutor,
    ScheduleStep,
    SimulatedCostEngine,
    Workload,
    WORKLOADS,
    adi_workload,
    bind_pattern,
    dim_menu,
    dp_schedule,
    enumerate_layouts,
    extract_phases,
    get_workload,
    greedy_schedule,
    hand_schedule_cost,
    pic_workload,
    plan_array,
    plan_program,
    plan_workload,
    smoothing_workload,
)
from .runtime import (
    BatchedReadAccessor,
    CommSchedule,
    DimTranslationTable,
    DistributedArray,
    Engine,
    Inspector,
    OverlapManager,
    PlanCache,
    ReadAccessor,
    RedistributionReport,
    TranslationTable,
    broadcast_from,
    communicate,
    default_plan_cache,
    forall,
    forall_batched,
    forall_gathered,
    gather_to,
    reduce_scalar,
    shift_exchange,
    transfer_matrix,
    transfer_matrix_bruteforce,
    transfer_matrix_naive,
)
from .sim import (
    BlockingReplay,
    BUSY_KINDS,
    CriticalPath,
    Event,
    EventArrays,
    EventKind,
    EventLog,
    Interval,
    ProcClock,
    Timeline,
    classify_tag,
    critical_path,
    dump_json,
    gantt,
    overlappable_phases,
    record,
    relaxed_barriers,
    replay_blocking,
    replay_split_exchange,
    simulate,
    to_chrome_trace,
    to_json,
)

from .obs import (
    Attribution,
    MetricsRegistry,
    TrajectoryStore,
    attribution,
    compare_reports,
    flight_recorder,
    get_request_id,
    get_trace_id,
    registry as metrics_registry,
    span,
)
from .faults import CircuitBreaker, FaultPlan
from .serve import PlanningService, run_loadtest

__version__ = "1.10.0"

__all__ = [
    "__version__",
    # subpackages
    "adapt",
    "api",
    "apps",
    "backend",
    "compiler",
    "faults",
    "lang",
    "obs",
    "perf",
    "planner",
    "serve",
    "sim",
    # the session facade (repro.api)
    "DEFAULT_SEED",
    "SessionConfig",
    "Session",
    "SessionClosedError",
    "session",
    "config_fingerprint",
    # the serving tier (repro.serve)
    "PlanningService",
    "run_loadtest",
    # fault injection + resilience (repro.faults)
    "FaultPlan",
    "CircuitBreaker",
    # observability (repro.obs)
    "MetricsRegistry",
    "metrics_registry",
    "span",
    "get_request_id",
    "get_trace_id",
    "Attribution",
    "TrajectoryStore",
    "attribution",
    "compare_reports",
    "flight_recorder",
    # adaptive redistribution (repro.adapt)
    "AdaptiveController",
    "LoadMonitor",
    "PolicyLibrary",
    "run_adapt_bench",
    "SessionResult",
    "PlanResult",
    "RunResult",
    "TraceResult",
    "BenchResult",
    "AdaptResult",
    "WorkloadHandle",
    "WorkloadRegistry",
    "WorkloadSpec",
    "register_workload",
    "available_workloads",
    # distribution model (repro.core)
    "IndexDomain",
    "DimDist",
    "Block",
    "Cyclic",
    "GenBlock",
    "SBlock",
    "NoDist",
    "Replicated",
    "Indirect",
    "DistributionType",
    "Distribution",
    "dist_type",
    "Alignment",
    "AxisMap",
    "construct",
    "DynamicAttr",
    "ConnectClass",
    "Connection",
    "Extraction",
    "Aligned",
    "ArrayDescriptor",
    "DistributionUndefinedError",
    "DistributionGenerator",
    "register_generator",
    "get_generator",
    "ANY",
    "DEFAULT",
    "Wild",
    "TypePattern",
    "Range",
    "idt",
    "DCase",
    "QueryList",
    "intern_dimdist",
    "intern_distribution",
    "owners_cache_stats",
    "clear_interning_caches",
    # machine substrate (repro.machine)
    "CostModel",
    "IPSC860",
    "PARAGON",
    "MODERN_CLUSTER",
    "ZERO_COST",
    "PRESETS",
    "Machine",
    "MeasuredMachine",
    "Calibration",
    "LocalMemory",
    "MemoryError_",
    "AllocationRecord",
    "Network",
    "NetworkStats",
    "MessageRecord",
    "ProcessorArray",
    "ProcessorSection",
    "grid_shapes",
    "per_processor_table",
    "link_matrix",
    "summary",
    "timeline_table",
    "timeline_summary",
    # run time (repro.runtime)
    "DistributedArray",
    "Engine",
    "forall",
    "forall_gathered",
    "forall_batched",
    "ReadAccessor",
    "BatchedReadAccessor",
    "Inspector",
    "CommSchedule",
    "OverlapManager",
    "RedistributionReport",
    "PlanCache",
    "communicate",
    "default_plan_cache",
    "transfer_matrix",
    "transfer_matrix_naive",
    "transfer_matrix_bruteforce",
    "TranslationTable",
    "DimTranslationTable",
    "shift_exchange",
    "gather_to",
    "broadcast_from",
    "reduce_scalar",
    # surface syntax (repro.lang)
    "VFSyntaxError",
    "parse_dist_expr",
    "parse_pattern",
    "parse_alignment",
    "parse_processors",
    "parse_section",
    "parse_program",
    "Declaration",
    "parse_declaration",
    "VFProgram",
    "Scope",
    "Procedure",
    "FormalArg",
    # compiler (repro.compiler; IR `Block` deliberately omitted)
    "AccessKind",
    "ArrayRef",
    "Assign",
    "Call",
    "DCaseStmt",
    "DistributeStmt",
    "If",
    "IRProgram",
    "Loop",
    "ProcDef",
    "Stmt",
    "CFG",
    "CFGEdge",
    "CFGNode",
    "build_cfg",
    "ALWAYS",
    "MAYBE",
    "NEVER",
    "TOP",
    "PlausibleSet",
    "decide_pattern",
    "decide_querylist",
    "dim_implies",
    "dim_overlaps",
    "pattern_implies",
    "pattern_overlaps",
    "refine_pattern",
    "AnalysisResult",
    "ReachingDistributions",
    "analyze",
    "CommEstimate",
    "MemoryEstimate",
    "estimate_ref",
    "estimate_memory",
    "infer_overlap",
    "OptimizeStats",
    "optimize",
    "StencilKernel",
    "LineSweepKernel",
    "lower_stencil",
    "lower_line_sweep",
    # planner (repro.planner)
    "ArrayLoad",
    "Phase",
    "PhaseSequence",
    "HandDistribute",
    "extract_phases",
    "dim_menu",
    "enumerate_layouts",
    "CostEngine",
    "SimulatedCostEngine",
    "ScheduleStep",
    "Plan",
    "plan_array",
    "dp_schedule",
    "greedy_schedule",
    "PlanExecutor",
    "bind_pattern",
    "plan_program",
    "Workload",
    "adi_workload",
    "pic_workload",
    "smoothing_workload",
    "get_workload",
    "plan_workload",
    "hand_schedule_cost",
    "WORKLOADS",
    # execution backends (repro.backend)
    "Backend",
    "SerialBackend",
    "MultiprocessBackend",
    "BackendError",
    "FleetSupervisor",
    "resolve_backend",
    "attached_backend",
    "calibrate",
    "fit_alpha_beta",
    "measured_machine",
    "transfer_plan",
    "segment_moves",
    "shift_plan",
    "Transport",
    "TransportTimeout",
    "TransportBroken",
    "BlockMeta",
    "SharedSegmentAllocator",
    # discrete-event simulator (repro.sim)
    "Event",
    "EventArrays",
    "EventKind",
    "EventLog",
    "BlockingReplay",
    "replay_blocking",
    "replay_split_exchange",
    "classify_tag",
    "record",
    "Interval",
    "ProcClock",
    "Timeline",
    "BUSY_KINDS",
    "simulate",
    "relaxed_barriers",
    "overlappable_phases",
    "CriticalPath",
    "critical_path",
    "gantt",
    "to_json",
    "dump_json",
    "to_chrome_trace",
]
