"""PRAM simulation substrate.

This subpackage implements the machine model the paper's algorithms are
stated for: a step-synchronous PRAM with selectable memory-access rules
(EREW, CREW, common CRCW, arbitrary CRCW), exact accounting of parallel
time (rounds) and work (operations), phase attribution, and Brent
scheduling onto a finite number of processors.

Quick tour
----------

>>> from repro.pram import Machine, arbitrary_crcw
>>> m = Machine(arbitrary_crcw())
>>> a = m.alloc(8, fill=1)
>>> _ = m.map(lambda x: x + 1, a.data)
>>> m.time, m.work
(2, 16)
"""

from .kernels import PAIR_PACK_MAX_RANGE, cycle_min_labels, sort_indices
from .machine import Machine, resolve_machine
from .memory import SharedArray, SparseTable
from .metrics import (
    CostCounter,
    SpanWallProfile,
    kernel_timing,
    log_time_bound,
    log_work_bound,
    loglog_work_bound,
    sort_time_bound_bhatt,
    wall_profiling,
)
from .models import (
    MODELS,
    ArbitraryWinner,
    PramModel,
    ReadPolicy,
    WritePolicy,
    arbitrary_crcw,
    common_crcw,
    crew,
    erew,
    get_model,
)
from .scheduler import SpeedupPoint, StepProfile, processors_for_time, speedup_table
from .instrumentation import bound_ratios, compare_report, cost_report, phase_report

__all__ = [
    "Machine",
    "resolve_machine",
    "SharedArray",
    "SparseTable",
    "CostCounter",
    "PramModel",
    "ReadPolicy",
    "WritePolicy",
    "ArbitraryWinner",
    "MODELS",
    "erew",
    "crew",
    "common_crcw",
    "arbitrary_crcw",
    "get_model",
    "StepProfile",
    "SpeedupPoint",
    "processors_for_time",
    "speedup_table",
    "bound_ratios",
    "cost_report",
    "phase_report",
    "compare_report",
    "log_work_bound",
    "loglog_work_bound",
    "log_time_bound",
    "sort_time_bound_bhatt",
    "SpanWallProfile",
    "wall_profiling",
    "kernel_timing",
    "PAIR_PACK_MAX_RANGE",
    "cycle_min_labels",
    "sort_indices",
]
