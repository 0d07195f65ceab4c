"""Registry of runnable experiments for the benchmark runner.

Each :class:`ExperimentSpec` binds an experiment id (``e1`` .. ``e10``,
plus named experiments like ``serving``) to its runner in
:mod:`repro.analysis.experiments` (or :mod:`repro.serving.bench`), describes how a
:class:`~repro.bench.config.SweepConfig` maps onto the runner's keyword
arguments (the sweep axis is called ``sizes`` for most experiments but
``cycle_counts`` for E5, and E7/E8/E10 have no size sweep at all), and owns
the table rendering previously duplicated across ``benchmarks/bench_e*.py``
— so the printed EXPERIMENTS tables and the JSON artifacts are produced by
one code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..analysis import experiments as exp
from ..analysis.tables import pivot, render_series, render_table
from .config import SweepConfig

Row = Dict[str, object]
Renderer = Callable[[List[Row], SweepConfig], List[str]]


# ----------------------------------------------------------------------
# per-experiment table renderers
# ----------------------------------------------------------------------
def _render_e1(rows: List[Row], config: SweepConfig) -> List[str]:
    workload = config.workload or "mixed"
    wide = pivot(rows, "n", "algorithm", "charged_work")
    return [
        render_table(rows, columns=[
            "algorithm", "n", "time", "work", "charged_work",
            "work/(n lg lg n)", "work/(n lg n)", "charged/(n lg lg n)"],
            title=f"E1 (Table 1): work comparison, workload={workload}"),
        render_table(wide, title="E1 pivot: charged work by algorithm"),
    ]


def _render_e2(rows: List[Row], config: SweepConfig) -> List[str]:
    ours = [r for r in rows if r["algorithm"] == "jaja-ryu"]
    out = [render_table(rows, title="E2 (Figure 1): parallel rounds")]
    if ours:
        out.append(render_series(
            [r["n"] for r in ours], [r["time/log n"] for r in ours],
            label="E2 series: jaja-ryu rounds / log2(n)"))
    return out


def _render_e3(rows: List[Row], config: SweepConfig) -> List[str]:
    return [render_table(rows, columns=[
        "algorithm", "family", "n", "time", "work", "charged_work",
        "work/(n lg lg n)", "work/(n lg n)"],
        title="E3 (Table 2): minimal starting point")]


def _render_e4(rows: List[Row], config: SweepConfig) -> List[str]:
    return [render_table(rows, columns=[
        "algorithm", "family", "n", "num_strings", "time", "work", "charged_work",
        "work/(n lg lg n)", "work/(n lg n)"],
        title="E4 (Table 3): string sorting")]


def _render_e5(rows: List[Row], config: SweepConfig) -> List[str]:
    return [render_table(rows, columns=[
        "algorithm", "k", "n", "classes", "time", "work", "work/n"],
        title="E5 (Table 4): cycle equivalence classes")]


def _render_e6(rows: List[Row], config: SweepConfig) -> List[str]:
    return [render_table(rows, title="E6 (Figure 2): per-round shrink factor")]


def _render_e7(rows: List[Row], config: SweepConfig) -> List[str]:
    wide = pivot(rows, "processors", "algorithm", "brent_time")
    return [
        render_table(rows, title="E7 (Figure 3): Brent-scheduled time"),
        render_table(wide, title="E7 pivot: scheduled time by processor count"),
    ]


def _render_e8(rows: List[Row], config: SweepConfig) -> List[str]:
    return [render_table(rows, title="E8 (Table 5): agreement fuzzing")]


def _render_e9(rows: List[Row], config: SweepConfig) -> List[str]:
    return [render_table(rows, title="E9 (ablation): integer-sort cost model")]


def _render_e10(rows: List[Row], config: SweepConfig) -> List[str]:
    return [render_table(rows, title="E10 (ablation): CRCW winner policy")]


def _render_scaling(rows: List[Row], config: SweepConfig) -> List[str]:
    workload = config.workload or "mixed"
    wide = pivot(rows, "n", "algorithm", "wall_seconds")
    return [
        render_table(rows, columns=[
            "algorithm", "n", "wall_seconds", "ns_per_node", "time", "work",
            "charged_work", "work/n", "charged/(n lg lg n)"],
            title=f"Scaling: wall-clock vs charged cost, workload={workload}"),
        render_table(wide, title="Scaling pivot: wall seconds by algorithm"),
    ]


def _render_serving(rows: List[Row], config: SweepConfig) -> List[str]:
    return [render_table(rows, columns=[
        "n", "transport", "replica_mode", "chaos_proxy", "workers", "requests",
        "completed", "batches", "multi_batches", "mean_occupancy",
        "throughput_rps", "p50_ms", "p95_ms", "p99_ms", "time", "work",
        "charged_work"],
        title="Serving: micro-batched service throughput/latency "
              "(in-process vs loopback HTTP/framed vs process replicas "
              "vs chaos-proxied framed)")]


def _run_serving(**kwargs) -> List[Row]:
    # Lazy import: the serving stack (asyncio front end, worker pools) is
    # only needed when this experiment actually runs.
    from ..serving.bench import run_serving_benchmark

    return run_serving_benchmark(**kwargs)


# ----------------------------------------------------------------------
# the specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentSpec:
    """Everything the runner needs to execute and present one experiment."""

    id: str
    title: str
    runner: Callable[..., List[Row]]
    render: Renderer
    size_arg: Optional[str] = "sizes"
    default_sizes: Optional[Tuple[int, ...]] = None
    supports_workload: bool = False
    supports_audit: bool = False
    default_params: Tuple[Tuple[str, object], ...] = ()

    def build_kwargs(self, config: SweepConfig) -> Dict[str, object]:
        """Translate a :class:`SweepConfig` into runner keyword arguments."""
        kwargs: Dict[str, object] = dict(self.default_params)
        kwargs.update(config.extra)
        if self.size_arg is not None:
            sizes = config.sizes if config.sizes is not None else self.default_sizes
            if sizes is not None:
                kwargs[self.size_arg] = tuple(sizes)
        if self.supports_workload and config.workload is not None:
            kwargs["workload"] = config.workload
        kwargs["seed"] = config.seed
        if self.supports_audit and config.audit is not None:
            kwargs["audit"] = config.audit
        return kwargs

    def run(self, config: SweepConfig) -> List[Row]:
        """Execute the experiment for one config and return its rows."""
        if config.experiment != self.id:
            raise ValueError(f"config targets {config.experiment!r}, spec is {self.id!r}")
        return self.runner(**self.build_kwargs(config))


REGISTRY: Dict[str, ExperimentSpec] = {
    spec.id: spec
    for spec in (
        ExperimentSpec(
            id="e1",
            title="Table 1: work of every coarsest-partition algorithm",
            runner=exp.run_e1_work_comparison,
            render=_render_e1,
            default_sizes=(256, 1024, 4096, 16384),
            supports_workload=True,
            supports_audit=True,
        ),
        ExperimentSpec(
            id="e2",
            title="Figure 1: parallel time scaling",
            runner=exp.run_e2_time_scaling,
            render=_render_e2,
            default_sizes=(256, 1024, 4096, 16384),
            supports_workload=True,
            supports_audit=True,
        ),
        ExperimentSpec(
            id="e3",
            title="Table 2: minimal starting point algorithms",
            runner=exp.run_e3_msp,
            render=_render_e3,
            default_sizes=(512, 2048, 8192),
        ),
        ExperimentSpec(
            id="e4",
            title="Table 3: string sorting",
            runner=exp.run_e4_string_sorting,
            render=_render_e4,
            default_sizes=(512, 2048, 8192),
        ),
        ExperimentSpec(
            id="e5",
            title="Table 4: cycle equivalence classes",
            runner=exp.run_e5_equivalence,
            render=_render_e5,
            size_arg="cycle_counts",
            default_sizes=(4, 16, 64, 256),
            default_params=(("length", 32),),
        ),
        ExperimentSpec(
            id="e6",
            title="Figure 2: m.s.p. recursion shrink factor",
            runner=exp.run_e6_shrink,
            render=_render_e6,
            default_sizes=(1024, 4096, 16384),
        ),
        ExperimentSpec(
            id="e7",
            title="Figure 3: Brent speedup curves",
            runner=exp.run_e7_speedup,
            render=_render_e7,
            size_arg=None,
            supports_workload=True,
            default_params=(("n", 8192), ("processor_counts", (1, 4, 16, 64, 256, 1024, 4096))),
        ),
        ExperimentSpec(
            id="e8",
            title="Table 5: agreement fuzzing vs the sequential oracle",
            runner=exp.run_e8_agreement,
            render=_render_e8,
            size_arg=None,
            default_params=(("trials", 30), ("max_n", 200)),
        ),
        ExperimentSpec(
            id="e9",
            title="Ablation: charged vs incurred integer-sort cost",
            runner=exp.run_e9_sort_ablation,
            render=_render_e9,
            default_sizes=(1024, 4096, 16384),
            supports_workload=True,
        ),
        ExperimentSpec(
            id="e10",
            title="Ablation: arbitrary-CRCW winner-policy invariance",
            runner=exp.run_e10_model_ablation,
            render=_render_e10,
            size_arg=None,
            default_params=(("k", 256), ("length", 32)),
        ),
        ExperimentSpec(
            id="scaling",
            title="Scaling: end-to-end wall-clock vs charged cost up to n = 2^20",
            runner=exp.run_scaling,
            render=_render_scaling,
            default_sizes=(4096, 16384, 65536),
            supports_workload=True,
            supports_audit=True,
        ),
        ExperimentSpec(
            id="serving",
            title="Serving: micro-batched SFCP service throughput/latency",
            runner=_run_serving,
            render=_render_serving,
            default_sizes=(128, 256),
            default_params=(("workers", 4), ("requests", 64)),
        ),
    )
}


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up an experiment spec by (case-insensitive) id."""
    key = experiment_id.strip().lower()
    if key not in REGISTRY:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; choose from {sorted(REGISTRY)}"
        )
    return REGISTRY[key]


def experiment_ids() -> List[str]:
    """All registered experiment ids: e1..e10 in numeric order, then the
    named experiments (e.g. ``serving``) alphabetically."""

    def order(experiment_id: str):
        if experiment_id[0] == "e" and experiment_id[1:].isdigit():
            return (0, int(experiment_id[1:]), experiment_id)
        return (1, 0, experiment_id)

    return sorted(REGISTRY, key=order)
