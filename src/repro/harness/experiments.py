"""Experiment definitions: one function per table/figure of the paper.

Each experiment returns structured data (plus a ``render`` helper) so the
benchmarks can print the same rows the paper reports and EXPERIMENTS.md can
record paper-vs-measured values. Scales:

* ``QUICK`` — small thread counts / unit counts for CI and tests;
* ``FULL`` — the 32-thread machine of Table 1 with enough units of work for
  stable shapes (used by the benchmark harness).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.config import (CoherenceStyle, SignatureKind, SyncMode,
                                 SystemConfig, figure4_variants)
from repro.common.rng import DEFAULT_SEED, make_rng, perturbed_seeds
from repro.common.stats import ConfidenceInterval
from repro.harness.report import render_series, render_table
from repro.harness.runner import run_workload
from repro.harness.sweep import RunTask, execute_tasks, run_sweep
from repro.signatures.factory import make_signature
from repro.common.config import SignatureConfig
from repro.workloads import (BerkeleyDB, BigFootprint, Cholesky, Mp3d,
                             Radiosity, Raytrace, Workload)


@dataclass(frozen=True)
class ExperimentScale:
    """How big to run the workloads."""

    threads: int = 32
    units: Dict[str, int] = field(default_factory=dict)
    runs: int = 1
    default_units: int = 4
    #: Whether runs at this scale produce statistically meaningful shapes
    #: (quick/CI scales run the code paths but skip shape assertions).
    asserts_shapes: bool = True

    def units_for(self, name: str) -> int:
        return self.units.get(name, self.default_units)


QUICK = ExperimentScale(threads=8, default_units=2, runs=1,
                        asserts_shapes=False)
FULL = ExperimentScale(
    threads=32,
    units={"BerkeleyDB": 4, "Cholesky": 6, "Radiosity": 10,
           "Raytrace": 24, "Mp3d": 10},
    runs=3,
    default_units=6,
)

#: Paper reference values used by EXPERIMENTS.md (Table 2 columns).
PAPER_TABLE2 = {
    "BerkeleyDB": dict(read_avg=8.1, read_max=30, write_avg=6.8, write_max=28),
    "Cholesky": dict(read_avg=4.0, read_max=4, write_avg=2.0, write_max=2),
    "Radiosity": dict(read_avg=2.0, read_max=25, write_avg=1.5, write_max=45),
    "Raytrace": dict(read_avg=5.8, read_max=550, write_avg=2.0, write_max=3),
    "Mp3d": dict(read_avg=2.2, read_max=18, write_avg=1.7, write_max=10),
}

WORKLOAD_CLASSES: Dict[str, type] = {
    "BerkeleyDB": BerkeleyDB,
    "Cholesky": Cholesky,
    "Radiosity": Radiosity,
    "Raytrace": Raytrace,
    "Mp3d": Mp3d,
}


def make_workload(name: str, scale: ExperimentScale,
                  seed: int = DEFAULT_SEED) -> Workload:
    cls = WORKLOAD_CLASSES[name]
    return cls(num_threads=scale.threads,
               units_per_thread=scale.units_for(name), seed=seed)


# ---------------------------------------------------------------------------
# Table 1 — system model parameters
# ---------------------------------------------------------------------------

def table1_rows(cfg: Optional[SystemConfig] = None) -> List[Tuple[str, str]]:
    cfg = cfg or SystemConfig.default()
    return [
        ("Processor Cores",
         f"{cfg.num_cores} cores, {cfg.threads_per_core}-way SMT "
         f"({cfg.total_threads} thread contexts)"),
        ("L1 Cache",
         f"{cfg.l1.size_bytes // 1024} KB {cfg.l1.associativity}-way, "
         f"{cfg.l1.block_bytes}-byte blocks, "
         f"{cfg.l1.latency} cycle uncontended latency"),
        ("L2 Cache",
         f"{cfg.l2.size_bytes // (1024 * 1024)} MB "
         f"{cfg.l2.associativity}-way, {cfg.l2_banks} banks, "
         f"{cfg.l2.latency}-cycle uncontended latency"),
        ("Memory",
         f"{cfg.memory_bytes // (1024 ** 3)} GB, "
         f"{cfg.memory_latency}-cycle latency"),
        ("L2-Directory",
         f"Full sharer bit-vector; {cfg.directory_latency}-cycle latency"),
        ("Interconnection Network",
         f"{cfg.mesh_dims[0]}x{cfg.mesh_dims[1]} grid, "
         f"{cfg.link_latency}-cycle link latency"),
    ]


def render_table1(cfg: Optional[SystemConfig] = None) -> str:
    return render_table(["Parameter", "Setting"], table1_rows(cfg),
                        title="Table 1: System Model Parameters")


# ---------------------------------------------------------------------------
# Table 2 — benchmark characteristics
# ---------------------------------------------------------------------------

@dataclass
class Table2Row:
    name: str
    input_desc: str
    unit_name: str
    units: int
    transactions: int
    read_avg: float
    read_max: int
    write_avg: float
    write_max: int


def table2(scale: ExperimentScale = QUICK, seed: int = DEFAULT_SEED,
           cfg: Optional[SystemConfig] = None) -> List[Table2Row]:
    """Run every workload with perfect signatures; measure footprints."""
    cfg = cfg or SystemConfig.default()
    cfg = cfg.with_signature(SignatureKind.PERFECT)
    rows = []
    for name in WORKLOAD_CLASSES:
        workload = make_workload(name, scale, seed)
        result = run_workload(cfg, workload, seed=seed)
        reads = result.histograms.get("tm.read_set_blocks")
        writes = result.histograms.get("tm.write_set_blocks")
        rows.append(Table2Row(
            name=name,
            input_desc=workload.input_desc,
            unit_name=workload.unit_name,
            units=result.units,
            transactions=result.commits,
            read_avg=reads.mean if reads else 0.0,
            read_max=reads.maximum if reads else 0,
            write_avg=writes.mean if writes else 0.0,
            write_max=writes.maximum if writes else 0,
        ))
    return rows


def render_table2(rows: Sequence[Table2Row]) -> str:
    return render_table(
        ["Benchmark", "Input", "Unit of Work", "Units",
         "Transactions", "Read Avg", "Read Max", "Write Avg", "Write Max"],
        [(r.name, r.input_desc, r.unit_name, r.units, r.transactions,
          r.read_avg, r.read_max, r.write_avg, r.write_max) for r in rows],
        title="Table 2: Benchmarks and Inputs (measured)")


# ---------------------------------------------------------------------------
# Figure 3 — signature implementations (false-positive behaviour)
# ---------------------------------------------------------------------------

@dataclass
class Figure3Point:
    kind: str
    bits: int
    inserted: int
    false_positive_rate: float


def figure3(set_sizes: Sequence[int] = (2, 8, 32, 128, 512),
            bit_sizes: Sequence[int] = (64, 256, 1024, 2048),
            probes: int = 2000, seed: int = DEFAULT_SEED
            ) -> List[Figure3Point]:
    """Measure each Figure 3 design's false-positive rate directly.

    Inserts ``n`` random block addresses and probes addresses *not*
    inserted; the hit rate on those is the pure aliasing rate of the design
    at that occupancy — the property that drives Results 2 and 3.
    """
    rng = make_rng(seed, "figure3")
    points: List[Figure3Point] = []
    kinds = [(SignatureKind.BIT_SELECT, "BS", 64),
             (SignatureKind.DOUBLE_BIT_SELECT, "DBS", 64),
             (SignatureKind.COARSE_BIT_SELECT, "CBS", 1024)]
    for kind, label, granularity in kinds:
        for bits in bit_sizes:
            for n in set_sizes:
                sig = make_signature(
                    SignatureConfig(kind=kind, bits=bits,
                                    granularity=granularity))
                inserted = set()
                while len(inserted) < n:
                    inserted.add(rng.randrange(1 << 26) * 64)
                for addr in inserted:
                    sig.insert(addr)
                false_hits = 0
                tested = 0
                while tested < probes:
                    addr = rng.randrange(1 << 26) * 64
                    if addr in inserted:
                        continue
                    tested += 1
                    if sig.contains(addr):
                        false_hits += 1
                points.append(Figure3Point(
                    kind=label, bits=bits, inserted=n,
                    false_positive_rate=false_hits / tested))
    return points


def render_figure3(points: Sequence[Figure3Point]) -> str:
    return render_table(
        ["Design", "Bits", "Inserted blocks", "False-positive rate"],
        [(p.kind, p.bits, p.inserted, p.false_positive_rate)
         for p in points],
        title="Figure 3: signature designs, measured aliasing")


@dataclass
class Figure3AttributionRow:
    """Abort attribution of one signature variant on the stress microbench."""

    signature: str
    commits: int
    aborts: int
    aborts_true_conflict: int
    aborts_false_positive: int
    aborts_other: int


def figure3_attribution(seed: int = DEFAULT_SEED,
                        base_cfg: Optional[SystemConfig] = None,
                        num_threads: int = 4, units: int = 2,
                        blocks_per_sweep: int = 96,
                        bit_sizes: Sequence[int] = (64, 2048)
                        ) -> List[Figure3AttributionRow]:
    """In-simulation companion to :func:`figure3`: *where aborts come from*.

    Runs the large-footprint microbench (write sets that fill small
    signatures) under a perfect signature and bit-select signatures of the
    Figure 3 sizes, then splits each variant's aborts with the
    :mod:`repro.obs.analysis` attribution counters. The snooping substrate
    is used so every request probes every remote signature — with disjoint
    per-thread write sets a perfect signature therefore cannot abort at
    all, and every abort that appears under BS is aliasing: the cost
    Figure 3's false-positive rates predict.
    """
    base = base_cfg or dataclasses.replace(
        SystemConfig.small(), coherence=CoherenceStyle.SNOOPING)
    variants = [("Perfect", base.with_signature(SignatureKind.PERFECT))]
    for bits in bit_sizes:
        variants.append((f"BS_{bits}",
                         base.with_signature(SignatureKind.BIT_SELECT,
                                             bits=bits)))
    rows: List[Figure3AttributionRow] = []
    for label, cfg in variants:
        workload = BigFootprint(num_threads=num_threads,
                                units_per_thread=units,
                                blocks_per_sweep=blocks_per_sweep,
                                seed=seed)
        result = run_workload(cfg, workload, seed=seed, config_label=label)
        rows.append(Figure3AttributionRow(
            signature=label,
            commits=result.commits,
            aborts=result.aborts,
            aborts_true_conflict=result.aborts_true_conflict,
            aborts_false_positive=result.aborts_false_positive,
            aborts_other=(result.aborts - result.aborts_true_conflict
                          - result.aborts_false_positive)))
    return rows


def render_figure3_attribution(rows: Sequence[Figure3AttributionRow]) -> str:
    return render_table(
        ["Signature", "Commits", "Aborts", "True conflict",
         "False positive", "Other"],
        [(r.signature, r.commits, r.aborts, r.aborts_true_conflict,
          r.aborts_false_positive, r.aborts_other) for r in rows],
        title="Figure 3 companion: abort attribution (BigFootprint)")


# ---------------------------------------------------------------------------
# Figure 4 — speedup over locks
# ---------------------------------------------------------------------------

@dataclass
class Figure4Cell:
    workload: str
    variant: str
    speedup: float
    ci_half_width: float
    cycles: float


def figure4(scale: ExperimentScale = QUICK, seed: int = DEFAULT_SEED,
            base_cfg: Optional[SystemConfig] = None,
            workloads: Optional[Sequence[str]] = None,
            jobs: Optional[int] = 1, cache=None) -> List[Figure4Cell]:
    """Run every (workload x variant) pair; speedup is vs. the Lock bars.

    Each bar is the mean of ``scale.runs`` runs at perturbed seeds, with
    the paper's 95% confidence interval. Every (workload, variant,
    perturbed run) is one cell of a single :func:`execute_tasks` batch,
    so ``jobs``/``cache`` fan the cells out and store them without
    changing the result.
    """
    base = base_cfg or SystemConfig.default()
    names = list(workloads or WORKLOAD_CLASSES)
    variant_list = list(figure4_variants(base))
    run_seeds = perturbed_seeds(seed, scale.runs)
    tasks = [RunTask(key=f"{name}/{label}#{i}", label=label, cfg=cfg,
                     make_workload=(
                         lambda name=name: make_workload(name, scale, seed)),
                     seed=run_seed)
             for name in names
             for label, cfg in variant_list
             for i, run_seed in enumerate(run_seeds)]
    outcomes = execute_tasks(tasks, jobs=jobs, cache=cache)
    cells: List[Figure4Cell] = []
    for name in names:
        lock_cycles: Optional[float] = None
        for label, _ in variant_list:
            samples = [float(outcomes[f"{name}/{label}#{i}"].result.cycles)
                       for i in range(len(run_seeds))]
            ci = ConfidenceInterval.from_samples(samples)
            if label == "Lock":
                lock_cycles = ci.mean
            speedup = (lock_cycles / ci.mean) if lock_cycles else 0.0
            rel_hw = (ci.half_width / ci.mean) * speedup if ci.mean else 0.0
            cells.append(Figure4Cell(workload=name, variant=label,
                                     speedup=speedup, ci_half_width=rel_hw,
                                     cycles=ci.mean))
    return cells


def render_figure4(cells: Sequence[Figure4Cell]) -> str:
    return render_table(
        ["Benchmark", "Variant", "Speedup vs locks", "±95% CI", "Cycles"],
        [(c.workload, c.variant, c.speedup, c.ci_half_width, c.cycles)
         for c in cells],
        title="Figure 4: speedup normalized to locks")


# ---------------------------------------------------------------------------
# Table 3 — impact of signature size on conflict detection
# ---------------------------------------------------------------------------

@dataclass
class Table3Row:
    workload: str
    signature: str
    transactions: int
    aborts: int
    stalls: int
    false_positive_pct: float


TABLE3_SIGNATURES: List[Tuple[str, SignatureKind, int, int]] = [
    ("Perfect", SignatureKind.PERFECT, 0, 64),
    ("BS_2Kb", SignatureKind.BIT_SELECT, 2048, 64),
    ("CBS_2Kb", SignatureKind.COARSE_BIT_SELECT, 2048, 1024),
    ("DBS_2Kb", SignatureKind.DOUBLE_BIT_SELECT, 2048, 64),
    ("BS_64", SignatureKind.BIT_SELECT, 64, 64),
    ("CBS_64", SignatureKind.COARSE_BIT_SELECT, 64, 1024),
    ("DBS_64", SignatureKind.DOUBLE_BIT_SELECT, 64, 64),
]


def table3(scale: ExperimentScale = QUICK, seed: int = DEFAULT_SEED,
           workloads: Sequence[str] = ("BerkeleyDB", "Raytrace"),
           base_cfg: Optional[SystemConfig] = None,
           jobs: Optional[int] = 1, cache=None) -> List[Table3Row]:
    """One sweep per workload over the Table 3 signature family.

    ``jobs``/``cache`` are forwarded to :func:`repro.harness.run_sweep`.
    """
    base = base_cfg or SystemConfig.default()
    rows: List[Table3Row] = []
    for name in workloads:
        variants = []
        for label, kind, bits, granularity in TABLE3_SIGNATURES:
            if kind is SignatureKind.PERFECT:
                cfg = base.with_signature(kind)
            else:
                cfg = base.with_signature(kind, bits=bits,
                                          granularity=granularity)
            variants.append((label, cfg))
        sweep = run_sweep(variants,
                          lambda name=name: make_workload(name, scale, seed),
                          seed=seed, jobs=jobs, cache=cache)
        for label, _ in variants:
            result = sweep.results[label]
            rows.append(Table3Row(
                workload=name, signature=label,
                transactions=result.commits, aborts=result.aborts,
                stalls=result.stalls,
                false_positive_pct=result.false_positive_pct))
    return rows


def render_table3(rows: Sequence[Table3Row]) -> str:
    return render_table(
        ["Benchmark", "Signature", "Transactions", "Aborts", "Stalls",
         "False Positive %"],
        [(r.workload, r.signature, r.transactions, r.aborts, r.stalls,
          r.false_positive_pct) for r in rows],
        title="Table 3: Impact of Signature Size on Conflict Detection")


# ---------------------------------------------------------------------------
# Result 4 — victimization of transactional data
# ---------------------------------------------------------------------------

@dataclass
class VictimizationRow:
    workload: str
    transactions: int
    l1_victimizations: int
    l2_victimizations: int
    sticky_created: int


def victimization(scale: ExperimentScale = QUICK, seed: int = DEFAULT_SEED,
                  base_cfg: Optional[SystemConfig] = None
                  ) -> List[VictimizationRow]:
    cfg = (base_cfg or SystemConfig.default()).with_signature(
        SignatureKind.PERFECT)
    # Victimization is a tail event (the paper observed 481 in 48K
    # Raytrace transactions): Raytrace needs a larger transaction sample
    # for its over-L1-capacity traversals to show up.
    units = dict(scale.units)
    units["Raytrace"] = max(units.get("Raytrace", scale.default_units) * 5,
                            scale.default_units * 5)
    boosted = ExperimentScale(threads=scale.threads, units=units,
                              runs=scale.runs,
                              default_units=scale.default_units,
                              asserts_shapes=scale.asserts_shapes)
    rows = []
    for name in WORKLOAD_CLASSES:
        result = run_workload(cfg, make_workload(name, boosted, seed),
                              seed=seed)
        rows.append(VictimizationRow(
            workload=name,
            transactions=result.commits,
            l1_victimizations=result.counters.get("victimization.l1_tx", 0),
            l2_victimizations=result.counters.get("victimization.l2_tx", 0),
            sticky_created=result.counters.get("coherence.sticky_created", 0)))
    return rows


def render_victimization(rows: Sequence[VictimizationRow]) -> str:
    return render_table(
        ["Benchmark", "Transactions", "L1 victimizations",
         "L2 victimizations", "Sticky states created"],
        [(r.workload, r.transactions, r.l1_victimizations,
          r.l2_victimizations, r.sticky_created) for r in rows],
        title="Result 4: victimization of transactional data")


# ---------------------------------------------------------------------------
# Table 4 — virtualization-technique comparison
# ---------------------------------------------------------------------------

#: The paper's qualitative event/action matrix, verbatim. Legend:
#: '-' simple hardware, H complex hardware, S software, A abort,
#: C copy values, W walk cache, V validate read set, B block others.
TABLE4_MATRIX: Dict[str, Dict[str, str]] = {
    "UTM":            dict(before="- / - / -", eviction="H", miss="H",
                           commit="H", abort="HC", paging="H", switch="H"),
    "VTM":            dict(before="- / - / -", eviction="S", miss="S",
                           commit="S C", abort="S", paging="S", switch="SWV"),
    "UnrestrictedTM": dict(before="- / - / -", eviction="A", miss="B",
                           commit="B", abort="B", paging="AS", switch="AS"),
    "XTM":            dict(before="- / - / -", eviction="ASC", miss="-",
                           commit="SCV", abort="S", paging="SC", switch="AS"),
    "XTM-g":          dict(before="- / - / -", eviction="SC", miss="-",
                           commit="SCV", abort="S", paging="SC", switch="AS"),
    "PTM-Copy":       dict(before="- / - / -", eviction="SC", miss="S",
                           commit="S", abort="SC", paging="S", switch="S"),
    "PTM-Select":     dict(before="- / - / -", eviction="S", miss="H",
                           commit="S", abort="S", paging="S", switch="S"),
    "LogTM-SE":       dict(before="- / - / SC", eviction="-", miss="-",
                           commit="S", abort="SC", paging="S", switch="S"),
}


def render_table4() -> str:
    headers = ["System", "Before virt. ($miss/commit/abort)", "$Eviction",
               "$Miss", "Commit", "Abort", "Paging", "Thread switch"]
    rows = [(name, row["before"], row["eviction"], row["miss"],
             row["commit"], row["abort"], row["paging"], row["switch"])
            for name, row in TABLE4_MATRIX.items()]
    return render_table(headers, rows,
                        title="Table 4: HTM Virtualization Techniques")
