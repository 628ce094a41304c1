"""The paper's experiments: every table, figure, ablation and extension.

Each experiment is three functions side by side: a run function that
returns structured rows, a render function that turns the rows into the
printed table(s), and a check function that returns the paper claims the
rows break. :data:`EXPERIMENTS` lists them in paper order; ``repro paper``
runs, prints and checks any subset of it. Scales:

* ``QUICK`` — small thread counts / unit counts for CI and tests; shape
  claims (``asserts_shapes``) are not checked at this scale;
* ``FULL`` — the 32-thread machine of Table 1 with enough units of work for
  stable shapes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.config import (CoherenceStyle, LockImpl, SignatureConfig,
                                 SignatureKind, SyncMode, SystemConfig,
                                 figure4_variants)
from repro.common.errors import SimulationError, VerificationError
from repro.common.presets import cmp_preset, scaling_series
from repro.common.rng import DEFAULT_SEED, make_rng, perturbed_seeds
from repro.common.stats import ConfidenceInterval
from repro.cpu.executor import ThreadExecutor
from repro.harness.report import render_table
from repro.harness.runner import RunResult, default_config_label
from repro.harness.sweep import (Cell, Variant, execute_tasks, run_sweep,
                                 signature_size_variants)
from repro.harness.system import System
from repro.signatures.factory import make_signature
from repro.workloads import (PAPER_SUITE, BankTransfer, BerkeleyDB,
                             BigFootprint, FalseSharing, RepeatStores,
                             SharedCounter, Workload)


@dataclass(frozen=True)
class ExperimentScale:
    """How big to run the workloads."""

    threads: int = 32
    units: Dict[str, int] = field(default_factory=dict)
    runs: int = 1
    default_units: int = 4
    #: Whether runs at this scale produce statistically meaningful shapes
    #: (quick/CI scales run the code paths but leave shape claims
    #: unchecked).
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

#: The paper suite by name, in the paper's order.
WORKLOAD_CLASSES: Dict[str, type] = {cls.name: cls for cls in PAPER_SUITE}


def make_workload(name: str, scale: ExperimentScale,
                  seed: int = DEFAULT_SEED) -> Workload:
    cls = WORKLOAD_CLASSES[name]
    return cls(num_threads=scale.threads,
               units_per_thread=scale.units_for(name), seed=seed)


def _failed(claims: Iterable[Tuple[bool, str]]) -> List[str]:
    """The texts of the ``(holds, text)`` claims that do not hold."""
    return [text for holds, text in claims if not holds]


def _run_cells(cells: Iterable[Tuple[str, SystemConfig, Workload]],
               jobs: Optional[int], seed: int = DEFAULT_SEED,
               cache=None) -> Dict[str, RunResult]:
    """Run ``(name, config, workload)`` cells as one batch; results by
    name, in cell order, labelled as ``run_workload`` labels a config."""
    outcomes = execute_tasks(
        ((name, Cell(default_config_label(cfg), cfg, workload, seed=seed))
         for name, cfg, workload in cells), jobs=jobs, cache=cache)
    return {name: outcome.result for name, outcome in outcomes.items()}


# ---------------------------------------------------------------------------
# Table 1 — system model parameters
# ---------------------------------------------------------------------------

@dataclass
class Table1Row:
    parameter: str
    setting: str


def table1_rows(cfg: Optional[SystemConfig] = None) -> List[Table1Row]:
    cfg = cfg or SystemConfig.default()
    rows = [
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
    return [Table1Row(parameter, setting) for parameter, setting in rows]


def render_table1(rows: Sequence[Table1Row]) -> str:
    return render_table(["Parameter", "Setting"],
                        [(r.parameter, r.setting) for r in rows],
                        title="Table 1: System Model Parameters")


def check_table1(rows: Sequence[Table1Row],
                 scale: ExperimentScale) -> List[str]:
    """Every headline number against the paper's Table 1."""
    settings = {r.parameter: r.setting for r in rows}
    expected = [
        ("Processor Cores", "16 cores, 2-way SMT (32 thread contexts)"),
        ("L1 Cache", "32 KB 4-way"),
        ("L1 Cache", "1 cycle"),
        ("L2 Cache", "8 MB 8-way"),
        ("L2 Cache", "34-cycle"),
        ("Memory", "4 GB"),
        ("Memory", "500-cycle"),
        ("L2-Directory", "6-cycle"),
        ("Interconnection Network", "3-cycle link"),
    ]
    return _failed((text in settings[parameter],
                    f"{parameter} setting contains {text!r}")
                   for parameter, text in expected)


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
           cfg: Optional[SystemConfig] = None,
           jobs: Optional[int] = 1) -> List[Table2Row]:
    """Run every workload with perfect signatures; measure footprints."""
    cfg = cfg or SystemConfig.default()
    cfg = cfg.with_signature(SignatureKind.PERFECT)
    results = _run_cells(((name, cfg, make_workload(name, scale, seed))
                          for name in WORKLOAD_CLASSES), jobs, seed)
    rows = []
    for name, result in results.items():
        reads = result.histograms.get("tm.read_set_blocks")
        writes = result.histograms.get("tm.write_set_blocks")
        rows.append(Table2Row(
            name=name,
            input_desc=WORKLOAD_CLASSES[name].input_desc,
            unit_name=WORKLOAD_CLASSES[name].unit_name,
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


def check_table2(rows: Sequence[Table2Row],
                 scale: ExperimentScale) -> Optional[List[str]]:
    """Footprint shapes; small average sets are what let small signatures
    work at all (Result 3). Paper values are in EXPERIMENTS.md."""
    if not scale.asserts_shapes:
        return None  # quick scale exercises the path; shapes need full scale
    by_name = {r.name: r for r in rows}
    claims = [(set(by_name) == {"BerkeleyDB", "Cholesky", "Radiosity",
                                "Raytrace", "Mp3d"},
               "rows cover the five workloads")]
    claims += [(row.transactions >= row.units > 0,
                f"{row.name}: transactions >= units > 0") for row in rows]

    chol = by_name["Cholesky"]
    claims.append(((chol.read_avg, chol.read_max) == (4.0, 4),
                   "Cholesky read sets are exactly 4 blocks"))
    claims.append(((chol.write_avg, chol.write_max) == (2.0, 2),
                   "Cholesky write sets are exactly 2 blocks"))

    ray = by_name["Raytrace"]
    claims.append((ray.read_max == max(r.read_max for r in rows),
                   "Raytrace has the largest read-set maximum"))
    claims.append((ray.read_max >= 100,
                   "the big-traversal tail must appear (read max >= 100)"))
    claims.append((ray.write_max <= 4,
                   "Raytrace write sets stay tiny (max 3)"))

    for row in rows:
        claims.append((row.read_avg <= 12,
                       f"{row.name}: average read sets are small (<= 12)"))
        claims.append((row.write_avg <= 10,
                       f"{row.name}: average write sets are small (<= 10)"))

    rad = by_name["Radiosity"]
    claims.append((rad.write_max > 10 * rad.write_avg,
                   "Radiosity: skewed write tail (max > 10 x avg)"))
    return _failed(claims)


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
                        bit_sizes: Sequence[int] = (64, 2048),
                        jobs: Optional[int] = 1
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
    base = base_cfg or replace(
        SystemConfig.small(), coherence=CoherenceStyle.SNOOPING)
    variants = [("Perfect", base.with_signature(SignatureKind.PERFECT))]
    variants += signature_size_variants(SignatureKind.BIT_SELECT, bit_sizes,
                                        base=base, granularity=64)
    sweep = run_sweep(
        variants,
        lambda: BigFootprint(num_threads=num_threads, units_per_thread=units,
                             blocks_per_sweep=blocks_per_sweep, seed=seed),
        seed=seed, jobs=jobs)
    rows: List[Figure3AttributionRow] = []
    for label, result in sweep.results.items():
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


def figure3_with_attribution(seed: int = DEFAULT_SEED,
                             jobs: Optional[int] = 1) -> Dict[str, list]:
    """Figure 3's aliasing points beside their abort attribution."""
    return {"points": figure3(seed=seed),
            "attribution": figure3_attribution(seed=seed, jobs=jobs)}


def render_figure3_with_attribution(rows: Dict[str, list]) -> str:
    return (render_figure3(rows["points"]) + "\n\n"
            + render_figure3_attribution(rows["attribution"]))


def check_figure3(rows: Dict[str, list],
                  scale: ExperimentScale) -> List[str]:
    points = rows["points"]
    rate = {(p.kind, p.bits, p.inserted): p.false_positive_rate
            for p in points}

    # Monotone in size: for every design and occupancy, growing the filter
    # can only help (allowing tiny sampling noise).
    claims = [(rate[(kind, 64, n)] >= rate[(kind, 2048, n)] - 0.02,
               f"{kind}, {n} blocks: 64-bit rate >= 2048-bit rate - 0.02")
              for kind in ("BS", "DBS", "CBS")
              for n in (2, 8, 32, 128, 512)]

    # Saturation: a 512-block set in a 64-bit BS filter aliases massively.
    claims.append((rate[("BS", 64, 512)] > 0.9,
                   "BS 64 bits, 512 blocks: rate > 0.9"))
    claims.append((rate[("BS", 2048, 512)] < 0.3,
                   "BS 2048 bits, 512 blocks: rate < 0.3"))

    # DBS <= BS at the same size for moderate occupancy (two hashes).
    claims.append((rate[("DBS", 2048, 128)] <= rate[("BS", 2048, 128)] + 0.01,
                   "2048 bits, 128 blocks: DBS rate <= BS rate + 0.01"))

    # Near-empty filters rarely alias: 2-block sets in 2 Kb filters stay
    # below 35% for every design.
    claims.append((all(p.false_positive_rate < 0.35
                       for p in points if p.inserted == 2 and p.bits == 2048),
                   "2048 bits, 2 blocks: every design's rate < 0.35"))
    return _failed(claims)


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
    workloads = {name: make_workload(name, scale, seed) for name in names}
    outcomes = execute_tasks(
        ((f"{name}/{label}#{i}",
          Cell(label, cfg, workloads[name], seed=run_seed))
         for name in names
         for label, cfg in variant_list
         for i, run_seed in enumerate(run_seeds)), jobs=jobs, cache=cache)
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


def check_figure4(cells: Sequence[Figure4Cell],
                  scale: ExperimentScale) -> Optional[List[str]]:
    """Results 1-3 of the paper."""
    if not scale.asserts_shapes:
        return None  # quick scale exercises the path; shapes need full scale
    speedup = defaultdict(dict)
    for c in cells:
        speedup[c.workload][c.variant] = c.speedup

    # Result 1: perfect signatures >= locks (small tolerance for noise).
    claims = [(variants["Perfect"] >= 0.90,
               f"{workload}: TM must be comparable to locks or better "
               "(Perfect >= 0.90)")
              for workload, variants in speedup.items()]

    # BerkeleyDB and Raytrace benefit clearly from transactions.
    claims += [(speedup[workload]["Perfect"] >= 1.15,
                f"{workload}: Perfect speedup >= 1.15")
               for workload in ("BerkeleyDB", "Raytrace")]

    # Result 2: realistic 2Kb signatures track perfect signatures.
    claims += [(variants[label] >= variants["Perfect"] * 0.85,
                f"{workload}/{label} must track perfect signatures "
                "(>= 0.85 x Perfect)")
               for workload, variants in speedup.items()
               for label in ("BS_2Kb", "CBS_2Kb", "DBS_2Kb")]

    # Result 3: even 64-bit signatures stay comparable to locks.
    for workload, variants in speedup.items():
        claims.append((variants["BS_64"] >= 0.85,
                       f"{workload}: BS_64 must remain comparable to locks "
                       "(>= 0.85)"))
        claims.append((variants["BS_64"] <= variants["Perfect"] * 1.1 + 0.05,
                       f"{workload}: BS_64 <= 1.1 x Perfect + 0.05"))
    return _failed(claims)


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


def table3_variants(base: SystemConfig) -> List[Variant]:
    """The :data:`TABLE3_SIGNATURES` family on ``base``, as
    ``(label, config)`` pairs."""
    return [(label, base.with_signature(kind) if kind is SignatureKind.PERFECT
             else base.with_signature(kind, bits=bits,
                                      granularity=granularity))
            for label, kind, bits, granularity in TABLE3_SIGNATURES]


def table3(scale: ExperimentScale = QUICK, seed: int = DEFAULT_SEED,
           workloads: Sequence[str] = ("BerkeleyDB", "Raytrace"),
           base_cfg: Optional[SystemConfig] = None,
           jobs: Optional[int] = 1, cache=None) -> List[Table3Row]:
    """Every workload under the Table 3 signature family: one batch of
    cells keyed ``workload/label``, which ``jobs``/``cache`` fan out and
    store."""
    variants = table3_variants(base_cfg or SystemConfig.default())
    results = _run_cells(
        ((f"{name}/{label}", cfg, make_workload(name, scale, seed))
         for name in workloads for label, cfg in variants),
        jobs, seed, cache)
    rows: List[Table3Row] = []
    for name in workloads:
        for label, _cfg in variants:
            result = results[f"{name}/{label}"]
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


def check_table3(rows: Sequence[Table3Row],
                 scale: ExperimentScale) -> Optional[List[str]]:
    if not scale.asserts_shapes:
        return None  # quick scale exercises the path; shapes need full scale
    by_key = {(r.workload, r.signature): r for r in rows}
    claims = []
    for workload in ("BerkeleyDB", "Raytrace"):
        fp = {label: r.false_positive_pct
              for (name, label), r in by_key.items() if name == workload}
        claims.append((fp["Perfect"] == 0.0,
                       f"{workload}: Perfect has no false positives"))

        # Small signatures alias more: BS_64 strictly above BS_2Kb.
        claims.append((fp["BS_64"] >= fp["BS_2Kb"],
                       f"{workload}: BS_64 false positives >= BS_2Kb"))
        claims.append((fp["DBS_64"] >= fp["DBS_2Kb"],
                       f"{workload}: DBS_64 false positives >= DBS_2Kb"))

        # Small signatures produce a meaningful false-conflict share.
        claims.append((fp["BS_64"] >= 20.0,
                       f"{workload}: BS_64 false positives >= 20%"))

        # Stalling dominates aborting, at every signature size: "given
        # time, many conflicts resolve themselves".
        claims += [(r.stalls >= r.aborts,
                    f"{r.workload}/{r.signature}: stalls must dominate")
                   for r in rows if r.workload == workload]

    # BerkeleyDB: abort counts comparable across schemes (within 3x of
    # perfect — the paper reports "comparable").
    bdb_perfect = max(by_key[("BerkeleyDB", "Perfect")].aborts, 1)
    claims += [(by_key[("BerkeleyDB", label)].aborts <= bdb_perfect * 3,
                f"BerkeleyDB/{label}: aborts <= 3 x Perfect")
               for label in ("BS_2Kb", "CBS_2Kb", "DBS_2Kb", "BS_64")]
    return _failed(claims)


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
                  base_cfg: Optional[SystemConfig] = None,
                  jobs: Optional[int] = 1) -> List[VictimizationRow]:
    cfg = (base_cfg or SystemConfig.default()).with_signature(
        SignatureKind.PERFECT)
    # Victimization is a tail event (the paper observed 481 in 48K
    # Raytrace transactions): Raytrace needs a larger transaction sample
    # for its over-L1-capacity traversals to show up.
    units = dict(scale.units)
    units["Raytrace"] = max(units.get("Raytrace", scale.default_units) * 5,
                            scale.default_units * 5)
    boosted = replace(scale, units=units)
    results = _run_cells(((name, cfg, make_workload(name, boosted, seed))
                          for name in WORKLOAD_CLASSES), jobs, seed)
    rows = []
    for name, result in results.items():
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


def check_victimization(rows: Sequence[VictimizationRow],
                        scale: ExperimentScale) -> Optional[List[str]]:
    """Shape claim: Raytrace victimizes far more than every other benchmark
    (the paper: 481 events in 48K transactions vs. <20 elsewhere), driven
    by its 550-block traversals overflowing the 512-block L1."""
    if not scale.asserts_shapes:
        return None  # quick scale exercises the path; shapes need full scale
    by_name = {r.workload: r for r in rows}
    ray = by_name["Raytrace"]
    total = {name: r.l1_victimizations + r.l2_victimizations
             for name, r in by_name.items()}

    # Raytrace dominates victimization...
    others_max = max(v for name, v in total.items() if name != "Raytrace")
    return _failed([
        (total["Raytrace"] > 0, "traversals must overflow the L1"),
        (total["Raytrace"] >= max(others_max, 1) * 3,
         "Raytrace victimizes >= 3 x any other workload"),
        # ...but it is still a rare event relative to transaction count
        # (paper: ~1% of transactions), and sticky states were exercised.
        (total["Raytrace"] <= ray.transactions,
         "Raytrace victimizations <= its transactions"),
        (ray.sticky_created > 0, "Raytrace creates sticky states"),
    ])


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


def drive_logtm_se_events():
    """Run each Table 4 event; return the counters that prove each cell."""
    cfg = SystemConfig.small(num_cores=2, threads_per_core=1)
    system = System(cfg, seed=3)
    t0, t1 = system.place_threads(2)
    slot0 = t0.slot
    mgr = system.manager

    def run(gen):
        proc = system.sim.spawn(gen)
        system.sim.run()
        return proc.done.value

    evidence = {}

    # -- $Eviction: overflow a transaction past the L1, stay in hardware.
    run(mgr.begin(slot0))
    l1 = cfg.l1
    stride = l1.num_sets * l1.block_bytes
    for i in range(l1.associativity + 1):
        run(slot0.core.store(slot0, 0x2000_0000 + i * stride, i))
    evidence["eviction_sticky"] = system.stats.value(
        "coherence.sticky_created")

    # -- $Miss after victimization: the other thread reads a *granted*
    #    block normally once the transaction commits (plain coherence).
    run(mgr.commit(slot0))
    nacks_before = system.stats.value("coherence.nacks")
    run(t1.slot.core.load(t1.slot, 0x2000_0000))
    evidence["miss_after_nacks"] = (system.stats.value("coherence.nacks")
                                    - nacks_before)

    # -- Thread switch mid-transaction (S: software signature save/merge).
    run(mgr.begin(slot0))
    run(slot0.core.store(slot0, 0x3000_0000, 7))
    run(mgr.deschedule(slot0))
    evidence["switch_saves"] = len(mgr.saved_signatures(t0.asid))
    evidence["switch_installs"] = system.stats.value("os.summary_installs")

    # -- Commit after virtualization (S: one summary recompute trap).
    free_slot = [s for s in system.all_slots() if not s.occupied][0]
    run(mgr.schedule(t0, free_slot))
    run(mgr.commit(t0.slot))
    evidence["commit_trap_clears"] = len(mgr.saved_signatures(t0.asid))

    # -- Paging (S: signature rewrite) and Abort (SC: log walk).
    run(mgr.begin(t0.slot))
    run(t0.slot.core.store(t0.slot, 0x3000_0000, 9))
    run(mgr.relocate_page(system.page_table(t0.asid), 0x3000_0000))
    evidence["paging_rehomes"] = system.stats.value("os.signature_rehomes")
    undone = run(mgr.abort(t0.slot))
    evidence["abort_records_copied"] = undone
    evidence["value_restored"] = system.memory.load(
        t0.translate(0x3000_0000))
    return evidence


def table4() -> Dict[str, dict]:
    """The paper's matrix beside live evidence for its LogTM-SE row."""
    return {"matrix": TABLE4_MATRIX, "evidence": drive_logtm_se_events()}


def render_table4(rows: Dict[str, dict]) -> str:
    headers = ["System", "Before virt. ($miss/commit/abort)", "$Eviction",
               "$Miss", "Commit", "Abort", "Paging", "Thread switch"]
    table = [(name, row["before"], row["eviction"], row["miss"],
              row["commit"], row["abort"], row["paging"], row["switch"])
             for name, row in rows["matrix"].items()]
    return (render_table(headers, table,
                         title="Table 4: HTM Virtualization Techniques")
            + f"\n\nLogTM-SE row demonstrated live: {rows['evidence']}")


def check_table4(rows: Dict[str, dict],
                 scale: ExperimentScale) -> List[str]:
    """Each cost class of the LogTM-SE row, against the live evidence."""
    row = rows["matrix"]["LogTM-SE"]
    evidence = rows["evidence"]
    return _failed([
        # $Eviction '-': handled by a sticky state in hardware.
        (row["eviction"] == "-", "$Eviction is '-'"),
        (evidence["eviction_sticky"] > 0, "an overflow creates sticky state"),
        # $Miss '-': a plain coherence fill, no NACK, no software.
        (row["miss"] == "-", "$Miss is '-'"),
        (evidence["miss_after_nacks"] == 0, "a later miss is not NACKed"),
        # Thread switch 'S': signatures saved + summaries installed in
        # software.
        (row["switch"] == "S", "thread switch is 'S'"),
        (evidence["switch_saves"] == 1, "a switch saves one signature"),
        (evidence["switch_installs"] > 0, "a switch installs summaries"),
        # Commit 'S': the OS trap clears the saved-signature obligation.
        (row["commit"] == "S", "commit is 'S'"),
        (evidence["commit_trap_clears"] == 0,
         "the commit trap clears the saved signatures"),
        # Paging 'S': signatures rewritten for the moved page.
        (row["paging"] == "S", "paging is 'S'"),
        (evidence["paging_rehomes"] > 0, "paging rewrites signatures"),
        # Abort 'SC': software walk copies old values back.
        (row["abort"] == "SC", "abort is 'SC'"),
        (evidence["abort_records_copied"] >= 1,
         "an abort copies log records back"),
        (evidence["value_restored"] == 7, "an abort restores the old value"),
        # The matrix itself matches the paper's row set.
        (set(rows["matrix"]) == {
            "UTM", "VTM", "UnrestrictedTM", "XTM", "XTM-g",
            "PTM-Copy", "PTM-Select", "LogTM-SE"},
         "the matrix has the paper's eight systems"),
    ])


# ---------------------------------------------------------------------------
# Section 7 — the broadcast-snooping CMP alternative
# ---------------------------------------------------------------------------
#
# Runs a subset of the workloads under the snooping fabric (every request
# broadcast, wired-OR NACK line, no sticky states) and compares against the
# directory baseline.

def compare_fabrics(scale, jobs: Optional[int] = 1):
    results = list(_run_cells(
        ((f"{name}/{style.value}",
          replace(SystemConfig.default(), coherence=style),
          make_workload(name, scale))
         for name in ("Cholesky", "Mp3d")
         for style in (CoherenceStyle.DIRECTORY, CoherenceStyle.SNOOPING)),
        jobs).values())
    # Cells alternate directory, snooping for each workload.
    return [(d.workload, d.cycles, s.cycles,
             d.counters.get("coherence.forwards", 0),
             s.counters.get("coherence.snoops", 0), d.units, s.units)
            for d, s in zip(results[0::2], results[1::2])]


def render_snooping(rows) -> str:
    return render_table(
        ["Benchmark", "Directory cycles", "Snooping cycles",
         "Dir forwards", "Snoop broadcasts", "Dir units", "Snoop units"],
        rows, title="Section 7: directory vs. broadcast snooping")


def check_snooping(rows, scale: ExperimentScale) -> Optional[List[str]]:
    """Same work, more check traffic and comparable speed: the paper's
    point is feasibility, not a winner."""
    if not scale.asserts_shapes:
        return None  # quick scale exercises the path; shapes need full scale
    cores = SystemConfig.default().num_cores
    claims = []
    for (name, d_cycles, s_cycles, d_fwd, s_snoops,
         d_units, s_units) in rows:
        claims += [
            (d_units == s_units, f"{name}: same work must complete"),
            # The directory forwards selectively; every snoop broadcast
            # checks all other cores, so total signature-check traffic
            # dominates.
            (s_snoops * (cores - 1) > d_fwd,
             f"{name}: snoop checks outnumber directory forwards"),
            # Same ballpark performance (within 2x either way).
            (0.5 <= s_cycles / d_cycles <= 2.0,
             f"{name}: snooping cycles within 2x of directory"),
        ]
    return _failed(claims)


# ---------------------------------------------------------------------------
# Ablations of the design choices DESIGN.md calls out
# ---------------------------------------------------------------------------
#
# 1. Log filter (Section 2): with the per-thread filter, repeated stores to
#    a block are logged once; with a zero-entry filter every store pays a
#    log append. Measures undo-log traffic and cycles.
# 2. Sticky states (Section 3.1): with sticky states disabled, an
#    L1-overflowing transaction loses conflict-forwarding coverage — counts
#    how many evictions would have lost isolation.
# 3. Signature size sweep: BerkeleyDB's false-positive share as BS shrinks
#    from 4Kb to 32 bits (the birthday-paradox curve behind Result 3).
# 4. Lock implementation: the queued-mutex baseline vs. a
#    test-and-test-and-set spinlock running through the memory system —
#    quantifying how much lock implementation, not locking itself, costs.

def ablate_log_filter(jobs: Optional[int] = 1):
    base = SystemConfig.small(num_cores=2)
    sizes = (0, 4, 32)
    sweep = run_sweep(
        [(f"{entries} entries",
          replace(base, tm=replace(base.tm, log_filter_entries=entries)))
         for entries in sizes],
        lambda: RepeatStores(num_threads=2, units_per_thread=6,
                             stores_per_burst=48), jobs=jobs)
    return [(entries, result.counters["tm.log_appends"],
             result.counters.get("tm.log_filtered", 0), result.cycles)
            for entries, result in zip(sizes, sweep.results.values())]


def render_log_filter(rows) -> str:
    return render_table(
        ["Filter entries", "Log appends", "Appends filtered", "Cycles"],
        rows, title="Ablation: log filter")


def check_log_filter(rows, scale: ExperimentScale) -> List[str]:
    appends = {entries: a for entries, a, _f, _c in rows}
    cycles = {entries: c for entries, _a, _f, c in rows}
    # No filter -> every store logged; a 4-entry filter already suppresses
    # all repeats of this single-block burst.
    return _failed([
        (appends[0] > appends[4] * 10,
         "no filter logs > 10 x the appends of 4 entries"),
        (appends[4] == appends[32], "4 and 32 entries log the same"),
        (cycles[32] < cycles[0], "32 entries take fewer cycles than none"),
    ])


def ablate_sticky_states(jobs: Optional[int] = 1):
    base = SystemConfig.small(num_cores=2)
    sweep = run_sweep(
        [("on" if sticky else "off",
          replace(base, tm=replace(base.tm, use_sticky_states=sticky)))
         for sticky in (True, False)],
        lambda: BigFootprint(num_threads=2, units_per_thread=3,
                             blocks_per_sweep=96), jobs=jobs)
    return [(mode, result.counters.get("victimization.l1_tx", 0),
             result.counters.get("coherence.sticky_created", 0), result.units)
            for mode, result in sweep.results.items()]


def render_sticky_states(rows) -> str:
    return render_table(
        ["Sticky states", "Tx victimizations", "Sticky created", "Units"],
        rows, title="Ablation: sticky directory states")


def check_sticky_states(rows, scale: ExperimentScale) -> List[str]:
    by_mode = {mode: (vict, created) for mode, vict, created, _u in rows}
    on_vict, on_created = by_mode["on"]
    off_vict, off_created = by_mode["off"]
    # Overflow happens either way; only the sticky mechanism records an
    # isolation obligation. Every non-sticky transactional eviction is a
    # would-be isolation hole (demonstrated concretely in the test suite).
    return _failed([
        (on_vict > 0 and off_vict > 0, "transactions overflow either way"),
        (on_created > 0, "sticky states are created when on"),
        (off_created == 0, "no sticky state is created when off"),
    ])


def sweep_signature_sizes(scale, jobs: Optional[int] = 1):
    sizes = (4096, 1024, 256, 64, 32)
    sweep = run_sweep(
        signature_size_variants(SignatureKind.BIT_SELECT, sizes,
                                granularity=64),
        lambda: make_workload("BerkeleyDB", scale), jobs=jobs)
    return [(bits, result.cycles, result.aborts, result.stalls,
             round(result.false_positive_pct, 1))
            for bits, result in zip(sizes, sweep.results.values())]


def render_signature_sizes(rows) -> str:
    return render_table(
        ["BS bits", "Cycles", "Aborts", "Stalls", "False positive %"],
        rows, title="Ablation: signature size sweep (BerkeleyDB)")


def check_signature_sizes(rows, scale: ExperimentScale) -> List[str]:
    fp = {bits: fp_pct for bits, _c, _a, _s, fp_pct in rows}
    # The birthday paradox: false-positive share grows as bits shrink.
    return _failed([
        (fp[32] >= fp[256] >= fp[4096],
         "false positives grow as bits shrink (32 >= 256 >= 4096)"),
        (fp[32] > 10.0, "32 bits: false positives > 10%"),
        (fp[4096] < 15.0, "4096 bits: false positives < 15%"),
    ])


def compare_lock_impls(scale, jobs: Optional[int] = 1):
    base = SystemConfig.default().with_sync(SyncMode.LOCKS)
    sweep = run_sweep(
        [(impl.value, replace(base, lock_impl=impl))
         for impl in (LockImpl.MUTEX, LockImpl.SPIN)],
        lambda: make_workload("Mp3d", scale), jobs=jobs)
    return [(impl, result.cycles, result.counters.get("locks.acquires", 0),
             result.counters.get("locks.spins", 0))
            for impl, result in sweep.results.items()]


def render_lock_impls(rows) -> str:
    return render_table(
        ["Lock impl", "Cycles", "Acquires", "Spin retries"], rows,
        title="Ablation: queued mutex vs. TTS spinlock baseline")


def check_lock_impls(rows, scale: ExperimentScale) -> List[str]:
    by_impl = {impl: cycles for impl, cycles, _a, _s in rows}
    # The spinlock runs through the coherence protocol; under contention it
    # cannot beat the queued mutex.
    return _failed([(by_impl["spin"] >= by_impl["mutex"] * 0.9,
                     "spinlock cycles >= 0.9 x mutex cycles")])


# ---------------------------------------------------------------------------
# Scaling studies: thread count and false sharing
# ---------------------------------------------------------------------------
#
# Neither is a table in the paper, but both are questions the paper's setup
# begs:
#
# 1. Thread scaling — Figure 4 fixes 32 threads; here the BerkeleyDB
#    lock-vs-TM gap is swept from 2 to 32 threads. Shape: at low thread
#    counts the coarse lock barely hurts (speedup ≈ 1); the transactional
#    advantage grows with contention on the serialized subsystem.
# 2. False sharing — the paper's Raytrace "was modified to eliminate false
#    sharing between transactions [19]". This shows why: signatures (and
#    coherence) operate on 64-byte blocks, so two threads transactionally
#    writing *adjacent words* conflict exactly as if they shared data,
#    while block-separated words do not.

def thread_scaling(jobs: Optional[int] = 1):
    series = list(scaling_series(max_threads=32))
    results = _run_cells(
        ((f"{label}/{sync.value}", cfg.with_sync(sync),
          BerkeleyDB(num_threads=threads, units_per_thread=3))
         for label, cfg, threads in series
         for sync in (SyncMode.LOCKS, SyncMode.TRANSACTIONS)), jobs)
    # Cells alternate locks, transactions for each machine.
    cycles = [result.cycles for result in results.values()]
    return [(label, lock, tm, round(lock / tm, 2))
            for (label, _cfg, _threads), lock, tm
            in zip(series, cycles[0::2], cycles[1::2])]


def render_thread_scaling(rows) -> str:
    return render_table(
        ["Machine", "Lock cycles", "TM cycles", "Speedup"],
        rows, title="Scaling: BerkeleyDB lock-vs-TM gap vs thread count")


def check_thread_scaling(rows,
                         scale: ExperimentScale) -> Optional[List[str]]:
    if not scale.asserts_shapes:
        return None  # quick scale exercises the path; shapes need full scale
    speedups = {label: s for label, _l, _t, s in rows}
    return _failed([
        # The transactional advantage grows with contention...
        (speedups["16c/32t"] > speedups["2c/4t"],
         "speedup at 16c/32t > speedup at 2c/4t"),
        # ...and a single-threaded "race" is a tie (nothing to contend for).
        (0.9 <= speedups["1c/2t"] <= 1.6, "1c/2t speedup within [0.9, 1.6]"),
    ])


def false_sharing_cost(jobs: Optional[int] = 1):
    cfg = cmp_preset(num_cores=8, threads_per_core=1)
    results = _run_cells(
        (("packed" if packed else "separated", cfg,
          FalseSharing(num_threads=8, packed=packed))
         for packed in (False, True)), jobs)
    return [(layout, result.cycles, result.stalls, result.aborts)
            for layout, result in results.items()]


def render_false_sharing(rows) -> str:
    return render_table(
        ["Layout", "Cycles", "Stalls", "Aborts"],
        rows, title="False sharing: adjacent vs block-separated words")


def check_false_sharing(rows, scale: ExperimentScale) -> List[str]:
    cycles = {layout: c for layout, c, _stalls, _aborts in rows}
    stalls = {layout: s for layout, _cycles, s, _aborts in rows}
    # Separated words never conflict; packed words fight over one block.
    return _failed([
        (stalls["separated"] == 0, "separated words never stall"),
        (stalls["packed"] > 0, "packed words stall"),
        (cycles["packed"] > cycles["separated"] * 1.5,
         "block-granularity conflicts must visibly serialize the packed "
         "layout — the reason the paper de-false-shared Raytrace"),
    ])


# ---------------------------------------------------------------------------
# Extensions: mechanisms beyond the paper's evaluation tables
# ---------------------------------------------------------------------------
#
# 1. Contention managers (Section 2's "could trap to a contention
#    manager"): LogTM's timestamp policy vs. polite vs. aggressive
#    (requester-wins) on a contended counter — same correctness, different
#    throughput/abort trade-offs.
# 2. LogTM-SE vs. original LogTM (Section 8): under an oversubscribed
#    preemptive scheduler, classic LogTM must abort every preempted
#    transaction (R/W bits are not savable); LogTM-SE suspends them.
# 3. Multiple-CMP system (Section 7): cross-chip isolation works and
#    intra-chip locality pays — chip-local traffic avoids the inter-chip
#    directory.
# 4. Signature designs beyond Figure 3: k-hash (H3) signatures against
#    bit-select at equal size, plus the analytic model's accuracy.
# 5. Eager (LogTM-SE) vs lazy (Bulk-style) version management.

def compare_policies(jobs: Optional[int] = 1):
    base = SystemConfig.small(num_cores=4, threads_per_core=2)
    sweep = run_sweep(
        [(policy, replace(base, tm=replace(base.tm,
                                           contention_policy=policy)))
         for policy in ("timestamp", "polite", "aggressive")],
        lambda: BankTransfer(num_threads=8, units_per_thread=20,
                             num_accounts=16, compute_between=50),
        jobs=jobs)
    return [(policy, result.cycles, result.aborts, result.stalls,
             result.counters["final.balance"])
            for policy, result in sweep.results.items()]


def render_policies(rows) -> str:
    return render_table(
        ["Policy", "Cycles", "Aborts", "Stalls", "Balance (must be 0)"],
        rows, title="Extension: contention managers")


def check_policies(rows, scale: ExperimentScale) -> List[str]:
    claims = [(balance == 0, f"{policy}: atomicity violated")
              for policy, _cycles, _aborts, _stalls, balance in rows]
    aborts = {policy: a for policy, _c, a, _s, _b in rows}
    stalls = {policy: s for policy, _c, _a, s, _b in rows}
    # Aggressive trades aborts for fewer stalls relative to polite.
    claims.append((aborts["aggressive"] >= aborts["timestamp"],
                   "aggressive aborts >= timestamp aborts"))
    claims.append((stalls["aggressive"] < stalls["polite"],
                   "aggressive stalls < polite stalls"))
    return _failed(claims)


def preemption_cost(classic: bool):
    from repro.osmodel.scheduler import TimeSliceScheduler

    cfg = SystemConfig.small(num_cores=2, threads_per_core=1)
    cfg = replace(cfg, tm=replace(cfg.tm, classic_logtm=classic))
    system = System(cfg, seed=4)
    wl = SharedCounter(num_threads=6, units_per_thread=4,
                       compute_between=200, inner_compute=400)
    threads = [system.new_thread() for _ in range(6)]
    for thread, slot in zip(threads, system.all_slots()):
        slot.bind(thread)
    procs = []
    for i, thread in enumerate(threads):
        rng = make_rng(4, "bench", i)
        ex = ThreadExecutor(cfg, thread, system.manager,
                            wl.program(i, rng), rng, system.stats)
        procs.append(system.sim.spawn(ex.run()))
    sched = TimeSliceScheduler(system, threads, quantum=300,
                               rng=make_rng(4, "sched"))
    system.sim.spawn(sched.run())
    while not all(p.done.done for p in procs):
        system.sim.run(until=system.sim.now + 100_000)
        if system.sim.now >= 100_000_000:
            raise SimulationError(
                "preempted SharedCounter did not finish within "
                f"100,000,000 cycles (classic={classic})")
    sched.stop()
    value = system.memory.load(system.page_table(0).translate(wl.counter))
    return dict(
        cycles=system.sim.now,
        preemption_aborts=system.stats.value(
            "tm.classic_preemption_aborts"),
        suspended=system.stats.value("os.deschedules_in_tx"),
        counter=value)


def compare_classic():
    return {"classic": preemption_cost(True),
            "se": preemption_cost(False)}


def render_classic(results) -> str:
    return render_table(
        ["Mode", "Cycles", "Preemption aborts", "Suspended in-tx",
         "Counter"],
        [(mode, r["cycles"], r["preemption_aborts"], r["suspended"],
          r["counter"]) for mode, r in results.items()],
        title="Extension: classic LogTM vs LogTM-SE under time slicing")


def check_classic(results, scale: ExperimentScale) -> List[str]:
    classic, se = results["classic"], results["se"]
    return _failed([
        (classic["counter"] == 24, "classic LogTM counts to 24"),
        (se["counter"] == 24, "LogTM-SE counts to 24"),
        # The headline difference: classic loses work to preemption aborts,
        # SE suspends transactions instead.
        (classic["preemption_aborts"] > 0, "classic aborts on preemption"),
        (se["preemption_aborts"] == 0, "LogTM-SE never aborts on preemption"),
        (se["suspended"] > 0, "LogTM-SE suspends preempted transactions"),
    ])


def multichip_locality(jobs: Optional[int] = 1):
    sweep = run_sweep(
        [(f"{chips}x{cores}",
          SystemConfig.small(num_cores=8, threads_per_core=1) if chips == 1
          else SystemConfig.multichip(num_chips=chips, cores_per_chip=cores))
         for chips, cores in ((1, 8), (2, 4), (4, 2))],
        lambda: BankTransfer(num_threads=8, units_per_thread=10,
                             num_accounts=32, compute_between=200),
        jobs=jobs)
    return [(label, result.cycles,
             result.counters.get("coherence.interchip_requests", 0),
             result.counters["final.balance"])
            for label, result in sweep.results.items()]


def render_multichip(rows) -> str:
    return render_table(
        ["Chips x cores", "Cycles", "Inter-chip requests",
         "Balance (must be 0)"],
        rows, title="Extension: multiple-CMP system (Section 7)")


def check_multichip(rows, scale: ExperimentScale) -> List[str]:
    claims = [(balance == 0, f"{label}: atomicity violated")
              for label, _cycles, _inter, balance in rows]
    cycles = {label: c for label, c, _inter, _balance in rows}
    inter = {label: i for label, _cycles, i, _balance in rows}
    claims += [
        (inter["1x8"] == 0, "single chip has no inter-chip traffic"),
        (inter["4x2"] > 0, "four chips must cross the package boundary"),
        # Sharing across more chips costs more cycles for the same work.
        (cycles["4x2"] >= cycles["1x8"], "4x2 takes >= the cycles of 1x8"),
    ]
    return _failed(claims)


def hashed_vs_bitselect():
    from repro.signatures.analysis import false_positive_rate

    rng = make_rng(7, "hashbench")
    rows = []
    for kind, hashes in ((SignatureKind.BIT_SELECT, 1),
                         (SignatureKind.HASHED, 2),
                         (SignatureKind.HASHED, 4)):
        for bits in (256, 1024):
            cfg = SignatureConfig(kind=kind, bits=bits, hashes=hashes)
            sig = make_signature(cfg)
            inserted = set()
            while len(inserted) < 48:
                inserted.add(rng.randrange(1 << 24) * 64)
            for a in inserted:
                sig.insert(a)
            hits = tested = 0
            while tested < 4000:
                a = rng.randrange(1 << 24) * 64
                if a in inserted:
                    continue
                tested += 1
                hits += sig.contains(a)
            rows.append((cfg.describe(), bits, hits / tested,
                         false_positive_rate(cfg, 48)))
    return rows


def render_hashed(rows) -> str:
    return render_table(
        ["Design", "Bits", "Measured FP rate", "Model FP rate"],
        rows, title="Extension: k-hash signatures vs model")


def check_hashed(rows, scale: ExperimentScale) -> List[str]:
    measured = {(d, b): m for d, b, m, _ in rows}
    model = {(d, b): p for d, b, _, p in rows}
    # Four hashes beat one at equal size and this occupancy.
    claims = [(measured[("H4_1Kb", 1024)] < measured[("BS_1Kb", 1024)],
               "H4_1Kb aliases less than BS_1Kb")]
    # The analytic model tracks measurements.
    claims += [(abs(measured[key] - model[key]) < 0.08,
                f"{key[0]}: model within 0.08 of measurement")
               for key in measured]
    return _failed(claims)


def eager_vs_lazy(jobs: Optional[int] = 1):
    from repro.workloads import HashTable
    base = SystemConfig.small(num_cores=4, threads_per_core=2)
    sweep = run_sweep(
        [(mode, replace(base, tm=replace(base.tm, version_management=mode)))
         for mode in ("eager", "lazy")],
        lambda: HashTable(num_threads=8, units_per_thread=12, num_buckets=4,
                          key_space=16, seed=15, compute_between=40),
        jobs=jobs)
    rows = []
    for mode, result in sweep.results.items():
        if not result.counters["final.table_matches_oracle"]:
            raise VerificationError(f"{mode}: oracle violated")
        rows.append((mode, result.cycles, result.commits, result.aborts,
                     result.counters.get("tm.lazy_squashes", 0),
                     result.counters.get("tm.log_appends", 0)))
    return rows


def render_lazy(rows) -> str:
    return render_table(
        ["Mode", "Cycles", "Commits", "Aborts", "Lazy squashes",
         "Undo-log appends"],
        rows, title="Extension: eager (LogTM-SE) vs lazy (Bulk) versioning")


def check_lazy(rows, scale: ExperimentScale) -> List[str]:
    commits = {mode: c for mode, _cy, c, _ab, _sq, _ap in rows}
    squashes = {mode: sq for mode, _cy, _c, _ab, sq, _ap in rows}
    appends = {mode: ap for mode, _cy, _c, _ab, _sq, ap in rows}
    return _failed([
        # Same work committed either way.
        (commits["eager"] == commits["lazy"] == 96,
         "both modes commit 96 transactions"),
        # The structural signatures of each mode:
        (appends["eager"] > 0, "eager mode logs old values"),
        (appends["lazy"] == 0, "lazy mode never touches the undo log"),
        (squashes["lazy"] > 0, "lazy mode squashes conflicting readers"),
        (squashes["eager"] == 0, "eager mode never squashes"),
    ])


# ---------------------------------------------------------------------------
# The registry ``repro paper`` runs
# ---------------------------------------------------------------------------

#: Every experiment, in paper order: ``name -> (run, render, check)``.
#: ``run(scale, seed, jobs)`` returns rows; ``render(rows)`` returns the
#: printed text; ``check(rows, scale)`` returns the claims the rows break,
#: or ``None`` when they are shape claims that ``scale`` does not check.
#: Each experiment's simulations are one cell batch that ``jobs`` fans
#: out; the experiments without a ``seed`` argument keep fixed seeds.
EXPERIMENTS: Dict[str, Tuple[Callable, Callable, Callable]] = {
    "table1": (lambda scale, seed, jobs: table1_rows(),
               render_table1, check_table1),
    "table2": (lambda scale, seed, jobs: table2(scale, seed, jobs=jobs),
               render_table2, check_table2),
    "fig3": (lambda scale, seed, jobs: figure3_with_attribution(seed, jobs),
             render_figure3_with_attribution, check_figure3),
    "fig4": (lambda scale, seed, jobs: figure4(scale, seed, jobs=jobs),
             render_figure4, check_figure4),
    "table3": (lambda scale, seed, jobs: table3(scale, seed, jobs=jobs),
               render_table3, check_table3),
    "victimization": (
        lambda scale, seed, jobs: victimization(scale, seed, jobs=jobs),
        render_victimization, check_victimization),
    "table4": (lambda scale, seed, jobs: table4(),
               render_table4, check_table4),
    "snooping": (lambda scale, seed, jobs: compare_fabrics(scale, jobs),
                 render_snooping, check_snooping),
    "ablation-log-filter": (lambda scale, seed, jobs: ablate_log_filter(jobs),
                            render_log_filter, check_log_filter),
    "ablation-sticky": (lambda scale, seed, jobs: ablate_sticky_states(jobs),
                        render_sticky_states, check_sticky_states),
    "ablation-sigsize": (
        lambda scale, seed, jobs: sweep_signature_sizes(scale, jobs),
        render_signature_sizes, check_signature_sizes),
    "ablation-locks": (
        lambda scale, seed, jobs: compare_lock_impls(scale, jobs),
        render_lock_impls, check_lock_impls),
    "scaling-threads": (lambda scale, seed, jobs: thread_scaling(jobs),
                        render_thread_scaling, check_thread_scaling),
    "false-sharing": (lambda scale, seed, jobs: false_sharing_cost(jobs),
                      render_false_sharing, check_false_sharing),
    "ext-contention": (lambda scale, seed, jobs: compare_policies(jobs),
                       render_policies, check_policies),
    "ext-classic": (lambda scale, seed, jobs: compare_classic(),
                    render_classic, check_classic),
    "ext-multichip": (lambda scale, seed, jobs: multichip_locality(jobs),
                      render_multichip, check_multichip),
    "ext-hashed": (lambda scale, seed, jobs: hashed_vs_bitselect(),
                   render_hashed, check_hashed),
    "ext-lazy": (lambda scale, seed, jobs: eager_vs_lazy(jobs),
                 render_lazy, check_lazy),
}
