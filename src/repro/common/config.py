"""System configuration.

:class:`SystemConfig` captures the machine model of the paper's Table 1 (the
baseline 16-core CMP of Section 5) plus the TM policy knobs that the
evaluation varies (signature kind/size, log-filter size, sticky states,
coherence style). ``SystemConfig.default()`` reproduces Table 1 exactly.

All latencies are in core cycles at the 5 GHz clock of the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Tuple

from repro.common.errors import ConfigError

#: Hard per-run cycle ceiling: a run exceeding this is a model bug, not a
#: slow workload.
DEFAULT_CYCLE_LIMIT = 500_000_000


class CoherenceStyle(enum.Enum):
    """Which coherence substrate backs conflict detection (Sections 5 & 7)."""

    DIRECTORY = "directory"  # MESI directory at the L2 with sticky states
    SNOOPING = "snooping"    # broadcast snooping with a logically-ORed NACK


class SyncMode(enum.Enum):
    """How critical sections in a workload are executed."""

    LOCKS = "locks"          # test-and-test-and-set spinlocks (baseline)
    TRANSACTIONS = "tm"      # LogTM-SE transactions


class LockImpl(enum.Enum):
    """How the lock baseline implements its mutexes.

    The paper's originals use library mutexes (pthread-style blocking
    locks), which serialize critical sections without coherence ping-pong;
    that is the default. The test-and-test-and-set spinlock runs entirely
    through the simulated memory system and is kept as an ablation of lock
    implementation cost.
    """

    MUTEX = "mutex"  # queued blocking mutex (OS futex model)
    SPIN = "spin"    # test-and-test-and-set through the memory system


class SignatureKind(enum.Enum):
    """Signature implementations from Figure 3 (plus the idealized one)."""

    PERFECT = "perfect"              # exact read/write sets (unimplementable)
    BIT_SELECT = "bs"                # decode low block-address bits (Fig 3a)
    DOUBLE_BIT_SELECT = "dbs"        # decode two fields, AND to test (Fig 3b)
    COARSE_BIT_SELECT = "cbs"        # macroblock-granularity decode (Fig 3c)
    HASHED = "hash"                  # k H3 hashes ("more creative" designs)


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    associativity: int
    block_bytes: int
    latency: int  # uncontended access latency in cycles

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0:
            raise ConfigError("cache size and associativity must be positive")
        if self.block_bytes <= 0 or self.block_bytes & (self.block_bytes - 1):
            raise ConfigError(
                f"block size must be a positive power of two, "
                f"got {self.block_bytes}")
        if self.size_bytes % (self.block_bytes * self.associativity):
            raise ConfigError(
                "cache size must be a whole number of sets "
                f"(size={self.size_bytes}, assoc={self.associativity}, "
                f"block={self.block_bytes})")

    @property
    def num_blocks(self) -> int:
        return self.size_bytes // self.block_bytes

    @property
    def num_sets(self) -> int:
        return self.num_blocks // self.associativity


@dataclass(frozen=True)
class SignatureConfig:
    """One read/write signature pair's implementation parameters."""

    kind: SignatureKind = SignatureKind.PERFECT
    bits: int = 2048           # total filter bits (ignored for PERFECT)
    granularity: int = 64      # bytes summarized per inserted address
    # HASHED: number of independent H3 hash functions.
    hashes: int = 4

    def __post_init__(self) -> None:
        if self.kind is SignatureKind.PERFECT:
            return
        if self.bits <= 0 or self.bits & (self.bits - 1):
            raise ConfigError(
                f"signature bits must be a power of two, got {self.bits}")
        if self.granularity <= 0 or self.granularity & (self.granularity - 1):
            raise ConfigError(
                f"granularity must be a power of two, got {self.granularity}")
        if self.kind is SignatureKind.DOUBLE_BIT_SELECT and self.bits < 4:
            raise ConfigError("DBS needs at least 4 bits (two 2-bit halves)")
        if self.kind is SignatureKind.HASHED and self.hashes < 1:
            raise ConfigError("hashed signatures need at least one hash")

    def describe(self) -> str:
        """Short human-readable name used in benchmark tables."""
        if self.kind is SignatureKind.PERFECT:
            return "Perfect"
        label = {
            SignatureKind.BIT_SELECT: "BS",
            SignatureKind.DOUBLE_BIT_SELECT: "DBS",
            SignatureKind.COARSE_BIT_SELECT: "CBS",
            SignatureKind.HASHED: f"H{self.hashes}",
        }[self.kind]
        if self.bits >= 1024:
            return f"{label}_{self.bits // 1024}Kb"
        return f"{label}_{self.bits}"


@dataclass(frozen=True)
class TMConfig:
    """LogTM-SE policy parameters."""

    signature: SignatureConfig = field(default_factory=SignatureConfig)
    log_filter_entries: int = 32      # recently-logged-block array per thread
    backoff_base: int = 20            # cycles before retrying a NACKed request
    backoff_jitter: int = 12          # uniform extra cycles to avoid lockstep
    abort_handler_cycles: int = 40    # fixed software abort-handler overhead
    abort_cycles_per_entry: int = 4   # additional cycles per undo-log entry
    commit_cycles: int = 2            # local commit (clear sigs, reset log ptr)
    begin_cycles: int = 2             # register checkpoint + log frame setup
    log_store_cycles: int = 2         # appending one undo record
    max_retries_before_abort: int = 500  # starvation relief; 0 = cycles only
    #: Conflict-resolution policy: "timestamp" (LogTM), "polite", or
    #: "aggressive" (see repro.core.policies).
    contention_policy: str = "timestamp"
    #: Version management: "eager" (LogTM-SE: update in place + undo log)
    #: or "lazy" (Bulk-style: per-thread write buffer, commit-time
    #: signature broadcast under a global commit token, committer wins).
    #: The lazy mode exists as the Section 8 comparator; see
    #: repro/core/manager.py for its documented simplifications.
    version_management: str = "eager"
    # Lazy-mode costs.
    commit_token_broadcast_cycles: int = 30  # write-signature broadcast
    writeback_cycles_per_block: int = 4      # applying one buffered block
    use_sticky_states: bool = True
    #: Section 2's address-space-identifier filter on coherence requests:
    #: signatures never NACK another process. Disabling it (ablation)
    #: re-creates the cross-process interference the paper designs away.
    use_asid_filter: bool = True
    #: Original-LogTM mode (Section 8 comparison): read/write sets live in
    #: per-block L1 R/W bits, which cannot be saved or restored — a thread
    #: descheduled mid-transaction must abort. Conflict detection behaves
    #: like perfect signatures (the bits are exact for cached blocks;
    #: sticky states cover overflow as in LogTM).
    classic_logtm: bool = False
    # OS-side costs for virtualization events (Section 4).
    summary_interrupt_cycles: int = 100  # interrupt a context, install summary
    context_switch_cycles: int = 400     # save/restore a thread's state
    # Queued-mutex model costs (LockImpl.MUTEX baseline).
    mutex_acquire_cycles: int = 40       # uncontended atomic + bookkeeping
    mutex_release_cycles: int = 20
    mutex_wakeup_cycles: int = 100       # handoff latency to a blocked waiter

    def __post_init__(self) -> None:
        if self.log_filter_entries < 0:
            raise ConfigError("log_filter_entries must be >= 0")
        if self.backoff_base < 1:
            raise ConfigError("backoff_base must be >= 1")
        if self.version_management not in ("eager", "lazy"):
            raise ConfigError(
                f"version_management must be 'eager' or 'lazy', "
                f"got {self.version_management!r}")

    @property
    def lazy(self) -> bool:
        return self.version_management == "lazy"


@dataclass(frozen=True)
class SystemConfig:
    """Full machine + policy description (Table 1 defaults)."""

    num_cores: int = 16                      # cores per chip
    threads_per_core: int = 2                # 2-way SMT -> 32 contexts
    #: Multiple-CMP system (Section 7): chips connected by a point-to-point
    #: network with a full-map directory at memory. 1 = single-CMP.
    num_chips: int = 1
    interchip_latency: int = 80              # chip-to-chip hop, cycles
    memory_directory_latency: int = 20       # full-map directory at DRAM
    mesh_dims: Tuple[int, int] = (4, 4)      # grid housing cores + L2 banks
    link_latency: int = 3                    # per-hop, cycles
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=32 * 1024, associativity=4, block_bytes=64, latency=1))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=8 * 1024 * 1024, associativity=8, block_bytes=64,
        latency=34))
    l2_banks: int = 16
    directory_latency: int = 6
    memory_latency: int = 500
    memory_bytes: int = 4 * 1024 * 1024 * 1024
    page_bytes: int = 8192
    tlb_entries: int = 64
    tlb_walk_latency: int = 30               # page-table walk on a TLB miss
    coherence: CoherenceStyle = CoherenceStyle.DIRECTORY
    sync: SyncMode = SyncMode.TRANSACTIONS
    lock_impl: LockImpl = LockImpl.MUTEX
    tm: TMConfig = field(default_factory=TMConfig)

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ConfigError("need at least one core")
        if self.num_chips < 1:
            raise ConfigError("need at least one chip")
        if self.num_chips > 1 and self.coherence is CoherenceStyle.SNOOPING:
            # The only multiple-CMP fabric is the two-level directory.
            raise ConfigError("a multiple-CMP system needs directory "
                              "coherence, not snooping")
        if self.threads_per_core < 1:
            raise ConfigError("need at least one thread context per core")
        if self.l1.block_bytes != self.l2.block_bytes:
            raise ConfigError("L1 and L2 must use the same block size")
        if self.l2_banks < 1:
            raise ConfigError("need at least one L2 bank")
        if self.l2.size_bytes % self.l2_banks:
            raise ConfigError("L2 size must divide evenly across banks")
        rows, cols = self.mesh_dims
        if rows * cols < self.num_cores:
            raise ConfigError(
                f"mesh {rows}x{cols} cannot place {self.num_cores} cores")
        if self.page_bytes % self.block_bytes:
            raise ConfigError("page size must be a multiple of the block size")

    @property
    def block_bytes(self) -> int:
        return self.l1.block_bytes

    @property
    def total_cores(self) -> int:
        """Cores across all chips."""
        return self.num_cores * self.num_chips

    @property
    def total_threads(self) -> int:
        return self.total_cores * self.threads_per_core

    @staticmethod
    def multichip(num_chips: int = 4, cores_per_chip: int = 4,
                  threads_per_core: int = 1) -> "SystemConfig":
        """A multiple-CMP system (Section 7): N chips, point-to-point
        interconnect, full-map memory directory."""
        base = SystemConfig.small(num_cores=cores_per_chip,
                                  threads_per_core=threads_per_core)
        return replace(base, num_chips=num_chips)

    @staticmethod
    def default() -> "SystemConfig":
        """The baseline 16-core CMP of Table 1."""
        return SystemConfig()

    @staticmethod
    def small(num_cores: int = 4, threads_per_core: int = 1) -> "SystemConfig":
        """A scaled-down machine for fast unit tests."""
        return SystemConfig(
            num_cores=num_cores,
            threads_per_core=threads_per_core,
            mesh_dims=(2, max(2, (num_cores + 1) // 2)),
            l1=CacheConfig(size_bytes=4 * 1024, associativity=2,
                           block_bytes=64, latency=1),
            l2=CacheConfig(size_bytes=64 * 1024, associativity=4,
                           block_bytes=64, latency=10),
            l2_banks=4,
            memory_latency=100,
            memory_bytes=64 * 1024 * 1024,
        )

    def with_signature(self, kind: SignatureKind, bits: int = 2048,
                       granularity: int = 64) -> "SystemConfig":
        """Copy of this config with a different signature implementation."""
        sig = SignatureConfig(kind=kind, bits=bits, granularity=granularity)
        return replace(self, tm=replace(self.tm, signature=sig))

    def with_sync(self, sync: SyncMode) -> "SystemConfig":
        return replace(self, sync=sync)


#: The six synchronization configurations compared in Figure 4.
def figure4_variants(base: SystemConfig = None):
    """Yield ``(label, config)`` pairs for the Figure 4 comparison."""
    base = base or SystemConfig.default()
    yield "Lock", base.with_sync(SyncMode.LOCKS)
    yield "Perfect", base.with_signature(SignatureKind.PERFECT)
    yield "BS_2Kb", base.with_signature(SignatureKind.BIT_SELECT, bits=2048)
    yield "CBS_2Kb", base.with_signature(
        SignatureKind.COARSE_BIT_SELECT, bits=2048, granularity=1024)
    yield "DBS_2Kb", base.with_signature(
        SignatureKind.DOUBLE_BIT_SELECT, bits=2048)
    yield "BS_64", base.with_signature(SignatureKind.BIT_SELECT, bits=64)
