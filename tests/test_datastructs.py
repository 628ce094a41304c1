"""Serializability tests on data-structure workloads.

The strongest whole-system checks in the suite: a concurrent sorted
linked list and a transfer ledger must end in states consistent with
*some* serial order, under every signature implementation, contention
policy, and coherence fabric.
"""

from dataclasses import replace

import pytest

from repro.common.config import (CoherenceStyle, SignatureKind, SyncMode,
                                 SystemConfig)
from repro.harness.runner import run_workload
from repro.workloads.datastructs import BankTransfer, LinkedListSet


def check_list(result, workload):
    system = result.system
    pt = system.page_table(0)
    keys = workload.walk(system, pt)
    assert keys == sorted(keys), "list must stay sorted"
    assert len(keys) == len(set(keys)), "no duplicate keys"
    must_have, ambiguous = workload.expected_membership()
    key_set = set(keys)
    for key in must_have:
        assert key in key_set, f"inserted-only key {key} missing"
    for key in key_set:
        assert key <= workload.key_space, "foreign key in list"
    # Keys with both inserts and deletes may legally be in or out; every
    # other key's fate is fixed.
    for key in key_set - set(must_have):
        assert key in ambiguous, f"key {key} should have been deleted"


class TestLinkedListSet:
    @pytest.mark.parametrize("kind,bits", [
        (SignatureKind.PERFECT, 2048),
        (SignatureKind.BIT_SELECT, 64),
        (SignatureKind.DOUBLE_BIT_SELECT, 256),
        (SignatureKind.COARSE_BIT_SELECT, 128),
        (SignatureKind.HASHED, 256),
    ], ids=["perfect", "bs64", "dbs256", "cbs128", "hash256"])
    def test_membership_under_every_signature(self, kind, bits):
        cfg = SystemConfig.small(num_cores=4, threads_per_core=1)
        cfg = cfg.with_signature(kind, bits=bits)
        wl = LinkedListSet(num_threads=4, units_per_thread=6, seed=2)
        result = run_workload(cfg, wl, keep_system=True)
        check_list(result, wl)

    def test_membership_under_locks(self):
        cfg = SystemConfig.small(num_cores=4, threads_per_core=1)
        cfg = cfg.with_sync(SyncMode.LOCKS)
        wl = LinkedListSet(num_threads=4, units_per_thread=6, seed=2)
        result = run_workload(cfg, wl, keep_system=True)
        check_list(result, wl)

    @pytest.mark.parametrize("policy", ["timestamp", "polite", "aggressive"])
    def test_membership_under_every_policy(self, policy):
        cfg = SystemConfig.small(num_cores=4, threads_per_core=1)
        cfg = replace(cfg, tm=replace(cfg.tm, contention_policy=policy))
        wl = LinkedListSet(num_threads=4, units_per_thread=6, seed=5)
        result = run_workload(cfg, wl, keep_system=True)
        check_list(result, wl)

    def test_membership_on_multichip(self):
        cfg = SystemConfig.multichip(num_chips=2, cores_per_chip=2)
        wl = LinkedListSet(num_threads=4, units_per_thread=5, seed=7)
        result = run_workload(cfg, wl, keep_system=True)
        check_list(result, wl)

    def test_insert_only_exact_union(self):
        cfg = SystemConfig.small(num_cores=4, threads_per_core=2)
        wl = LinkedListSet(num_threads=8, units_per_thread=5,
                           delete_fraction=0.0, seed=9)
        result = run_workload(cfg, wl, keep_system=True)
        keys = wl.walk(result.system, result.system.page_table(0))
        expected, ambiguous = wl.expected_membership()
        assert not ambiguous
        assert keys == list(expected), "final list = sorted union of keys"

    def test_retries_retraverse(self):
        """Aborted list transactions must re-read the (changed) list; the
        run above already proves it indirectly — here we check aborts
        actually happened so the property was exercised."""
        cfg = SystemConfig.small(num_cores=4, threads_per_core=2)
        wl = LinkedListSet(num_threads=8, units_per_thread=8,
                           delete_fraction=0.3, seed=11, compute_between=10)
        wl.start_skew = 0
        result = run_workload(cfg, wl, keep_system=True)
        check_list(result, wl)
        assert result.aborts + result.stalls > 0, "contention expected"


class TestBankTransfer:
    @pytest.mark.parametrize("kind,bits", [
        (SignatureKind.PERFECT, 2048),
        (SignatureKind.BIT_SELECT, 32),
        (SignatureKind.HASHED, 128),
    ], ids=["perfect", "bs32", "hash128"])
    def test_balance_conserved(self, kind, bits):
        cfg = SystemConfig.small(num_cores=4, threads_per_core=2)
        cfg = cfg.with_signature(kind, bits=bits)
        wl = BankTransfer(num_threads=8, units_per_thread=8, seed=3)
        result = run_workload(cfg, wl, keep_system=True)
        total = wl.total_balance(result.system, result.system.page_table(0))
        assert total == 0, "transfers must conserve total balance"
        assert result.commits == 64

    def test_balance_conserved_under_snooping(self):
        cfg = SystemConfig.small(num_cores=4, threads_per_core=1)
        cfg = replace(cfg, coherence=CoherenceStyle.SNOOPING)
        wl = BankTransfer(num_threads=4, units_per_thread=8, seed=4)
        result = run_workload(cfg, wl, keep_system=True)
        assert wl.total_balance(result.system,
                                result.system.page_table(0)) == 0

    def test_balance_conserved_under_locks(self):
        cfg = SystemConfig.small(num_cores=4, threads_per_core=1)
        cfg = cfg.with_sync(SyncMode.LOCKS)
        wl = BankTransfer(num_threads=4, units_per_thread=8, seed=4)
        result = run_workload(cfg, wl, keep_system=True)
        assert wl.total_balance(result.system,
                                result.system.page_table(0)) == 0

    def test_money_moved(self):
        """Sanity: the invariant is not vacuous — accounts were touched."""
        cfg = SystemConfig.small(num_cores=2, threads_per_core=1)
        wl = BankTransfer(num_threads=2, units_per_thread=10, seed=5)
        result = run_workload(cfg, wl, keep_system=True)
        balances = [result.system.memory.load(
            result.system.page_table(0).translate(a)) for a in wl.accounts]
        assert any(b != 0 for b in balances)


class TestHashTable:
    from repro.workloads.datastructs import HashTable  # noqa: F401

    def _check(self, result, wl):
        from repro.workloads.datastructs import HashTable
        table = wl.read_table(result.system, result.system.page_table(0))
        assert table == wl.expected_counts(), (
            "every committed put must be counted exactly once")

    @pytest.mark.parametrize("kind,bits", [
        (SignatureKind.PERFECT, 2048),
        (SignatureKind.BIT_SELECT, 64),
        (SignatureKind.HASHED, 128),
    ], ids=["perfect", "bs64", "hash128"])
    def test_counts_exact(self, kind, bits):
        from repro.workloads.datastructs import HashTable
        cfg = SystemConfig.small(num_cores=4, threads_per_core=2)
        cfg = cfg.with_signature(kind, bits=bits)
        wl = HashTable(num_threads=8, units_per_thread=6, seed=6)
        result = run_workload(cfg, wl, keep_system=True)
        self._check(result, wl)
        assert result.commits == 48

    def test_counts_exact_under_locks(self):
        from repro.workloads.datastructs import HashTable
        cfg = SystemConfig.small(num_cores=4, threads_per_core=1)
        cfg = cfg.with_sync(SyncMode.LOCKS)
        wl = HashTable(num_threads=4, units_per_thread=6, seed=6)
        result = run_workload(cfg, wl, keep_system=True)
        self._check(result, wl)

    def test_contention_produces_retries_yet_exact(self):
        from repro.workloads.datastructs import HashTable
        cfg = SystemConfig.small(num_cores=4, threads_per_core=2)
        wl = HashTable(num_threads=8, units_per_thread=10, num_buckets=2,
                       key_space=6, seed=8, compute_between=10)
        wl.start_skew = 0
        result = run_workload(cfg, wl, keep_system=True)
        self._check(result, wl)
        assert result.aborts + result.stalls > 0

    def test_multichip_hash_table(self):
        from repro.workloads.datastructs import HashTable
        cfg = SystemConfig.multichip(num_chips=2, cores_per_chip=2)
        wl = HashTable(num_threads=4, units_per_thread=5, seed=9)
        result = run_workload(cfg, wl, keep_system=True)
        self._check(result, wl)
