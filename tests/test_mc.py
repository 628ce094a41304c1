"""Tests for the bounded model checker (:mod:`repro.mc`).

Three layers:

* model mechanics — encode/decode round-trips, deterministic action
  enumeration, symmetry canonicalization;
* clean exploration — each fabric explores to a small cap with zero
  invariant violations, and the cap is exact;
* counterexamples — a conviction's shortest counterexample replays
  deterministically, carries its steps' events and dumps to JSON.

Every pinned count, and which invariant convicts each (mutation,
fabric) pair at what depth, is a row of :mod:`repro.mc.matrix`
(``tests/test_mc_matrix.py``).
"""

import dataclasses
import json

import pytest

from repro.common.config import ConfigError, SignatureKind
from repro.mc import (Counterexample, ModelConfig, ProtocolModel,
                      action_from_dict, action_to_dict, check, replay)
from repro.mc.state import canonical_key, state_remaps, symmetry_maps


def explore_a_little(model, script):
    for action in script:
        model.apply(action)


def key(model):
    """The model's current state in canonical form."""
    remaps = state_remaps(model.layout, symmetry_maps(model.mcfg))
    return canonical_key(model.encode(), remaps)


class TestModelMechanics:
    def test_encode_decode_round_trip(self):
        mcfg = ModelConfig(fabric="directory")
        model = ProtocolModel(mcfg)
        explore_a_little(model, [
            ("begin", 0), ("read", 0, 0), ("write", 0, 1),
            ("begin", 1), ("read", 1, 0)])
        raw = model.encode()
        # Mutate away, then restore: encoding must round-trip exactly.
        model.apply(("commit", 0))
        model.apply(("write", 1, 1))
        assert model.encode() != raw
        model.decode(raw)
        assert model.encode() == raw

    def test_round_trip_after_abort(self):
        mcfg = ModelConfig(fabric="directory")
        model = ProtocolModel(mcfg)
        explore_a_little(model, [("begin", 0), ("write", 0, 0)])
        raw = model.encode()
        model.apply(("abort", 0))
        model.decode(raw)
        assert model.encode() == raw
        # The restored transaction can still abort cleanly (its undo log
        # was rebuilt by decode).
        model.apply(("abort", 0))

    def test_actions_are_deterministic(self):
        mcfg = ModelConfig(fabric="snooping")
        a = ProtocolModel(mcfg)
        b = ProtocolModel(mcfg)
        script = [("begin", 0), ("read", 0, 1), ("write", 0, 1)]
        explore_a_little(a, script)
        explore_a_little(b, script)
        assert a.actions() == b.actions()
        assert a.encode() == b.encode()

    def test_action_dict_round_trip(self):
        mcfg = ModelConfig(fabric="directory")
        model = ProtocolModel(mcfg)
        for action in model.actions():
            assert action_from_dict(action_to_dict(action)) == action

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(fabric="tokenring")
        with pytest.raises(ConfigError):
            ModelConfig(cores=5)
        with pytest.raises(ConfigError):
            ModelConfig(blocks=0)
        # A summary line names an inexact register's width, so rows
        # that differ only in it print differently.
        one_bit = ModelConfig(signature=SignatureKind.BIT_SELECT,
                              signature_bits=1)
        assert one_bit.describe() == "directory 2c/2b/1ctx bs/1"
        assert dataclasses.replace(one_bit, signature_bits=64).describe() \
            == "directory 2c/2b/1ctx bs/64"
        assert ModelConfig().describe() == "directory 2c/2b/1ctx perfect"

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ConfigError):
            ProtocolModel(ModelConfig(mutation="bogus"))

    def test_sticky_discharge_needs_a_directory(self):
        # The snooping fabric has no sticky states to over-discharge.
        with pytest.raises(ConfigError):
            ProtocolModel(ModelConfig(fabric="snooping",
                                      mutation="sticky-discharge"))


class TestSymmetry:
    def test_core_relabeling_canonicalizes(self):
        """t0 reading B0 and t1 reading B1 are the same state up to
        core x block relabeling."""
        mcfg = ModelConfig(fabric="directory")
        a = ProtocolModel(mcfg)
        explore_a_little(a, [("begin", 0), ("read", 0, 0)])
        b = ProtocolModel(mcfg)
        explore_a_little(b, [("begin", 1), ("read", 1, 1)])
        assert a.encode() != b.encode()
        assert key(a) == key(b)

    def test_asymmetric_states_stay_distinct(self):
        mcfg = ModelConfig(fabric="directory")
        a = ProtocolModel(mcfg)
        explore_a_little(a, [("begin", 0), ("read", 0, 0)])
        b = ProtocolModel(mcfg)
        explore_a_little(b, [("begin", 0), ("write", 0, 0)])
        assert key(a) != key(b)

    def test_symmetry_shrinks_the_state_count(self):
        whole = check(ModelConfig(fabric="directory"), state_cap=400)
        assert whole.clean
        # Same exploration without merging symmetric states would need
        # more than 400 states to cover the same depth; with reduction
        # the canonical count at a given depth is strictly smaller than
        # the raw reachable count. Spot-check the reduction exists: the
        # initial state's orbit has size 1, but a one-step state's orbit
        # (4 core x block relabelings) collapses 2 raw variants of
        # "some thread began" into one canonical state.
        mcfg = ModelConfig(fabric="directory")
        keys = set()
        for tid in (0, 1):
            model = ProtocolModel(mcfg)
            model.apply(("begin", tid))
            keys.add(key(model))
        assert len(keys) == 1


class TestCleanExploration:
    def test_directory_clean(self):
        result = check(ModelConfig(fabric="directory"), state_cap=2000)
        assert result.clean, result.summary()
        assert result.states == 2000  # cap is exact, not overshot
        assert not result.fixed_point
        assert result.depth >= 4

    def test_snooping_clean(self):
        result = check(ModelConfig(fabric="snooping"), state_cap=1500)
        assert result.clean, result.summary()

    def test_multichip_clean(self):
        result = check(ModelConfig(fabric="multichip"), state_cap=250)
        assert result.clean, result.summary()

    def test_smt_false_positive_nacks_reach_the_contention_manager(self):
        """A 1-bit bit-select register aliases both blocks, so a sibling
        NACKs accesses it never touched. Each NACK of a transactional
        access goes to the core's contention manager, which stalls."""
        fp_stalls = []

        def observer(model, action, events, before, after):
            fp_stalls.extend(fields for kind, fields in events
                             if kind == "tm.stall" and fields["fp"])

        result = check(ModelConfig(fabric="directory", cores=1,
                                   contexts_per_core=2, blocks=2,
                                   signature=SignatureKind.BIT_SELECT,
                                   signature_bits=1),
                       state_cap=500, observer=observer)
        assert result.clean, result.summary()
        assert fp_stalls

    def test_result_serialization(self):
        result = check(ModelConfig(fabric="directory"), state_cap=50)
        data = result.to_dict()
        assert data["clean"] is True
        assert data["states"] == 50
        assert data["config"]["fabric"] == "directory"
        json.dumps(data)  # JSON-serializable end to end


class TestSummarySignature:
    """Accesses run the core's step (1): a summary signature (the union
    of descheduled transactions' sets) traps a transactional access and
    stalls a plain one."""

    @staticmethod
    def model_with_summary_on_b0():
        model = ProtocolModel(ModelConfig(fabric="directory"))
        slot = model.slots[0]
        assert slot.summary is None  # no register until the OS installs one
        model.manager._install_summary(slot, 0, exclude_tid=0)
        slot.summary.write.insert(model.block_addrs[0])
        return model

    def test_summary_conflict_aborts_the_transaction(self):
        model = self.model_with_summary_on_b0()
        model.apply(("begin", 0))
        model.apply(("read", 0, 0))
        assert not model.contexts[0].in_tx
        assert model.stats.value("tm.summary_conflicts") == 1

    def test_summary_conflict_stalls_a_plain_read(self):
        model = self.model_with_summary_on_b0()
        before = model.encode()
        model.apply(("read", 0, 0))
        assert model.encode() == before
        assert model.stats.value("tm.summary_conflicts") == 1


def convict(fabric, mutation, state_cap):
    result = check(ModelConfig(fabric=fabric, mutation=mutation),
                   state_cap=state_cap)
    assert not result.clean, \
        f"{fabric}/{mutation} escaped conviction: {result.summary()}"
    assert isinstance(result.counterexample, Counterexample)
    return result


class TestMutationConvictions:
    """A conviction's counterexample must replay to the claimed
    violation."""

    def test_counterexample_replays_deterministically(self):
        result = convict("directory", "sticky-discharge", state_cap=1000)
        cx = result.counterexample
        path = cx.path()
        # Replay on a fresh (mutated) model lands in a concrete state —
        # and does so identically twice.
        mcfg = ModelConfig(fabric="directory",
                           mutation="sticky-discharge")
        a = replay(mcfg, path)
        b = replay(mcfg, path)
        assert a.encode() == b.encode()

    def test_counterexample_steps_carry_events(self):
        result = convict("snooping", "no-scrub", state_cap=500)
        cx = result.counterexample
        kinds = {e["kind"] for step in cx.steps for e in step.events}
        assert "os.frame_reuse" in kinds
        text = cx.render()
        assert "frame-tenancy" in text
        assert "reuse B" in text

    def test_counterexample_dump(self, tmp_path):
        result = convict("directory", "no-scrub", state_cap=500)
        out = tmp_path / "cx.json"
        result.counterexample.dump(str(out))
        data = json.loads(out.read_text())
        assert data["invariant"] == "frame-tenancy"
        assert data["length"] == len(data["steps"])
        rebuilt = [action_from_dict(s["action"]) for s in data["steps"]]
        assert rebuilt == result.counterexample.path()


class TestProtocolRegressions:
    """The two latent bugs the checker itself found: both were selective
    sticky-retention violations, and both fixes must hold under
    exhaustive search of the paths that exposed them."""

    def test_directory_broadcast_rebuild_retains_coverage(self):
        """Regression: a broadcast rebuild after L2 victimization used to
        discharge compatible covering signatures entirely (and grant E),
        making a standing read set invisible to later writes. The fix
        converts covering cores to sticky; the 4-step trace that exposed
        it must now stay clean, along with everything else at that
        depth."""
        model = ProtocolModel(ModelConfig(fabric="directory"))
        model.apply(("begin", 0))
        model.apply(("read", 0, 0))
        model.apply(("l2_evict", 0, 0))
        model.apply(("read", 1, 0))
        entry = model.fabric._entry(model.block_addrs[0])
        assert 0 in entry.sticky
        from repro.mc.invariants import violated_invariant
        assert violated_invariant(model) is None

    @pytest.mark.parametrize("mcfg, path", [
        # begin t0; read t0 B0; write t0 B1; begin t2;
        # l2_evict chip0 B0; read t2 B0; write t2 B0
        (ModelConfig(fabric="multichip"),
         [("begin", 0), ("read", 0, 0), ("write", 0, 1), ("begin", 2),
          ("l2_evict", 0, 0), ("read", 2, 0), ("write", 2, 0)]),
        # begin t0; begin t3; read t3 B0; l2_evict chip1 B0;
        # read t0 B0; write t0 B0
        (ModelConfig(fabric="multichip", cores=1, contexts_per_core=2,
                     blocks=1),
         [("begin", 0), ("begin", 3), ("read", 3, 0), ("l2_evict", 1, 0),
          ("read", 0, 0), ("write", 0, 0)]),
    ], ids=["2x2-cores", "2x1-core-2-contexts"])
    def test_multichip_read_past_a_covering_sticky_chip_is_shared(
            self, mcfg, path):
        """Regression: a remote GETS that found no owner or sharer chip
        was granted chip rights M past a sticky chip whose read set
        still covered the block, so the silent E->M upgrade that
        followed wrote under that read set. The requester's chip now
        gets S; both traces the checker found stay clean."""
        from repro.mc.invariants import violated_invariant
        model = ProtocolModel(mcfg)
        for step, action in enumerate(path):
            model.apply(action)
            assert violated_invariant(model) is None, (step, action)
            if action[0] == "read" and step == len(path) - 2:
                reader_chip = model.fabric.chip_of(
                    model.slots[action[1]].core.core_id)
                block = model.block_addrs[action[2]]
                assert model.fabric.chip_entry_view(
                    reader_chip, block).rights == "S"
                assert reader_chip in \
                    model.fabric.mem_entry_view(block).sharer_chips

    def test_multichip_chip_victimization_retains_coverage(self):
        """Regression: chip-level L2 victimization used to clear per-core
        sticky pointers, leaving only the memory-level sticky-M — which
        intra-chip sibling requests never consult."""
        model = ProtocolModel(ModelConfig(fabric="multichip"))
        model.apply(("begin", 0))
        model.apply(("read", 0, 0))
        model.apply(("l2_evict", 0, 0))
        from repro.mc.invariants import violated_invariant
        assert violated_invariant(model) is None
