"""Tests for the lint rules (:mod:`repro.analysis.lint`)."""

import os
import textwrap

from repro.analysis.engine import lint_paths
from repro.analysis.lint import RULES, SELF_RULES, lint_source


def lint(snippet):
    return lint_source(textwrap.dedent(snippet), path="wl.py")


def rules_of(findings):
    return [f.rule for f in findings]


class TestVR001WriteOutsideAtomic:
    def test_bare_section_with_store_flagged(self):
        findings = lint("""
            def program(self, i, rng):
                yield Section(ops=[Op.store(self.word, 1)])
        """)
        assert rules_of(findings) == ["VR001"]
        assert "lock" in findings[0].fixit

    def test_locked_section_is_clean(self):
        findings = lint("""
            def program(self, i, rng):
                yield Section(ops=[Op.store(self.word, 1)],
                              lock=self.lock)
        """)
        assert findings == []

    def test_explicit_none_lock_counts_as_bare(self):
        findings = lint("""
            def program(self, i, rng):
                yield Section(ops=[Op.incr(self.word)], lock=None)
        """)
        assert rules_of(findings) == ["VR001"]

    def test_read_only_section_is_clean(self):
        findings = lint("""
            def program(self, i, rng):
                yield Section(ops=[Op.load(self.word),
                                   Op.compute(100)])
        """)
        assert findings == []

    def test_write_hidden_in_helper_method_is_found(self):
        findings = lint("""
            class Workload:
                def _phase(self):
                    return [Op.swap(self.word, 0)]

                def program(self, i, rng):
                    yield Section(ops=self._phase())
        """)
        assert rules_of(findings) == ["VR001"]

    def test_write_in_locally_built_list_is_found(self):
        findings = lint("""
            def program(self, i, rng):
                ops = [Op.compute(10)]
                ops.append(Op.store(self.word, 2))
                yield Section(ops=ops)
        """)
        assert rules_of(findings) == ["VR001"]

    def test_helper_without_writes_is_clean(self):
        findings = lint("""
            class Workload:
                def _phase(self):
                    return [Op.load(self.word)]

                def program(self, i, rng):
                    yield Section(ops=self._phase())
        """)
        assert findings == []


class TestVR002UnseededRandomness:
    def test_module_level_random_flagged(self):
        findings = lint("""
            def program(self, i, rng):
                yield Section(ops=[Op.compute(random.randrange(100))],
                              lock=self.lock)
        """)
        assert rules_of(findings) == ["VR002"]
        assert "rng" in findings[0].fixit

    def test_unseeded_random_constructor_flagged(self):
        findings = lint("""
            def __init__(self):
                self.rng = random.Random()
        """)
        assert rules_of(findings) == ["VR002"]

    def test_seeded_constructor_is_clean(self):
        findings = lint("""
            def __init__(self, seed):
                self.rng = random.Random(seed ^ 0x5eed)
        """)
        assert findings == []

    def test_passed_in_rng_is_clean(self):
        findings = lint("""
            def program(self, i, rng):
                yield Section(ops=[Op.compute(rng.randrange(100))],
                              lock=self.lock)
        """)
        assert findings == []


class TestVR003NonYieldingLoop:
    def test_infinite_loop_in_generator_flagged(self):
        findings = lint("""
            def program(self, i, rng):
                yield Section(ops=[], lock=self.lock)
                while True:
                    i += 1
        """)
        assert rules_of(findings) == ["VR003"]

    def test_while_one_also_flagged(self):
        findings = lint("""
            def program(self, i, rng):
                yield 1
                while 1:
                    i += 1
        """)
        assert rules_of(findings) == ["VR003"]

    def test_yielding_loop_is_clean(self):
        findings = lint("""
            def program(self, i, rng):
                while True:
                    yield Section(ops=[], lock=self.lock)
        """)
        assert findings == []

    def test_breaking_loop_is_clean(self):
        findings = lint("""
            def program(self, i, rng):
                yield 1
                while True:
                    if i:
                        break
        """)
        assert findings == []

    def test_non_generator_is_exempt(self):
        findings = lint("""
            def spin(flag):
                while True:
                    pass
        """)
        assert findings == []


class TestVR004WallClock:
    def test_time_time_in_generator_flagged(self):
        findings = lint("""
            def program(self, i, rng):
                start = time.time()
                yield Section(ops=[], lock=self.lock)
        """)
        assert rules_of(findings) == ["VR004"]
        assert "host clock" in findings[0].message

    def test_datetime_now_flagged(self):
        findings = lint("""
            def program(self, i, rng):
                stamp = datetime.datetime.now()
                yield 1
        """)
        assert rules_of(findings) == ["VR004"]

    def test_bare_datetime_module_form_flagged(self):
        findings = lint("""
            def program(self, i, rng):
                stamp = datetime.now()
                yield 1
        """)
        assert rules_of(findings) == ["VR004"]

    def test_perf_counter_flagged(self):
        findings = lint("""
            def program(self, i, rng):
                t0 = time.perf_counter()
                yield 1
        """)
        assert rules_of(findings) == ["VR004"]

    def test_non_generator_is_exempt(self):
        """Timing around a simulation (harness code) is legitimate."""
        findings = lint("""
            def measure(run):
                t0 = time.time()
                run()
                return time.time() - t0
        """)
        assert findings == []

    def test_nested_helper_not_attributed_to_generator(self):
        findings = lint("""
            def program(self, i, rng):
                def fmt():
                    return time.time()
                yield 1
        """)
        assert findings == []  # the nested def is not itself a generator

    def test_time_sleep_is_not_a_clock_read(self):
        findings = lint("""
            def program(self, i, rng):
                time.sleep(0)
                yield 1
        """)
        assert findings == []


class TestVR005SetIteration:
    def test_set_literal_iteration_flagged(self):
        findings = lint("""
            def build(self):
                for b in {1, 2, 3}:
                    self.use(b)
        """)
        assert rules_of(findings) == ["VR005"]
        assert "sorted" in findings[0].fixit

    def test_local_set_name_flagged(self):
        findings = lint("""
            def build(self):
                blocks = set(self.addrs)
                for b in blocks:
                    self.use(b)
        """)
        assert rules_of(findings) == ["VR005"]

    def test_set_algebra_flagged(self):
        findings = lint("""
            def build(self, a, b):
                shared = set(a) & set(b)
                for x in shared:
                    self.use(x)
        """)
        assert rules_of(findings) == ["VR005"]

    def test_dict_keyed_from_set_flagged(self):
        findings = lint("""
            def build(self):
                d = {}
                for b in set(self.addrs):
                    d[b] = 1
                for k in d.keys():
                    self.use(k)
        """)
        assert rules_of(findings) == ["VR005", "VR005"]

    def test_sorted_iteration_is_clean(self):
        findings = lint("""
            def build(self):
                for b in sorted({1, 2, 3}):
                    self.use(b)
        """)
        assert findings == []

    def test_list_iteration_is_clean(self):
        findings = lint("""
            def build(self):
                for b in [1, 2, 3]:
                    self.use(b)
        """)
        assert findings == []

    def test_comprehension_over_set_is_exempt(self):
        """Comprehensions feed order-insensitive reductions."""
        findings = lint("""
            def build(self):
                return max(x for x in {1, 2, 3})
        """)
        assert findings == []


class TestSelfLint:
    def lint_self(self, snippet):
        return lint_source(textwrap.dedent(snippet), path="sim.py",
                           scope="self")

    def test_sr001_unseeded_random(self):
        findings = self.lint_self("""
            def pick(self):
                return random.randrange(4)
        """)
        assert rules_of(findings) == ["SR001"]

    def test_sr001_seeded_random_clean(self):
        findings = self.lint_self("""
            def __init__(self, seed):
                self.rng = random.Random(seed)
        """)
        assert findings == []

    def test_sr002_wallclock_in_process(self):
        findings = self.lint_self("""
            def run(self):
                t0 = time.time()
                yield self.lock.acquire()
        """)
        assert rules_of(findings) == ["SR002"]

    def test_sr002_wallclock_in_plain_function_clean(self):
        """The sweep harness timing wall-clock is legitimate: only
        scheduler-driven generators are held to simulated time."""
        findings = self.lint_self("""
            def run_sweep(variants):
                t0 = time.perf_counter()
                return time.perf_counter() - t0
        """)
        assert findings == []

    def test_sr003_set_iteration_in_process(self):
        findings = self.lint_self("""
            def request(self, targets):
                pending = set(targets)
                for t in pending:
                    yield self.network.send(t)
        """)
        assert rules_of(findings) == ["SR003"]

    def test_sr003_plain_function_exempt(self):
        findings = self.lint_self("""
            def summarize(self, targets):
                out = []
                for t in set(targets):
                    out.append(t)
                return out
        """)
        assert findings == []

    def test_sr_suppression(self):
        findings = self.lint_self("""
            def run(self):
                t0 = time.time()  # lint: disable=SR002
                yield 1
        """)
        assert findings == []

    def test_simulator_source_passes_self_lint(self):
        import repro
        pkg_dir = os.path.dirname(repro.__file__)
        findings = lint_paths([pkg_dir], "self")
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_self_rules_catalog(self):
        assert set(SELF_RULES) == {"SR000", "SR001", "SR002", "SR003"}

    def test_sr000_syntax_error(self):
        findings = self.lint_self("def broken(:\n")
        assert rules_of(findings) == ["SR000"]


class TestVR000AndSuppressions:
    def test_syntax_error_reports_vr000(self):
        findings = lint("def broken(:\n")
        assert rules_of(findings) == ["VR000"]

    def test_suppression_on_same_line(self):
        findings = lint("""
            def program(self, i, rng):
                yield Section(ops=[Op.store(self.word, 1)])  # lint: disable=VR001
        """)
        assert findings == []

    def test_suppression_on_line_above(self):
        findings = lint("""
            def program(self, i, rng):
                # lint: disable=VR001
                yield Section(ops=[Op.store(self.word, 1)])
        """)
        assert findings == []

    def test_bare_disable_suppresses_everything(self):
        findings = lint("""
            def program(self, i, rng):
                # lint: disable
                yield Section(ops=[Op.store(self.w, random.randrange(9))])
        """)
        assert findings == []

    def test_wrong_rule_id_does_not_suppress(self):
        findings = lint("""
            def program(self, i, rng):
                # lint: disable=VR002
                yield Section(ops=[Op.store(self.word, 1)])
        """)
        assert rules_of(findings) == ["VR001"]

    def test_comma_separated_rule_list(self):
        findings = lint("""
            def program(self, i, rng):
                # lint: disable=VR001, VR002
                yield Section(ops=[Op.store(self.w, random.randrange(9))])
        """)
        assert findings == []

    def test_suppression_does_not_reach_past_next_line(self):
        """A disable comment covers its own line and the next — a finding
        two lines down (a wrapped call) stays reported."""
        findings = lint("""
            def program(self, i, rng):
                # lint: disable=VR002
                yield Section(ops=[Op.load(self.w),
                                   Op.compute(random.randrange(9))],
                              lock=self.l)
        """)
        assert rules_of(findings) == ["VR002"]


class TestEntryPoints:
    def test_rules_catalog_is_complete(self):
        assert set(RULES) == {"VR000", "VR001", "VR002", "VR003",
                              "VR004", "VR005"}

    def test_lint_paths_walks_directories(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text(
            "def p(self, i, rng):\n"
            "    yield Section(ops=[Op.incr(self.w)])\n")
        (pkg / "good.py").write_text(
            "def p(self, i, rng):\n"
            "    yield Section(ops=[Op.incr(self.w)], lock=self.l)\n")
        (pkg / "notes.txt").write_text("not python\n")
        findings = lint_paths([str(tmp_path)])
        assert rules_of(findings) == ["VR001"]
        assert findings[0].path.endswith("bad.py")

    def test_lint_file_reads_from_disk(self, tmp_path):
        target = tmp_path / "wl.py"
        target.write_text("x = random.Random()\n")
        findings = lint_paths([str(target)])
        assert rules_of(findings) == ["VR002"]

    def test_bundled_workloads_pass_the_linter(self):
        import repro.workloads as workloads
        pkg_dir = os.path.dirname(workloads.__file__)
        findings = lint_paths([pkg_dir])
        assert findings == [], "\n".join(str(f) for f in findings)
