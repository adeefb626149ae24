"""simlint rules, suppressions, reporters, CLI, and the race sanitizer.

Structure mirrors the package: one fixture snippet per lint rule (a
positive case the rule must flag and a suppressed/idiomatic case it must
not), then crafted sim processes whose same-cycle accesses the sanitizer
must flag — and a clean production run it must not.

The meta-test at the bottom is the repo's own gate: ``src/repro`` stays
lint-clean forever, or this suite fails.
"""

import json
import pathlib
import textwrap

import pytest

import repro
from repro.analysis import (ACCESS_ARBITRATED, ACCESS_READ, ACCESS_WRITE,
                            CONFLICT_RW, CONFLICT_WW, RULES, RaceSanitizer,
                            default_rules, lint_paths, lint_source,
                            render_json, render_text)
from repro.analysis.simlint import SYNTAX_RULE, suppressed_rules
from repro.cli import main
from repro.errors import RaceConditionError, ReproError, SimulationError
from repro.harness import make_setup, run
from repro.sim import Simulator
from repro.traces import load_benchmark


def lint(snippet):
    return lint_source(textwrap.dedent(snippet))


def rules_hit(snippet):
    return {f.rule for f in lint(snippet)}


# ---------------------------------------------------------------- lint rules


class TestUnseededRNG:
    def test_flags_global_random(self):
        findings = lint("""\
            import random
            x = random.random()
        """)
        assert [f.rule for f in findings] == ["unseeded-rng"]
        assert findings[0].line == 2

    def test_flags_aliased_numpy_global(self):
        assert rules_hit("""\
            import numpy as np
            np.random.shuffle([1, 2])
        """) == {"unseeded-rng"}

    def test_flags_from_import(self):
        assert rules_hit("""\
            from random import randint
            roll = randint(1, 6)
        """) == {"unseeded-rng"}

    def test_allows_seeded_instances(self):
        assert rules_hit("""\
            import random
            import numpy as np
            rng = random.Random(7)
            gen = np.random.default_rng(7)
            x = rng.random() + gen.random()
        """) == set()

    def test_unrelated_module_not_flagged(self):
        # a local object that happens to be called `random` is not the
        # stdlib module
        assert rules_hit("""\
            random = make_generator()
            x = random.random()
        """) == set()


class TestWallClock:
    def test_flags_time_time(self):
        assert rules_hit("""\
            import time
            t = time.time()
        """) == {"wall-clock"}

    def test_flags_datetime_now(self):
        assert rules_hit("""\
            import datetime
            stamp = datetime.datetime.now()
        """) == {"wall-clock"}
        assert rules_hit("""\
            from datetime import datetime
            stamp = datetime.now()
        """) == {"wall-clock"}

    def test_allows_monotonic_and_sim_now(self):
        assert rules_hit("""\
            import time
            start = time.monotonic()
            elapsed = time.perf_counter() - start
            cycle = sim.now
        """) == set()


class TestUnorderedIter:
    def test_flags_for_over_set_literal(self):
        assert rules_hit("""\
            for gpu in {3, 1, 2}:
                schedule(gpu)
        """) == {"unordered-iter"}

    def test_flags_list_of_set_call(self):
        assert rules_hit("""\
            order = list(set(pending))
        """) == {"unordered-iter"}

    def test_flags_comprehension_over_set_union(self):
        assert rules_hit("""\
            sends = [g for g in ready | waiting_set()]
        """) == set()  # neither side provably a set
        assert rules_hit("""\
            sends = [g for g in set(ready) | waiting]
        """) == {"unordered-iter"}

    def test_sorted_is_the_fix(self):
        assert rules_hit("""\
            for gpu in sorted({3, 1, 2}):
                schedule(gpu)
        """) == set()

    def test_flags_set_comprehension_into_key_fields(self):
        # hashing unordered fields would scramble store addresses
        assert rules_hit("""\
            fields = list({d.draw_id for d in draws})
        """) == {"unordered-iter"}
        assert rules_hit("""\
            fields = sorted({d.draw_id for d in draws})
        """) == set()

    def test_list_followed_by_sort_is_the_other_fix(self):
        # materialize-then-sort establishes an order before anyone iterates
        assert rules_hit("""\
            items = list(set(pending))
            items.sort()
        """) == set()
        assert rules_hit("""\
            def drain(pending, extra):
                order = list(set(pending) | extra)
                order.sort(key=str)
                return order
        """) == set()

    def test_sort_in_another_scope_does_not_exempt(self):
        # the .sort() must happen in the same scope as the list(...) call
        assert rules_hit("""\
            def build(pending):
                return list(set(pending))

            def elsewhere(items):
                items.sort()
        """) == {"unordered-iter"}

    def test_plain_list_of_set_still_flags(self):
        assert rules_hit("""\
            items = list(set(pending))
            use(items)
        """) == {"unordered-iter"}


class TestMutableDefault:
    def test_flags_list_and_dict_defaults(self):
        assert rules_hit("""\
            def enqueue(job, queue=[]):
                queue.append(job)
        """) == {"mutable-default"}
        assert rules_hit("""\
            def tally(counts=dict(), *, seen=set()):
                pass
        """) == {"mutable-default"}

    def test_allows_none_default(self):
        assert rules_hit("""\
            def enqueue(job, queue=None):
                queue = queue if queue is not None else []
        """) == set()


class TestYieldNonEvent:
    def test_flags_literal_yield_in_sim_process(self):
        findings = lint("""\
            def transfer(sim):
                yield sim.timeout(10)
                yield 10
        """)
        assert [f.rule for f in findings] == ["yield-non-event"]
        assert findings[0].line == 3

    def test_flags_bare_yield(self):
        assert rules_hit("""\
            def worker(self):
                yield self.sim.timeout(1)
                yield
        """) == {"yield-non-event"}

    def test_plain_generators_exempt(self):
        # no sim interaction: an ordinary data generator may yield anything
        assert rules_hit("""\
            def numbers():
                yield 1
                yield 2
        """) == set()

    def test_event_yields_clean(self):
        assert rules_hit("""\
            def transfer(sim, port):
                req = port.request()
                yield req
                yield sim.timeout(5)
                yield sim.all_of([req])
        """) == set()


class TestBroadExcept:
    def test_flags_bare_except(self):
        assert rules_hit("""\
            try:
                step()
            except:
                pass
        """) == {"broad-except"}

    def test_flags_base_exception_without_reraise(self):
        assert rules_hit("""\
            try:
                step()
            except BaseException as exc:
                log(exc)
        """) == {"broad-except"}

    def test_reraising_handler_is_clean(self):
        assert rules_hit("""\
            try:
                step()
            except BaseException as exc:
                log(exc)
                raise
        """) == set()

    def test_except_exception_is_fine(self):
        assert rules_hit("""\
            try:
                step()
            except Exception:
                pass
        """) == set()


class TestSuppressions:
    def test_named_suppression(self):
        assert rules_hit("""\
            import random
            x = random.random()  # simlint: disable=unseeded-rng
        """) == set()

    def test_bare_disable_suppresses_everything(self):
        assert rules_hit("""\
            import time
            t = time.time()  # simlint: disable
        """) == set()

    def test_suppressing_the_wrong_rule_keeps_the_finding(self):
        assert rules_hit("""\
            import time
            t = time.time()  # simlint: disable=unseeded-rng
        """) == {"wall-clock"}

    def test_marker_parsing(self):
        assert suppressed_rules("x = 1") is None
        assert suppressed_rules("x  # simlint: disable") == set()
        assert suppressed_rules(
            "x  # simlint: disable=a-rule, other") == {"a-rule", "other"}


class TestDriverAndReporters:
    def test_syntax_error_is_one_finding(self):
        findings = lint_source("def broken(:\n")
        assert [f.rule for f in findings] == [SYNTAX_RULE]

    def test_registry_and_default_rules_agree(self):
        names = [r.name for r in default_rules()]
        assert names == sorted(RULES)
        assert len(names) == len(set(names))

    def test_render_text_mentions_rule_and_location(self):
        findings = lint_source("import time\nt = time.time()\n",
                               path="snippet.py")
        text = render_text(findings)
        assert "snippet.py:2" in text
        assert "wall-clock" in text
        assert render_text([]).startswith("simlint: clean")

    def test_render_json_round_trips(self):
        findings = lint_source("import time\nt = time.time()\n")
        doc = json.loads(render_json(findings))
        assert doc["version"] == 1
        assert doc["count"] == 1
        assert doc["findings"][0]["rule"] == "wall-clock"

    def test_lint_paths_deduplicates(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        findings = lint_paths([bad, tmp_path])
        assert len(findings) == 1


# ------------------------------------------------------------ race sanitizer


def _writer(sim, region, at, kind=ACCESS_WRITE):
    yield sim.timeout(at)
    sim.record_access(region, kind)


class TestRaceSanitizer:
    def test_same_cycle_write_write_names_both_processes(self):
        sim = Simulator(sanitize=True)
        sim.process(_writer(sim, "fb:region0", 5), name="gpu0-compose")
        sim.process(_writer(sim, "fb:region0", 5), name="gpu1-compose")
        sim.run()
        conflicts = sim.sanitizer.conflicts
        assert len(conflicts) == 1
        c = conflicts[0]
        assert c.kind == CONFLICT_WW
        assert c.resource == "fb:region0"
        assert c.cycle == 5
        assert c.processes == ("gpu0-compose", "gpu1-compose")
        report = sim.sanitizer.render_report()
        assert "gpu0-compose" in report and "gpu1-compose" in report
        assert "cycle 5" in report

    def test_read_write_conflict(self):
        sim = Simulator(sanitize=True)
        sim.process(_writer(sim, "fb:r", 3, ACCESS_READ), name="reader")
        sim.process(_writer(sim, "fb:r", 3, ACCESS_WRITE), name="writer")
        sim.run()
        kinds = {c.kind for c in sim.sanitizer.conflicts}
        assert kinds == {CONFLICT_RW}

    def test_different_cycles_do_not_conflict(self):
        sim = Simulator(sanitize=True)
        sim.process(_writer(sim, "fb:r", 5), name="gpu0")
        sim.process(_writer(sim, "fb:r", 6), name="gpu1")
        sim.run()
        assert not sim.sanitizer.has_conflicts
        assert sim.sanitizer.accesses_recorded == 2

    def test_same_process_may_rewrite(self):
        def twice(sim):
            yield sim.timeout(5)
            sim.record_access("fb:r", ACCESS_WRITE)
            sim.record_access("fb:r", ACCESS_WRITE)
        sim = Simulator(sanitize=True)
        sim.process(twice(sim), name="gpu0")
        sim.run()
        assert not sim.sanitizer.has_conflicts

    def test_arbitrated_accesses_exempt(self):
        sim = Simulator(sanitize=True)
        sim.process(_writer(sim, "store:q", 5, ACCESS_ARBITRATED), name="a")
        sim.process(_writer(sim, "store:q", 5, ACCESS_ARBITRATED), name="b")
        sim.run()
        assert not sim.sanitizer.has_conflicts
        assert sim.sanitizer.accesses_recorded == 2

    def test_raise_if_conflicts(self):
        san = RaceSanitizer()
        san.record("fb:r", ACCESS_WRITE, "p0", 1.0)
        san.record("fb:r", ACCESS_WRITE, "p1", 1.0)
        with pytest.raises(RaceConditionError) as err:
            san.raise_if_conflicts()
        assert isinstance(err.value, SimulationError)
        assert "p0" in str(err.value) and "p1" in str(err.value)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RaceSanitizer().record("r", "scribble", "p", 0.0)

    def test_off_by_default(self):
        sim = Simulator()
        assert sim.sanitizer is None
        sim.record_access("fb:r")  # no-op, must not blow up

    def test_main_attribution_outside_processes(self):
        sim = Simulator(sanitize=True)
        sim.record_access("fb:r", ACCESS_WRITE)
        sim.record_access("fb:r", ACCESS_WRITE)
        assert not sim.sanitizer.has_conflicts  # both attributed to <main>


class TestSanitizedRuns:
    def test_smoke_run_is_clean_and_timing_identical(self):
        trace = load_benchmark("cod2", "tiny")
        plain = run("chopin+sched", trace, make_setup("tiny", num_gpus=4))
        sane = run("chopin+sched", trace,
                   make_setup("tiny", num_gpus=4, sanitize=True))
        assert sane.frame_cycles == plain.frame_cycles

    def test_make_setup_threads_the_flag(self):
        setup = make_setup("tiny", sanitize=True)
        assert setup.config.sanitize is True
        assert ("sanitize", True) in setup.origin
        assert make_setup("tiny").config.sanitize is False

    def test_resource_traffic_recorded_under_sanitizer(self):
        trace = load_benchmark("cod2", "tiny")
        setup = make_setup("tiny", num_gpus=2, sanitize=True)
        from repro.harness import build_scheme
        scheme = build_scheme("chopin+sched", setup)
        sim = scheme._make_sim()
        assert sim.sanitizer is not None
        result = scheme.run(trace)
        assert result.frame_cycles > 0


class TestSanitizerCoverage:
    """``RunStats.sanitizer_accesses`` records how much the sanitizer saw."""

    def test_sanitized_run_records_accesses(self):
        trace = load_benchmark("cod2", "tiny")
        sane = run("chopin+sched", trace,
                   make_setup("tiny", num_gpus=4, sanitize=True))
        plain = run("chopin+sched", trace, make_setup("tiny", num_gpus=4))
        assert sane.stats.sanitizer_accesses > 0
        assert plain.stats.sanitizer_accesses == 0

    def test_roundtrips_through_journal_snapshot(self):
        from repro.stats import RunStats
        stats = RunStats(num_gpus=2, frame_cycles=10.0)
        stats.sanitizer_accesses = 123
        restored = RunStats.from_dict(stats.to_dict())
        assert restored.sanitizer_accesses == 123
        # journals written before the field existed load as zero
        old = stats.to_dict()
        del old["sanitizer_accesses"]
        assert RunStats.from_dict(old).sanitizer_accesses == 0

    def test_exported_in_engine_summary_and_csv(self, tmp_path):
        import csv

        from repro.harness.export import result_row, write_csv
        from repro.harness.runner import run_benchmark
        from repro.stats import RunStats
        assert "sanitizer_accesses" in RunStats(num_gpus=1).summary("engine")
        setup = make_setup("tiny", num_gpus=2, sanitize=True)
        result = run_benchmark("chopin", "cod2", setup)
        row = result_row(result, setup, result.frame_cycles)
        assert row["sanitizer_accesses"] > 0
        out = tmp_path / "rows.csv"
        write_csv([row], out)
        with open(out, newline="") as handle:
            loaded = list(csv.DictReader(handle))
        assert int(loaded[0]["sanitizer_accesses"]) > 0


# ------------------------------------------------------------------- the CLI


class TestLintCLI:
    def test_exit_zero_on_clean_file(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main(["lint", str(clean)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_nonzero_with_rule_and_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "unseeded-rng" in out
        assert f"{bad}:2" in out

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main(["lint", "--format", "json", str(bad)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 1

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in RULES:
            assert name in out

    def test_render_accepts_sanitize_flag(self, capsys):
        assert main(["render", "cod2", "--gpus", "2",
                     "--scheme", "duplication", "--sanitize"]) == 0
        assert "frame time" in capsys.readouterr().out

    def test_nonexistent_path_is_a_config_error(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert main(["lint", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "does not exist" in err

    def test_accepts_files_and_directories_mixed(self, tmp_path, capsys):
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / "a.py").write_text("import random\nx = random.random()\n")
        lone = tmp_path / "b.py"
        lone.write_text("import time\nt = time.time()\n")
        assert main(["lint", str(sub), str(lone)]) == 1
        out = capsys.readouterr().out
        assert "unseeded-rng" in out and "wall-clock" in out

    def test_default_path_is_the_installed_package(self, capsys):
        # with no paths, lint covers src/repro itself — which must be clean
        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_list_rules_includes_deep_rules_and_severity(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in ("unit-mismatch", "unit-return", "unit-arg",
                     "nondet-taint"):
            assert name in out
        assert "[deep/" in out and "[stmt/" in out
        assert "warning" in out and "error" in out

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "--help"])
        out = capsys.readouterr().out
        assert "exit code" in out.lower()


class TestSeverity:
    def test_statement_rules_are_stamped(self):
        findings = lint_source("def f(x=[]):\n    return x\n")
        assert [f.severity for f in findings] == ["warning"]
        findings = lint_source("import random\nx = random.random()\n")
        assert [f.severity for f in findings] == ["error"]

    def test_text_report_shows_severity_and_tally(self):
        findings = lint_source(
            "import random\n"
            "def f(x=[]):\n"
            "    return random.random()\n")
        text = render_text(findings)
        assert ": warning: mutable-default:" in text
        assert ": error: unseeded-rng:" in text
        assert "(1 error, 1 warning)" in text

    def test_severity_survives_json(self):
        findings = lint_source("def f(x=[]):\n    return x\n")
        doc = json.loads(render_json(findings))
        assert doc["findings"][0]["severity"] == "warning"


# ------------------------------------------- engine exception classification


class TestEngineClassification:
    def test_library_error_is_a_failed_cell(self, monkeypatch):
        from repro.harness import engine as engine_module
        from repro.harness.engine import Engine, JobSpec

        def boom(spec, in_process=True):
            raise SimulationError("deterministic wedge")

        monkeypatch.setattr(engine_module, "execute_spec", boom)
        eng = Engine(jobs=1, retries=0)
        outcome = eng.run_job(JobSpec(kind="ok", params={}))
        assert outcome.status == "failed"
        assert outcome.error == "SimulationError"

    def test_programming_error_propagates(self, monkeypatch):
        from repro.harness import engine as engine_module
        from repro.harness.engine import Engine, JobSpec

        def boom(spec, in_process=True):
            raise ValueError("a bug, not a job property")

        monkeypatch.setattr(engine_module, "execute_spec", boom)
        eng = Engine(jobs=1, retries=0)
        with pytest.raises(ValueError):
            eng.run_job(JobSpec(kind="ok", params={}))

    def test_keyboard_interrupt_propagates(self, monkeypatch):
        from repro.harness import engine as engine_module
        from repro.harness.engine import Engine, JobSpec

        def interrupted(spec, in_process=True):
            raise KeyboardInterrupt

        monkeypatch.setattr(engine_module, "execute_spec", interrupted)
        eng = Engine(jobs=1, retries=0)
        with pytest.raises(KeyboardInterrupt):
            eng.run_job(JobSpec(kind="ok", params={}))


# ------------------------------------------------------------- the meta-test


def test_src_repro_is_lint_clean():
    package_root = pathlib.Path(repro.__file__).parent
    findings = lint_paths([package_root])
    assert findings == [], render_text(findings)


class TestServeWallClock:
    """Inside repro.serve even *monotonic* host-clock reads are banned."""

    @staticmethod
    def serve_rules_hit(snippet, path="src/repro/serve/daemon.py"):
        return {f.rule
                for f in lint_source(textwrap.dedent(snippet), path=path)}

    def test_monotonic_flagged_inside_serve(self):
        assert self.serve_rules_hit("""\
            import time
            start = time.monotonic()
        """) == {"wall-clock"}

    def test_sleep_and_perf_counter_flagged_inside_serve(self):
        assert self.serve_rules_hit("""\
            import time
            time.sleep(0.1)
            t = time.perf_counter()
        """) == {"wall-clock"}

    def test_monotonic_still_allowed_elsewhere(self):
        snippet = """\
            import time
            start = time.monotonic()
        """
        assert self.serve_rules_hit(
            snippet, path="src/repro/harness/engine.py") == set()
        # a module merely named 'server' outside the package is exempt too
        assert self.serve_rules_hit(
            snippet, path="src/observer/daemon.py") == set()

    def test_wall_clock_proper_still_flagged_everywhere(self):
        assert self.serve_rules_hit("""\
            import time
            t = time.time()
        """, path="src/repro/harness/engine.py") == {"wall-clock"}

    def test_sim_now_is_the_blessed_clock(self):
        assert self.serve_rules_hit("""\
            cycle = sim.now
            yield sim.timeout(10.0)
        """) == set()
