"""The error contract: typed taxonomy, exit-code ladder, documented codes.

``repro.errors`` maps every ``ReproError`` subclass to a deterministic
CLI exit code through the ``EXIT_CODES`` isinstance ladder, with
``GENERIC_EXIT`` recording the classes that deliberately fall through to
the generic code. :func:`contract_problems` checks the live registry at
runtime — every subclass mapped, no duplicate or shadowed ladder entry,
every code in the CLI's exit-code table — and the two per-file lint
rules keep handlers from swallowing typed errors and raises from
bypassing the taxonomy. The meta-tests seed each decay mode and require
a failure.
"""

import re
import textwrap

import pytest

from repro import cli, errors
from repro.analysis import lint_source
from repro.analysis.rules import RaiseGeneric, SwallowedError
from repro.errors import (EXIT_CONFIG, EXIT_DEGRADED, EXIT_ERROR,
                          EXIT_FAULT, EXIT_FINGERPRINT, EXIT_SCHEDULING,
                          ConfigError, FaultError, RaceConditionError,
                          ReproError, SchedulingError,
                          TraceFingerprintError, WatchdogError,
                          exit_code_for)

RULE_SWALLOWED = SwallowedError.name
RULE_GENERIC = RaiseGeneric.name


def _subclasses(root):
    """Every subclass of ``root`` defined in ``root``'s own package."""
    package = root.__module__.split(".")[0]
    found, frontier = [], [root]
    while frontier:
        for cls in frontier.pop().__subclasses__():
            if cls.__module__.split(".")[0] == package and cls not in found:
                found.append(cls)
                frontier.append(cls)
    return found


def contract_problems(root, ladder, generic, doc=None):
    """Every way the (taxonomy, ladder, allowlist, docs) contract decays."""
    problems = []
    by_code = {}
    for position, (cls, code) in enumerate(ladder):
        if code in by_code:
            problems.append(f"exit code {code} is assigned to both "
                            f"{by_code[code].__name__} and {cls.__name__}")
        by_code.setdefault(code, cls)
        for earlier, _ in ladder[:position]:
            if issubclass(cls, earlier):
                problems.append(
                    f"ladder entry {cls.__name__} can never match: "
                    f"{earlier.__name__} earlier in the ladder catches it")
                break
    specific = {cls for cls, _ in ladder if cls is not root}
    for cls in _subclasses(root):
        lineage = [c for c in cls.__mro__
                   if issubclass(c, root) and c is not root]
        if specific.intersection(lineage) \
                or generic.intersection(c.__name__ for c in lineage):
            continue
        problems.append(f"error class {cls.__name__} maps only to the "
                        "generic catch-all exit code")
    if doc is not None:
        for cls, code in ladder:
            if not re.search(rf"(?<!\d){code}(?!\d)", doc):
                problems.append(f"exit code {code} ({cls.__name__}) is "
                                "missing from the exit-code table")
    return problems


def cli_exit_table(docstring):
    """The exit-code section of a module docstring."""
    section = docstring.split("Exit codes\n==========\n", 1)[1]
    return section.strip().split("\n\n", 1)[0]


def taxonomy(*extra):
    """A fresh fixture taxonomy: root, ConfigError, FaultError, ladder.

    ``extra`` names further subclasses as ``(name, parent name)``.
    """
    root = type("ReproError", (Exception,), {"__module__": __name__})
    classes = {"ReproError": root}
    for name, parent in (("ConfigError", "ReproError"),
                         ("FaultError", "ReproError")) + extra:
        classes[name] = type(name, (classes[parent],),
                             {"__module__": __name__})
    ladder = ((classes["ConfigError"], 2), (classes["FaultError"], 3),
              (root, 1))
    return classes, ladder


def rules_of(findings):
    return {finding.rule for finding in findings}


def file_findings(source):
    return lint_source(textwrap.dedent(source),
                       rules=[SwallowedError(), RaiseGeneric()])


class TestTaxonomyAndLadder:
    def test_project_without_taxonomy_is_ignored(self):
        # without a taxonomy import even `except Exception: pass` is out
        # of scope (plain scripts and unrelated fixtures stay quiet)
        assert file_findings("""
            def load(path):
                try:
                    return open(path).read()
                except Exception:
                    pass
        """) == []

    def test_clean_fixture_has_no_findings(self):
        classes, ladder = taxonomy()
        assert contract_problems(classes["ReproError"], ladder,
                                 frozenset()) == []

    def test_unmapped_subclass_flags(self):
        classes, ladder = taxonomy(("TraceError", "ReproError"))
        problems = contract_problems(classes["ReproError"], ladder,
                                     frozenset())
        assert len(problems) == 1 and "TraceError" in problems[0]

    def test_allowlisted_subclass_is_clean(self):
        classes, ladder = taxonomy(("TraceError", "ReproError"))
        assert contract_problems(classes["ReproError"], ladder,
                                 frozenset({"TraceError"})) == []

    def test_allowlist_covers_descendants(self):
        classes, ladder = taxonomy(("TraceError", "ReproError"),
                                   ("TraceHeaderError", "TraceError"))
        assert contract_problems(classes["ReproError"], ladder,
                                 frozenset({"TraceError"})) == []

    def test_subclass_of_mapped_class_inherits_mapping(self):
        classes, ladder = taxonomy(("FingerprintError", "ConfigError"))
        assert contract_problems(classes["ReproError"], ladder,
                                 frozenset()) == []

    def test_duplicate_code_collides(self):
        classes, _ = taxonomy()
        ladder = ((classes["ConfigError"], 2), (classes["FaultError"], 2),
                  (classes["ReproError"], 1))
        problems = contract_problems(classes["ReproError"], ladder,
                                     frozenset())
        assert len(problems) == 1 and "assigned to both" in problems[0]

    def test_shadowed_entry_collides(self):
        classes, _ = taxonomy()
        ladder = ((classes["ReproError"], 1), (classes["ConfigError"], 2),
                  (classes["FaultError"], 3))
        problems = contract_problems(classes["ReproError"], ladder,
                                     frozenset())
        assert len(problems) == 2
        assert all("can never match" in problem for problem in problems)

    def test_taxonomy_resolves_across_modules(self):
        # a subclass defined in another module of the package still
        # counts: the walk is over the live class hierarchy
        classes, ladder = taxonomy()
        stray = type("ServeError", (classes["ReproError"],),
                     {"__module__": __name__ + "_extra"})
        problems = contract_problems(classes["ReproError"], ladder,
                                     frozenset())
        assert stray.__module__ != classes["ReproError"].__module__
        assert len(problems) == 1 and "ServeError" in problems[0]

    def test_live_registry_is_total_and_documented(self):
        problems = contract_problems(ReproError, errors.EXIT_CODES,
                                     errors.GENERIC_EXIT,
                                     cli_exit_table(cli.__doc__))
        assert problems == []

    def test_live_table_names_every_exit_constant(self):
        table = cli_exit_table(cli.__doc__)
        codes = {value for name, value in vars(errors).items()
                 if name.startswith("EXIT_") and isinstance(value, int)}
        missing = [code for code in sorted(codes)
                   if not re.search(rf"(?<!\d){code}(?!\d)", table)]
        assert missing == []


class TestHandlersAndRaises:
    def test_silently_swallowed_repro_error_flags(self):
        findings = file_findings("""
            from repro.errors import ReproError

            def run(job):
                try:
                    job()
                except ReproError:
                    pass
        """)
        assert rules_of(findings) == {RULE_SWALLOWED}

    def test_bare_exception_swallow_flags(self):
        findings = file_findings("""
            from ..errors import ConfigError

            def run(job):
                try:
                    job()
                except Exception:
                    return None
        """)
        assert rules_of(findings) == {RULE_SWALLOWED}

    def test_handler_that_handles_is_clean(self):
        findings = file_findings("""
            from ..errors import ConfigError

            def run(job, log):
                try:
                    return job(), True
                except ConfigError as exc:
                    log.append(str(exc))
                    return None, False
        """)
        assert findings == []

    def test_handler_that_reraises_is_clean(self):
        findings = file_findings("""
            from repro import errors

            def run(job, cleanup):
                try:
                    return job()
                except errors.ReproError:
                    cleanup()
                    raise
        """)
        assert findings == []

    def test_raise_bare_exception_flags(self):
        findings = file_findings("""
            def explode():
                raise Exception("boom")
        """)
        assert rules_of(findings) == {RULE_GENERIC}

    def test_unrelated_error_swallow_is_not_the_contract(self):
        findings = file_findings("""
            def lookup(table, key):
                try:
                    return table[key]
                except KeyError:
                    return None
        """)
        assert findings == []


class TestDocumentedCodes:
    def test_docstring_missing_a_code_flags(self):
        classes, ladder = taxonomy()
        problems = contract_problems(
            classes["ReproError"], ladder, frozenset(),
            doc="1 library error · 2 bad configuration")
        assert len(problems) == 1 and "exit code 3" in problems[0]

    def test_complete_docstring_is_clean(self):
        classes, ladder = taxonomy()
        assert contract_problems(
            classes["ReproError"], ladder, frozenset(),
            doc="1 library error · 2 bad configuration · 3 fault") == []


# ------------------------------------------------- exit-code registry


class TestExitCodeRegistry:
    def test_every_new_class_maps_deterministically(self):
        assert exit_code_for(FaultError("x")) == EXIT_FAULT == 10
        assert exit_code_for(SchedulingError("x")) == EXIT_SCHEDULING == 11
        assert exit_code_for(WatchdogError("x")) == EXIT_DEGRADED

    def test_specific_entries_win_over_ancestors(self):
        assert exit_code_for(TraceFingerprintError("x")) == EXIT_FINGERPRINT
        assert exit_code_for(ConfigError("x")) == EXIT_CONFIG

    def test_generic_allowlisted_classes_fall_through(self):
        assert exit_code_for(RaceConditionError("x")) == EXIT_ERROR
        assert exit_code_for(ReproError("x")) == EXIT_ERROR

    def test_cli_reexports_the_registry(self):
        assert cli.EXIT_CODES is errors.EXIT_CODES
        assert cli.EXIT_FAULT == errors.EXIT_FAULT

    def test_main_maps_fault_and_scheduling_errors(self, monkeypatch,
                                                   capsys):
        def raise_fault(args):
            raise FaultError("no survivors")

        def raise_scheduling(args):
            raise SchedulingError("stuck pairing")

        monkeypatch.setitem(cli.COMMANDS, "lint", raise_fault)
        assert cli.main(["lint"]) == EXIT_FAULT
        assert "error [FaultError]: no survivors" in capsys.readouterr().err
        monkeypatch.setitem(cli.COMMANDS, "lint", raise_scheduling)
        assert cli.main(["lint"]) == EXIT_SCHEDULING
        assert "[SchedulingError]" in capsys.readouterr().err


# ------------------------------------------------------- seeded mutations


def _live_problems(ladder=None, doc=None):
    return contract_problems(
        ReproError, errors.EXIT_CODES if ladder is None else ladder,
        errors.GENERIC_EXIT,
        cli_exit_table(cli.__doc__ if doc is None else doc))


@pytest.fixture(scope="module")
def daemon_source():
    from repro.serve import daemon
    with open(daemon.__file__) as handle:
        return handle.read()


class TestContractMeta:
    def test_catches_seeded_swallowed_error(self, daemon_source):
        mutated = daemon_source + textwrap.dedent("""

            def _swallow_failures(job):
                try:
                    return job()
                except ReproError:
                    pass
        """)
        assert file_findings(daemon_source) == []
        assert rules_of(file_findings(mutated)) == {RULE_SWALLOWED}

    def test_catches_seeded_unmapped_class(self):
        ladder = tuple(entry for entry in errors.EXIT_CODES
                       if entry[0] is not FaultError)
        assert any("FaultError" in problem
                   for problem in _live_problems(ladder=ladder))

    def test_catches_seeded_code_collision(self):
        ladder = tuple((cls, errors.EXIT_FAULT if cls is SchedulingError
                        else code) for cls, code in errors.EXIT_CODES)
        assert any("assigned to both" in problem
                   for problem in _live_problems(ladder=ladder))

    def test_catches_seeded_generic_raise(self, daemon_source):
        mutated = daemon_source + textwrap.dedent("""

            def _explode():
                raise Exception("boom")
        """)
        assert rules_of(file_findings(mutated)) == {RULE_GENERIC}

    def test_catches_seeded_stale_exit_code_table(self):
        doc = cli.__doc__.replace(
            " · 11 scheduler reached an invalid state", "")
        assert doc != cli.__doc__, "mutation anchor vanished"
        assert any("exit code 11" in problem
                   for problem in _live_problems(doc=doc))
