"""Static and dynamic determinism analysis for the simulator.

Two halves, both guarding the same invariant — that a simulation run is a
pure function of its inputs and seeds (which is what makes sweep resume,
fail-stop recovery, and every speedup figure trustworthy):

- **simlint** (:mod:`repro.analysis.simlint`, :mod:`repro.analysis.rules`) —
  an AST-based lint over Python sources with simulator-specific rules:
  unseeded global RNG use, wall-clock reads, iteration over unordered sets,
  mutable default arguments, sim processes yielding non-Event values,
  broad exception handlers that can swallow ``GeneratorExit``, and two
  error-contract rules (a silently swallowed library error, a raise of
  bare ``Exception``). ``python -m repro lint`` drives
  it; ``# simlint: disable=<rule>`` suppresses a finding on its line.

- **race sanitizer** (:mod:`repro.analysis.sanitizer`) — opt-in runtime
  instrumentation of the DES kernel (``Simulator(sanitize=True)``, CLI
  ``--sanitize``) that records per-cycle read/write sets on shared
  resources and flags same-cycle write-write and read-write conflicts
  between distinct processes.

The **deep** layer (``python -m repro lint --deep``) adds the
project-wide passes no runtime check can replace, on a shared symbol
table / call graph (:mod:`repro.analysis.flow`): a units/dimension
checker for the timing model (:mod:`repro.analysis.units`), a
nondeterminism taint pass (:mod:`repro.analysis.taint`) and a
per-fragment allocation lint (:mod:`repro.analysis.hotalloc`). A JSON
baseline workflow (:mod:`repro.analysis.baseline`) supports incremental
adoption and ``--changed`` scoping (:mod:`repro.analysis.scope`) keeps
the deep pass fast on large trees.

Properties once policed by other deep passes now hold at runtime or by
construction: artifact-store keys are derived from a compute function's
inputs (``RenderService.memo``), the exit-code ladder is checked by a
test over the live taxonomy, and the DES kernel's drain watchdog turns a
leaked port hold or a lock-order deadlock into a typed error.
"""

from .baseline import (filter_baselined, finding_key, load_baseline,
                       save_baseline)
from .flow import ClassInfo, FunctionInfo, Project
from .hotalloc import HotAllocChecker
from .rules import (PROJECT_RULES, RULES, ProjectRule, Rule,
                    all_rule_descriptions, default_project_rules,
                    default_rules, register, register_project)
from .sanitizer import (ACCESS_ARBITRATED, ACCESS_READ, ACCESS_WRITE,
                        CONFLICT_RW, CONFLICT_WW, Conflict, RaceSanitizer)
from .simlint import (SEVERITIES, Finding, lint_file, lint_paths,
                      lint_project, lint_source)
from .reporters import render_json, render_text
from .scope import changed_scope, expand_with_dependents
from .taint import TaintChecker
from .units import UnitChecker, format_unit, parse_unit

__all__ = [
    "ACCESS_ARBITRATED",
    "ACCESS_READ",
    "ACCESS_WRITE",
    "CONFLICT_RW",
    "CONFLICT_WW",
    "ClassInfo",
    "Conflict",
    "Finding",
    "FunctionInfo",
    "HotAllocChecker",
    "PROJECT_RULES",
    "Project",
    "ProjectRule",
    "RULES",
    "RaceSanitizer",
    "Rule",
    "SEVERITIES",
    "TaintChecker",
    "UnitChecker",
    "all_rule_descriptions",
    "changed_scope",
    "default_project_rules",
    "expand_with_dependents",
    "default_rules",
    "filter_baselined",
    "finding_key",
    "format_unit",
    "lint_file",
    "lint_paths",
    "lint_project",
    "lint_source",
    "load_baseline",
    "parse_unit",
    "register",
    "register_project",
    "render_json",
    "render_text",
    "save_baseline",
]
