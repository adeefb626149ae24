"""simlint driver: parse sources, run the rule registry, apply suppressions.

A finding is suppressed by a marker comment *on the offending line*::

    value = random.random()          # simlint: disable=unseeded-rng
    except BaseException:            # simlint: disable=broad-except
    anything_at_all()                # simlint: disable

``disable`` with no rule list suppresses every rule on that line; with a
comma-separated list it suppresses only the named rules. Unknown rule names
in a marker are ignored (they may belong to a newer rule set).

Files that fail to parse yield a single ``syntax-error`` finding rather
than aborting the whole run, so one broken file cannot hide findings in
the rest of the tree.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

#: pseudo-rule reported for unparseable files
SYNTAX_RULE = "syntax-error"

#: finding severities, most severe first (exit-code and --fail-on order)
SEVERITIES = ("error", "warning")

_SUPPRESS_RE = re.compile(r"#\s*simlint:\s*disable(?:\s*=\s*([\w\-,\s]+))?")


@dataclass(frozen=True, order=True)
class Finding:
    """One lint violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = field(default="error", compare=False)

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> Dict[str, object]:
        return {"path": self.path, "line": self.line, "col": self.col,
                "rule": self.rule, "message": self.message,
                "severity": self.severity}


class LintModule:
    """A parsed source file handed to every rule."""

    def __init__(self, path: str, source: str) -> None:
        self.path = str(path)
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=self.path)

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        return Finding(path=self.path, line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0), rule=rule,
                       message=message)


def suppressed_rules(line_text: str) -> Optional[Set[str]]:
    """Rules disabled by a marker on this line.

    Returns ``None`` when there is no marker, an empty set for a bare
    ``disable`` (suppress everything), or the named rules otherwise.
    """
    match = _SUPPRESS_RE.search(line_text)
    if match is None:
        return None
    names = match.group(1)
    if not names:
        return set()
    return {name.strip() for name in names.split(",") if name.strip()}


def _is_suppressed(finding: Finding, lines: Sequence[str]) -> bool:
    if not 0 < finding.line <= len(lines):
        return False
    disabled = suppressed_rules(lines[finding.line - 1])
    if disabled is None:
        return False
    return not disabled or finding.rule in disabled


def lint_source(source: str, path: str = "<memory>",
                rules: Optional[Iterable] = None) -> List[Finding]:
    """Lint one source string; returns surviving findings, sorted."""
    from .rules import default_rules
    try:
        module = LintModule(path, source)
    except SyntaxError as exc:
        return [Finding(path=str(path), line=exc.lineno or 1,
                        col=exc.offset or 0, rule=SYNTAX_RULE,
                        message=f"file does not parse: {exc.msg}")]
    findings: List[Finding] = []
    for rule in (default_rules() if rules is None else rules):
        severity = getattr(rule, "severity", "error")
        findings.extend(
            f if f.severity == severity else replace(f, severity=severity)
            for f in rule.check(module))
    return sorted(f for f in findings
                  if not _is_suppressed(f, module.lines))


def lint_file(path: Union[str, pathlib.Path],
              rules: Optional[Iterable] = None) -> List[Finding]:
    file_path = pathlib.Path(path)
    return lint_source(file_path.read_text(), path=str(file_path),
                       rules=rules)


def lint_paths(paths: Iterable[Union[str, pathlib.Path]],
               rules: Optional[Iterable] = None,
               deep: bool = False,
               scope: Optional[Set[pathlib.Path]] = None) -> List[Finding]:
    """Lint files and/or directory trees (``*.py``, recursively).

    With ``deep=True``, additionally builds a
    :class:`~repro.analysis.flow.Project` over all the paths at once and
    runs the registered project-wide passes (units checker,
    nondeterminism taint, hot-path allocation lint) on top of the
    per-statement rules.

    ``scope`` (a set of *resolved* paths, e.g. from
    :func:`~repro.analysis.scope.changed_scope`) restricts reporting:
    per-statement rules run only on scoped files, and the deep passes —
    which still analyze the whole file set so cross-module flows stay
    visible — report only findings located in scoped files.
    """
    files: List[pathlib.Path] = []
    for path in paths:
        p = pathlib.Path(path)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    seen: Set[pathlib.Path] = set()
    findings: List[Finding] = []
    unique_files: List[pathlib.Path] = []
    for file_path in files:
        resolved = file_path.resolve()
        if resolved in seen:
            continue
        seen.add(resolved)
        unique_files.append(file_path)
        if scope is None or resolved in scope:
            findings.extend(lint_file(file_path, rules=rules))
    if deep:
        deep_findings = lint_project(unique_files)
        if scope is not None:
            scoped_strs = {str(fp) for fp in unique_files
                           if fp.resolve() in scope}
            deep_findings = [f for f in deep_findings
                             if f.path in scoped_strs]
        findings.extend(deep_findings)
    return sorted(findings)


def lint_project(files: Sequence[Union[str, pathlib.Path]],
                 project_rules: Optional[Iterable] = None) -> List[Finding]:
    """Run the project-wide (deep) passes over one set of files.

    The whole file set becomes a single :class:`~repro.analysis.flow.Project`
    so units and taint propagate across module boundaries. Suppression
    markers apply exactly as for per-statement findings.
    """
    from .flow import Project
    project = Project.from_paths([pathlib.Path(p) for p in files])
    return check_project(project, project_rules)


def check_project(project, project_rules: Optional[Iterable] = None
                  ) -> List[Finding]:
    """Run deep passes over an already built
    :class:`~repro.analysis.flow.Project` (default: every registered
    pass), with severities stamped and suppression markers applied."""
    from .rules import default_project_rules
    findings: List[Finding] = []
    for rule in (default_project_rules() if project_rules is None
                 else project_rules):
        severity = getattr(rule, "severity", "error")
        findings.extend(
            f if f.severity == severity else replace(f, severity=severity)
            for f in rule.check_project(project))
    lines_by_path = {module.path: module.lines
                     for module in project.modules.values()}
    return sorted(
        f for f in findings
        if not _is_suppressed(f, lines_by_path.get(f.path, ())))
