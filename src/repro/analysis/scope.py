"""Change-scoped linting: ``repro lint --changed [REF]``.

As the tree grows, the deep passes (units, taint, hot-alloc) stay
whole-program — they must, to follow values across modules — but
*reporting* can be scoped to what a change can actually affect. This
module computes that scope:

1. ask git for the files touched since ``merge-base REF HEAD`` (staged,
   unstaged, and untracked alike), intersected with the linted file set;
2. expand with reverse dependencies — every module that (transitively)
   imports a changed module, computed from the project's import tables,
   which over-approximates the reverse call graph at module granularity;
3. per-statement rules run only on scoped files, and deep passes still
   analyze the full project but report only findings located in scoped
   files.

A lint run with ``--changed`` therefore never *misses* a cross-module
regression whose symptom lands in a changed-or-dependent file, while
skipping the noise (and per-file rule time) of everything the change
cannot reach.
"""

from __future__ import annotations

import pathlib
import subprocess
from typing import Dict, Iterable, List, Optional, Set

from ..errors import ConfigError
from .flow import Project, _expand


def git_changed_files(ref: str,
                      cwd: pathlib.Path) -> Set[pathlib.Path]:
    """Absolute paths of files touched since ``merge-base ref HEAD``.

    Includes committed-on-branch, staged, unstaged, and untracked files.
    Raises :class:`~repro.errors.ConfigError` when ``cwd`` is not inside
    a git checkout or ``ref`` does not resolve.
    """
    root = _git(["rev-parse", "--show-toplevel"], cwd,
                f"--changed requires a git checkout (looked from {cwd})")
    top = pathlib.Path(root.strip())
    base = _git(["merge-base", ref, "HEAD"], cwd,
                f"--changed: cannot resolve merge-base of '{ref}' "
                "and HEAD").strip()
    changed: Set[pathlib.Path] = set()
    diff = _git(["diff", "--name-only", "-z", base, "--"], cwd,
                f"--changed: git diff against {base[:12]} failed")
    untracked = _git(["ls-files", "--others", "--exclude-standard",
                      "--full-name", "-z"],
                     cwd, "--changed: git ls-files failed")
    for blob in (diff, untracked):
        for name in blob.split("\0"):
            if name:
                changed.add((top / name).resolve())
    return changed


def _git(args: List[str], cwd: pathlib.Path, error: str) -> str:
    try:
        proc = subprocess.run(
            ["git"] + args, cwd=str(cwd), check=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = ""
        if isinstance(exc, subprocess.CalledProcessError) and exc.stderr:
            detail = f": {exc.stderr.decode(errors='replace').strip()}"
        raise ConfigError(f"{error}{detail}")
    return proc.stdout.decode(errors="replace")


def expand_with_dependents(project: Project,
                           changed: Set[pathlib.Path]
                           ) -> Set[pathlib.Path]:
    """Changed files plus every project file that imports them,
    transitively (module-granularity reverse dependency closure)."""
    path_to_module: Dict[pathlib.Path, str] = {}
    module_to_path: Dict[str, pathlib.Path] = {}
    for name, module in project.modules.items():
        resolved = pathlib.Path(module.path).resolve()
        path_to_module[resolved] = name
        module_to_path[name] = resolved
    dependents: Dict[str, Set[str]] = {name: set()
                                       for name in project.modules}
    names = set(project.modules)
    for name, table in project.imports.items():
        # star re-exports (`from X import *`) carry no member entries,
        # but changing X still invalidates this module and everything
        # importing through it — chase them like flow.py does
        targets = list(table.modules.values()) + \
            list(table.members.values()) + list(table.stars)
        for target in targets:
            owner = _owning_module(target, names)
            if owner is not None and owner != name:
                dependents[owner].add(name)
    scope = {path for path in changed if path in path_to_module}
    frontier = [path_to_module[path] for path in sorted(scope)]
    seen = set(frontier)
    while frontier:
        module = frontier.pop()
        for dependent in sorted(dependents.get(module, ())):
            if dependent not in seen:
                seen.add(dependent)
                frontier.append(dependent)
        # a changed module also invalidates its package __init__ re-exports
        package = module.rsplit(".", 1)[0] if "." in module else None
        if package in names and package not in seen:
            seen.add(package)
            frontier.append(package)
    scope.update(module_to_path[name] for name in seen)
    return scope


def _owning_module(target: str, names: Set[str]) -> Optional[str]:
    """Longest project-module prefix of a canonical dotted symbol."""
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        prefix = ".".join(parts[:cut])
        if prefix in names:
            return prefix
    return None


def changed_scope(paths: Iterable[pathlib.Path],
                  ref: str) -> Set[pathlib.Path]:
    """Resolved file paths to report on for ``lint --changed REF``.

    Empty set means nothing in ``paths`` changed since the merge base
    (the caller can skip linting entirely).
    """
    files = _expand([pathlib.Path(p) for p in paths])
    if not files:
        return set()
    anchor = pathlib.Path(files[0]).resolve()
    cwd = anchor if anchor.is_dir() else anchor.parent
    changed = git_changed_files(ref, cwd)
    lintable = {pathlib.Path(f).resolve() for f in files}
    touched = changed & lintable
    if not touched:
        return set()
    project = Project.from_paths(files)
    return expand_with_dependents(project, touched) & lintable
