"""Per-fragment allocation lint (deep pass ``hot-alloc``).

Flags container/array allocation or closure creation on a per-fragment
/ per-pixel path in ``raster/``, ``shading/`` or
``composition/operators.py``: non-empty list/dict/set literals,
``list()``/``dict()``/``set()``/``tuple()`` calls, lambdas and nested
``def``\\ s, and numpy constructors with all-constant arguments
(``np.zeros(4)`` rebuilt per call). A function counts as hot when it is
reachable from ``fragment_phase`` or called from a ``for``/``while``
body anywhere in the project; comprehensions are flagged only when
lexically inside a loop (a result-sized comprehension at function top
level is the function's output, not a per-pixel temporary).
Empty-container accumulators are exempt. Findings are warnings: an
allocation is a cost, not a wrong result, and no runtime check sees it.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from .flow import FunctionInfo, Project, dotted_chain
from .rules import ProjectRule, register_project
from .simlint import Finding

RULE_HOT_ALLOC = "hot-alloc"


def _in_hot_scope(path: str) -> bool:
    """Whether a module's functions sit on the per-fragment/per-pixel path."""
    posix = "/" + path.replace("\\", "/")
    return ("/raster/" in posix or "/shading/" in posix
            or posix.endswith("/composition/operators.py"))


_NP_CONSTRUCTORS = frozenset({"array", "zeros", "ones", "empty", "full",
                              "eye", "arange"})
_CONTAINER_BUILTINS = frozenset({"list", "dict", "set", "tuple"})


class HotAllocChecker:
    """Flags per-fragment-path allocations in the raster/shading tier."""

    severity = "warning"

    def __init__(self, project: Project) -> None:
        self.project = project
        self.findings: List[Finding] = []

    def run(self) -> List[Finding]:
        scope_fns = {qn: fn for qn, fn in self.project.functions.items()
                     if _in_hot_scope(fn.module.path)}
        if not scope_fns:
            return []
        hot = self._hot_set(scope_fns)
        for qualname in sorted(scope_fns):
            fn = scope_fns[qualname]
            self._scan(fn, fn.node, in_loop=False,
                       whole_hot=qualname in hot,
                       reason=hot.get(qualname, ""))
        return sorted(self.findings)

    def _hot_set(self, scope_fns: Dict[str, FunctionInfo]
                 ) -> Dict[str, str]:
        hot: Dict[str, str] = {}
        graph = self.project.call_graph()
        roots = sorted(qn for qn, fn in self.project.functions.items()
                       if fn.name == "fragment_phase")
        seen: Set[str] = set()
        frontier = list(roots)
        while frontier:
            qualname = frontier.pop()
            if qualname in seen:
                continue
            seen.add(qualname)
            if qualname in scope_fns and qualname not in hot:
                hot[qualname] = "reachable from fragment_phase"
            frontier.extend(sorted(graph.get(qualname, ())))
        for qualname in sorted(self.project.functions):
            fn = self.project.functions[qualname]
            for call in self._loop_calls(fn.node):
                callee = self.project.resolve_call(fn, call)
                if callee is not None and callee.qualname in scope_fns:
                    hot.setdefault(
                        callee.qualname,
                        f"called per-iteration from {fn.name}()")
        return hot

    def _loop_calls(self, func: ast.AST) -> Iterator[ast.Call]:
        for node in ast.walk(func):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                for stmt in node.body:
                    for sub in ast.walk(stmt):
                        if isinstance(sub, ast.Call):
                            yield sub

    def _scan(self, fn: FunctionInfo, node: ast.AST, in_loop: bool,
              whole_hot: bool, reason: str) -> None:
        for child in ast.iter_child_nodes(node):
            child_in_loop = in_loop
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)) \
                    and child in node.body + node.orelse:
                child_in_loop = True
            self._check_node(fn, child, child_in_loop, whole_hot, reason)
            self._scan(fn, child, child_in_loop, whole_hot, reason)

    def _check_node(self, fn: FunctionInfo, node: ast.AST, in_loop: bool,
                    whole_hot: bool, reason: str) -> None:
        hot_here = in_loop or whole_hot
        why = "inside a loop body" if in_loop else reason
        label: Optional[str] = None
        # outside a loop body, a container literal is only worth flagging
        # when its contents are constant — i.e. actually hoistable
        if isinstance(node, (ast.List, ast.Set)) and node.elts and hot_here \
                and (in_loop or all(_is_constant(e) for e in node.elts)):
            label = "list literal" if isinstance(node, ast.List) \
                else "set literal"
        elif isinstance(node, ast.Dict) and node.keys and hot_here \
                and (in_loop or all(_is_constant(v)
                                    for v in node.keys + node.values
                                    if v is not None)):
            label = "dict literal"
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)) and in_loop:
            label = "comprehension"
            why = "inside a loop body"
        elif isinstance(node, ast.Lambda) and hot_here:
            label = "closure (lambda)"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node is not fn.node and hot_here:
            label = f"closure (nested def {node.name})"
        elif isinstance(node, ast.Call) and hot_here:
            label = self._alloc_call(fn, node)
        if label is None:
            return
        self.findings.append(Finding(
            path=fn.module.path,
            line=getattr(node, "lineno", fn.node.lineno),
            col=getattr(node, "col_offset", 0), rule=RULE_HOT_ALLOC,
            message=f"{label} allocated per call in {fn.name}() "
                    f"({why}); hoist the temporary out of the "
                    f"per-fragment path"))

    def _alloc_call(self, fn: FunctionInfo,
                    call: ast.Call) -> Optional[str]:
        chain = dotted_chain(call.func)
        if chain is None:
            return None
        if len(chain) == 1 and chain[0] in _CONTAINER_BUILTINS:
            return f"{chain[0]}() call"
        if chain[-1] not in _NP_CONSTRUCTORS or len(chain) < 2:
            return None
        table = self.project.imports.get(fn.module_name)
        canon = table.modules.get(chain[0]) if table else None
        if canon is None or canon.split(".")[0] != "numpy":
            return None
        if not all(_is_constant(arg) for arg in call.args):
            return None
        for keyword in call.keywords:
            if keyword.arg != "dtype" and not _is_constant(keyword.value):
                return None
        return f"constant np.{chain[-1]}(...) array"


def _is_constant(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Tuple):
        return all(_is_constant(elt) for elt in node.elts)
    if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.USub, ast.UAdd)):
        return _is_constant(node.operand)
    return False



# ------------------------------------------------------------ registration


@register_project
class HotAllocPass(ProjectRule):
    """Deep pass wrapper for the per-fragment allocation lint."""

    name = RULE_HOT_ALLOC
    description = ("container/array allocation or closure creation on a "
                   "per-fragment/per-pixel path (raster/, shading/, "
                   "composition operators)")
    severity = "warning"

    def check_project(self, project: Project) -> Iterator[Finding]:
        return iter(HotAllocChecker(project).run())
