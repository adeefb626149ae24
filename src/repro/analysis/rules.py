"""The simlint rule registry and the simulator-specific rules.

Every rule is a class with a unique ``name`` (the id used in reports and
``# simlint: disable=<name>`` markers), a one-line ``description``, and a
``check(module)`` generator yielding :class:`~repro.analysis.simlint.Finding`
objects. Third-party rules plug in with :func:`register`::

    @register
    class NoPrint(Rule):
        name = "no-print"
        description = "print() in library code"
        def check(self, module):
            for node in ast.walk(module.tree):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "print"):
                    yield module.finding(node, self.name, "print() call")

The built-in rules target the determinism hazards of a discrete-event
simulator: anything that makes two runs of the same seed diverge (global
RNG, wall clock, unordered iteration) and anything that silently corrupts
the kernel's control flow (non-Event yields, handlers that swallow the
``GeneratorExit`` a closed generator receives). Two more keep failures on
the typed error contract (:mod:`repro.errors`): a handler must not
silently swallow a library error, and a raise must not bypass the
taxonomy with a bare ``Exception``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Type

from .simlint import Finding, LintModule

RULES: Dict[str, Type["Rule"]] = {}
PROJECT_RULES: Dict[str, Type["ProjectRule"]] = {}


def register(cls: Type["Rule"]) -> Type["Rule"]:
    """Add a rule class to the registry (keyed by ``cls.name``)."""
    if not cls.name:
        raise ValueError("a lint rule needs a non-empty name")
    RULES[cls.name] = cls
    return cls


def register_project(cls: Type["ProjectRule"]) -> Type["ProjectRule"]:
    """Add a project-wide (deep) pass to the registry."""
    if not cls.name:
        raise ValueError("a lint rule needs a non-empty name")
    PROJECT_RULES[cls.name] = cls
    return cls


def default_rules() -> List["Rule"]:
    """Fresh instances of every registered rule, in name order."""
    return [RULES[name]() for name in sorted(RULES)]


def default_project_rules() -> List["ProjectRule"]:
    """Fresh instances of every registered deep pass, in name order."""
    # importing the pass modules is what registers them
    from . import hotalloc, taint, units  # noqa: F401
    return [PROJECT_RULES[name]() for name in sorted(PROJECT_RULES)]


def all_rule_descriptions() -> Dict[str, "RuleMeta"]:
    """id -> (description, severity, deep?) for every finding id that can
    appear in a report, including the extra ids of multi-rule passes."""
    out: Dict[str, RuleMeta] = {}
    for name in sorted(RULES):
        cls = RULES[name]
        out[name] = RuleMeta(cls.description, cls.severity, False)
    from . import hotalloc, taint, units  # noqa: F401 - registration
    for name in sorted(PROJECT_RULES):
        cls = PROJECT_RULES[name]
        out[name] = RuleMeta(cls.description, cls.severity, True)
        for extra, description in sorted(cls.extra_rules.items()):
            out[extra] = RuleMeta(description, cls.severity, True)
    return out


class RuleMeta:
    """Display record for ``--list-rules``."""

    def __init__(self, description: str, severity: str, deep: bool) -> None:
        self.description = description
        self.severity = severity
        self.deep = deep


class Rule:
    """Base class for per-statement lint rules."""

    name = ""
    description = ""
    severity = "error"

    def check(self, module: LintModule) -> Iterator[Finding]:
        raise NotImplementedError


class ProjectRule:
    """Base class for project-wide (deep) passes.

    A deep pass sees the whole :class:`~repro.analysis.flow.Project` at
    once instead of one module, so it can follow values across calls. A
    single pass may emit findings under several ids (``name`` plus the
    keys of ``extra_rules``); all share the pass severity and work with
    ``# simlint: disable=<id>`` markers as usual.
    """

    name = ""
    description = ""
    severity = "error"
    #: additional finding ids this pass emits: id -> description
    extra_rules: Dict[str, str] = {}

    def check_project(self, project) -> Iterator[Finding]:
        raise NotImplementedError


def _dotted(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` attribute chain as ``["a", "b", "c"]`` (None otherwise)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


class _AliasMap:
    """Resolves local names back to the canonical modules they import."""

    def __init__(self, tree: ast.AST) -> None:
        self.modules: Dict[str, str] = {}   # local name -> module path
        self.members: Dict[str, str] = {}   # local name -> module.member
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name.split(".")[0]] \
                        = alias.name if alias.asname else \
                        alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.members[local] = f"{node.module}.{alias.name}"

    def canonical(self, chain: List[str]) -> Optional[str]:
        """Canonical dotted path for an attribute chain, if importable."""
        head = chain[0]
        if head in self.modules:
            return ".".join([self.modules[head]] + chain[1:])
        if head in self.members:
            return ".".join([self.members[head]] + chain[1:])
        return None


#: ``random`` module functions that mutate the hidden process-global state
RANDOM_GLOBAL_FNS = frozenset({
    "betavariate", "binomialvariate", "choice", "choices", "expovariate",
    "gammavariate", "gauss", "getrandbits", "getstate", "lognormvariate",
    "normalvariate", "paretovariate", "randbytes", "randint", "random",
    "randrange", "sample", "seed", "setstate", "shuffle", "triangular",
    "uniform", "vonmisesvariate", "weibullvariate",
})

#: ``numpy.random`` module functions backed by the hidden global RandomState
NUMPY_GLOBAL_FNS = frozenset({
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "gamma", "geometric", "get_state", "gumbel",
    "hypergeometric", "laplace", "logistic", "lognormal", "logseries",
    "multinomial", "multivariate_normal", "negative_binomial", "normal",
    "pareto", "permutation", "poisson", "power", "rand", "randint",
    "randn", "random", "random_integers", "random_sample", "ranf",
    "rayleigh", "sample", "seed", "set_state", "shuffle",
    "standard_cauchy", "standard_exponential", "standard_gamma",
    "standard_normal", "standard_t", "triangular", "uniform", "vonmises",
    "wald", "weibull", "zipf",
})


@register
class UnseededRNG(Rule):
    """Global-state RNG calls make runs depend on import and call order
    (and on every other caller of the shared stream). The deterministic
    idiom is an explicit seeded instance: ``random.Random(seed)`` or
    ``numpy.random.default_rng(seed)``."""

    name = "unseeded-rng"
    description = ("call to the process-global RNG; use a seeded "
                   "random.Random / np.random.default_rng instance")

    def check(self, module: LintModule) -> Iterator[Finding]:
        aliases = _AliasMap(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted(node.func)
            if chain is None:
                continue
            canon = aliases.canonical(chain)
            if canon is None:
                continue
            parts = canon.split(".")
            hit = (
                (len(parts) == 2 and parts[0] == "random"
                 and parts[1] in RANDOM_GLOBAL_FNS)
                or (len(parts) == 3 and parts[0] == "numpy"
                    and parts[1] == "random"
                    and parts[2] in NUMPY_GLOBAL_FNS)
            )
            if hit:
                yield module.finding(
                    node, self.name,
                    f"`{canon}()` draws from the process-global RNG; "
                    f"thread an explicit seeded generator instead")


#: wall-clock reads; monotonic/perf_counter (elapsed time) stay legal
TIME_WALL_FNS = frozenset({"asctime", "ctime", "gmtime", "localtime",
                           "time", "time_ns"})
DATETIME_WALL_FNS = frozenset({"now", "today", "utcnow"})
#: additionally banned inside the serve package: the daemon is a pure
#: virtual-time system, so even "harmless" elapsed-time reads (monotonic,
#: perf_counter) and real sleeps are design violations there
SERVE_TIME_FNS = frozenset({"monotonic", "monotonic_ns", "perf_counter",
                            "perf_counter_ns", "process_time",
                            "process_time_ns", "sleep"})


def _in_serve_package(path: str) -> bool:
    posix = path.replace("\\", "/")
    return "/repro/serve/" in f"/{posix}" or posix.startswith("repro/serve/")


@register
class WallClock(Rule):
    """Wall-clock reads leak host time into simulated behaviour; cycle
    counts must come from ``sim.now``. ``time.monotonic`` and
    ``time.perf_counter`` remain allowed for harness elapsed-time
    measurement (they never feed simulated state) — except inside
    ``repro.serve``, where the daemon's whole contract is virtual time
    and *any* host-clock read or real sleep is flagged."""

    name = "wall-clock"
    description = ("wall-clock read (time.time / datetime.now); sim state "
                   "must derive from sim.now (serve/ additionally bans "
                   "monotonic/perf_counter/sleep)")

    def check(self, module: LintModule) -> Iterator[Finding]:
        aliases = _AliasMap(module.tree)
        serve = _in_serve_package(module.path)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted(node.func)
            if chain is None:
                continue
            canon = aliases.canonical(chain)
            if canon is None:
                continue
            parts = canon.split(".")
            hit = (
                (len(parts) == 2 and parts[0] == "time"
                 and parts[1] in TIME_WALL_FNS)
                or (parts[0] == "datetime" and len(parts) >= 2
                    and parts[-1] in DATETIME_WALL_FNS
                    and parts[-2] in ("datetime", "date"))
            )
            if hit:
                yield module.finding(
                    node, self.name,
                    f"`{canon}()` reads the wall clock; simulated time "
                    f"comes from sim.now")
            elif (serve and len(parts) == 2 and parts[0] == "time"
                    and parts[1] in SERVE_TIME_FNS):
                yield module.finding(
                    node, self.name,
                    f"`{canon}()` touches the host clock inside "
                    f"repro.serve; the daemon runs on virtual time only "
                    f"(use sim.now / sim.timeout)")


_SET_BUILTINS = frozenset({"set", "frozenset"})
_SET_METHODS = frozenset({"difference", "intersection",
                          "symmetric_difference", "union"})
#: sinks that materialize iteration order (sorted() is the fix, not a sink)
_ORDER_SINKS = frozenset({"enumerate", "iter", "list", "reversed", "tuple"})


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) \
                and node.func.id in _SET_BUILTINS:
            return True
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in _SET_METHODS:
            return _is_set_expr(node.func.value)
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _scope_nodes(tree: ast.AST) -> Iterator[ast.AST]:
    """The module plus every (possibly nested) function definition."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            yield node


def _own_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Nodes belonging to ``scope`` itself, not to nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _sorted_list_calls(scope: ast.AST) -> "set":
    """``list(...)`` Call nodes whose result is assigned to a name that is
    later ``.sort()``-ed in the same scope — an ordered materialization,
    equivalent to ``sorted(...)``."""
    sorted_names = set()
    for node in _own_nodes(scope):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "sort"
                and isinstance(node.func.value, ast.Name)):
            sorted_names.add(node.func.value.id)
    safe = set()
    if not sorted_names:
        return safe
    for node in _own_nodes(scope):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        value = node.value
        if (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "list"
                and any(isinstance(t, ast.Name) and t.id in sorted_names
                        for t in targets)):
            safe.add(id(value))
    return safe


@register
class UnorderedIter(Rule):
    """Set iteration order depends on hash seeding and insertion history;
    feeding it into scheduling or event-queue decisions makes the run
    depend on both. (Dict views are insertion-ordered since Python 3.7
    and are exempt.) Wrap the set in ``sorted(...)``; ``list(s)`` followed
    by ``.sort()`` in the same scope also counts as ordered."""

    name = "unordered-iter"
    description = ("iteration over an unordered set; wrap in sorted() for "
                   "a deterministic order")

    def check(self, module: LintModule) -> Iterator[Finding]:
        safe_calls = set()
        for scope in _scope_nodes(module.tree):
            safe_calls |= _sorted_list_calls(scope)
        for node in ast.walk(module.tree):
            iters: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in _ORDER_SINKS and node.args
                  and id(node) not in safe_calls):
                iters.append(node.args[0])
            for candidate in iters:
                if _is_set_expr(candidate):
                    yield module.finding(
                        candidate, self.name,
                        "iterating over an unordered set; order feeds "
                        "downstream decisions — use sorted(...)")


_MUTABLE_CALLS = frozenset({"Counter", "bytearray", "defaultdict", "deque",
                            "dict", "list", "set"})


@register
class MutableDefault(Rule):
    """A mutable default is evaluated once and shared across calls —
    state leaks between runs that should be independent."""

    name = "mutable-default"
    description = "mutable default argument (shared across calls)"
    severity = "warning"

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                mutable = isinstance(default, (
                    ast.Dict, ast.DictComp, ast.List, ast.ListComp,
                    ast.Set, ast.SetComp))
                if (not mutable and isinstance(default, ast.Call)
                        and isinstance(default.func, ast.Name)
                        and default.func.id in _MUTABLE_CALLS):
                    mutable = True
                if mutable:
                    yield module.finding(
                        default, self.name,
                        "mutable default argument is shared across calls; "
                        "default to None and build inside the function")


_LITERAL_YIELDS = (ast.Constant, ast.Dict, ast.JoinedStr, ast.List,
                   ast.Set, ast.Tuple)


def _own_yields(func: ast.AST) -> List[ast.Yield]:
    """Yield nodes belonging to ``func`` itself (not nested functions)."""
    yields: List[ast.Yield] = []
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Yield):
            yields.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return yields


def _is_sim_call(node: Optional[ast.AST]) -> bool:
    """``sim.timeout(...)`` / ``self.sim.all_of(...)``-shaped expression."""
    if not isinstance(node, ast.Call):
        return False
    chain = _dotted(node.func)
    return chain is not None and "sim" in chain[:-1]


@register
class YieldNonEvent(Rule):
    """A sim-process generator must yield Event objects; yielding a bare
    number (``yield 10`` instead of ``yield sim.timeout(10)``) either
    crashes the kernel at runtime or — worse — silently skips the wait.
    A generator counts as a sim process when at least one of its yields
    is a call through a ``sim`` object."""

    name = "yield-non-event"
    description = ("sim process yields a non-Event literal; yield "
                   "sim.timeout(...) / an Event")

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            yields = _own_yields(node)
            if not any(_is_sim_call(y.value) for y in yields):
                continue  # not a sim process
            for y in yields:
                if y.value is None:
                    yield module.finding(
                        y, self.name,
                        "bare `yield` in a sim process sends None to the "
                        "kernel, which expects an Event")
                elif isinstance(y.value, _LITERAL_YIELDS):
                    yield module.finding(
                        y, self.name,
                        "sim process yields a literal; the kernel expects "
                        "an Event (e.g. sim.timeout(...))")


@register
class BroadExcept(Rule):
    """``except:`` and ``except BaseException:`` catch the
    ``GeneratorExit`` a generator gets when it is closed (and
    KeyboardInterrupt), so a closed process body can refuse to stop.
    Catch ``Exception``, or re-raise with a bare ``raise``."""

    name = "broad-except"
    description = ("bare/BaseException handler can swallow GeneratorExit; "
                   "catch Exception or re-raise")
    severity = "warning"

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                label = "bare `except:`"
            else:
                chain = _dotted(node.type)
                if chain is None or chain[-1] != "BaseException":
                    continue
                label = "`except BaseException:`"
            reraises = any(
                isinstance(sub, ast.Raise) and sub.exc is None
                for stmt in node.body for sub in ast.walk(stmt))
            if not reraises:
                yield module.finding(
                    node, self.name,
                    f"{label} swallows GeneratorExit and "
                    f"KeyboardInterrupt; catch Exception or add a "
                    f"bare `raise`")


def _taxonomy_names(tree: ast.AST) -> Set[str]:
    """Local names of the typed error taxonomy: every name imported from
    an ``errors`` module (where the taxonomy lives), ``errors`` itself
    when the module is imported whole, and the root ``ReproError``.
    Empty for a module that does not use the taxonomy."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.module and node.module.split(".")[-1] == "errors":
            names.update(alias.asname or alias.name for alias in node.names)
        names.update(alias.asname or alias.name for alias in node.names
                     if alias.name == "errors")
    return names | {"ReproError"} if names else names


def _caught_name(type_expr: Optional[ast.expr],
                 taxonomy: Set[str]) -> Optional[str]:
    """The taxonomy class (or bare ``Exception``) a handler catches."""
    if isinstance(type_expr, ast.Tuple):
        names = (_caught_name(e, taxonomy) for e in type_expr.elts)
        return next((name for name in names if name is not None), None)
    chain = _dotted(type_expr) or []
    if chain == ["Exception"] or (len(chain) == 1 and chain[0] in taxonomy):
        return chain[0]
    if len(chain) >= 2 and chain[-2] == "errors":
        return chain[-1]
    return None


def _is_silent_body(stmts: List[ast.stmt]) -> bool:
    """True when a handler body neither re-raises nor handles: only
    ``pass``/``continue``/``break``, docstrings and ``return None``."""
    if any(isinstance(node, ast.Raise)
           for stmt in stmts for node in ast.walk(stmt)):
        return False
    for stmt in stmts:
        value = getattr(stmt, "value", None)
        if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)) \
                or (isinstance(stmt, ast.Expr)
                    and isinstance(value, ast.Constant)) \
                or (isinstance(stmt, ast.Return)
                    and (value is None or (isinstance(value, ast.Constant)
                                           and value.value is None))):
            continue
        return False
    return True


@register
class SwallowedError(Rule):
    """A handler that catches a typed library error (or bare
    ``Exception``, which catches the whole taxonomy) and does nothing
    with it makes the failure, and its exit code, disappear. Handlers
    that log, record or map the error are fine, and so is a module that
    does not import the taxonomy at all (plain scripts and fixtures)."""

    name = "contract-swallowed"
    description = ("except clause that silently swallows a typed "
                   "library error")

    def check(self, module: LintModule) -> Iterator[Finding]:
        taxonomy = _taxonomy_names(module.tree)
        if not taxonomy:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = _caught_name(node.type, taxonomy)
            if caught is not None and _is_silent_body(node.body):
                yield module.finding(
                    node, self.name,
                    f"except {caught}: swallows a typed library error "
                    "without re-raise or handling — the failure (and its "
                    "exit code) disappears silently")


@register
class RaiseGeneric(Rule):
    """``raise Exception(...)`` bypasses the typed taxonomy, so ``main()``
    cannot map the failure to a deterministic exit code."""

    name = "contract-raise-generic"
    description = ("raise of bare Exception/BaseException instead of a "
                   "taxonomy class")

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            if isinstance(exc, ast.Name) \
                    and exc.id in ("Exception", "BaseException"):
                yield module.finding(
                    node, self.name,
                    f"raise of bare {exc.id} bypasses the typed error "
                    "taxonomy and the exit-code contract; raise a "
                    "ReproError subclass instead")
