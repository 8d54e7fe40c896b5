"""The whole-program index behind replint's cross-module passes.

Per-file passes see one :class:`~repro.analysis.engine.SourceModule` at a
time, which is exactly right for invariants that are local properties of
a file (an unseeded RNG call, a bare ``except``).  The riskiest
invariants in this repo are *not* local: a seed parameter accepted in
``repro.service.tenants`` must survive the call chain into
``repro.runtime`` workers, an exported name is dead only if *no other
module anywhere* references it, and a resource acquired in one layer may
be released two layers up.  :class:`ProjectGraph` gives passes the
whole-program view those checks need from **one parse of the repo**: the
same ``SourceModule`` objects the per-file phase already built, plus
module/import/call/symbol-reference indices over them.

The graph is deliberately syntactic — no imports are executed, so it is
safe on broken or hostile trees — and resolution is alias-chasing over
the static import tables: ``from repro.core import ParallelQuantiles``
in ``repro/core/__init__.py`` makes ``repro.core.ParallelQuantiles`` an
*address* of ``repro.core.parallel.ParallelQuantiles``, and
:meth:`ProjectGraph.resolve_address` follows such chains to a fixpoint.

Passes receive the graph through the optional
:meth:`~repro.analysis.engine.Pass.project_check` hook; the engine
builds it once per run, and only when a selected pass overrides the
hook, so per-file-only runs pay nothing.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from repro.analysis.engine import SourceModule

__all__ = ["CallableInfo", "ProjectGraph"]

#: Alias chains longer than this are cycles (or adversarial input);
#: resolution stops rather than looping.
_MAX_ALIAS_HOPS = 16


@dataclass(frozen=True, slots=True)
class CallableInfo:
    """Signature facts of one project-defined function/method/class.

    For a class, the parameters are its ``__init__``'s (minus ``self``)
    so call-threading checks treat construction like any other call.
    """

    #: Fully-qualified dotted name (``repro.core.parallel.worker_seed``).
    qualname: str
    #: Module the definition lives in.
    module: str
    #: Line of the ``def``/``class`` statement.
    line: int
    #: Positional/keyword parameter names, in order (no self/cls).
    params: tuple[str, ...]
    #: Parameter names that have defaults.
    with_default: frozenset[str]
    #: Whether the signature ends in ``**kwargs`` (absorbs any keyword).
    has_kwargs: bool


class ProjectGraph:
    """Module/import/call/symbol-reference indices over one parsed repo.

    Built by :func:`~repro.analysis.engine.analyze_paths` from the
    modules of the current run; passes query it, they never mutate it.
    """

    def __init__(self, modules: Sequence[SourceModule]) -> None:
        #: Dotted module name -> its SourceModule (loose scripts are in
        #: :attr:`scripts`, not here).
        self.modules: dict[str, SourceModule] = {}
        #: Files outside any package (scripts, benchmarks, examples).
        self.scripts: list[SourceModule] = []
        #: Report-relative path -> SourceModule, for suppression lookups.
        self.by_path: dict[str, SourceModule] = {}
        #: module -> dotted import targets (modules or module.symbol).
        self.imports: dict[str, set[str]] = {}
        #: Reverse of :attr:`imports`: target module -> importing modules.
        self.importers: dict[str, set[str]] = {}
        #: Every dotted name referenced anywhere, resolved through each
        #: file's alias table (``np.random.rand`` -> ``numpy.random.rand``).
        self.references: set[str] = set()
        #: module -> names listed in its ``__all__`` with their lines.
        self.exports: dict[str, list[tuple[str, int]]] = {}
        #: module -> names bound at module top level (defs, classes,
        #: assignments, imports).
        self.defined: dict[str, set[str]] = {}
        #: qualname -> signature facts for top-level defs, classes, and
        #: one level of methods.
        self.callables: dict[str, CallableInfo] = {}

        self._uses_cache: dict[str, set[str]] = {}
        for module in modules:
            self.by_path[module.rel] = module
            if module.module is None:
                self.scripts.append(module)
            else:
                self.modules[module.module] = module
        for module in modules:
            self._index_module(module)
        for source, targets in self.imports.items():
            for target in targets:
                head = self._module_prefix(target)
                if head is not None:
                    self.importers.setdefault(head, set()).add(source)

    # -- queries -------------------------------------------------------

    def module_for_path(self, rel: str) -> SourceModule | None:
        """The module a finding path belongs to (suppression lookups)."""
        return self.by_path.get(rel)

    def importers_of(self, module: str) -> frozenset[str]:
        """Modules that import ``module`` (directly, by any alias form)."""
        return frozenset(self.importers.get(module, ()))

    def resolve_address(self, dotted: str) -> str:
        """Chase re-export aliases to the defining address of a name.

        ``repro.core.ParallelQuantiles`` resolves through the package
        ``__init__``'s import table to
        ``repro.core.parallel.ParallelQuantiles``; unknown names resolve
        to themselves.  Attribute tails survive resolution
        (``repro.core.ParallelQuantiles.update`` keeps ``.update``).
        """
        seen = 0
        while seen < _MAX_ALIAS_HOPS:
            seen += 1
            step = self._resolve_one(dotted)
            if step == dotted:
                return dotted
            dotted = step
        return dotted

    def is_referenced(self, module: str, name: str) -> bool:
        """Whether ``module.name`` is referenced from any *other* module.

        A reference counts when a resolved dotted use in another file —
        an import, an attribute access, a call — lands on the symbol's
        defining address, including uses spelled through package
        re-export addresses (``repro.X`` for ``repro.core.parallel.X``).
        """
        target = f"{module}.{name}"
        for ref in self.references_to(target):
            owner = self.by_path.get(ref)
            if owner is None or owner.module != module:
                return True
        return False

    def references_to(self, target: str) -> Iterator[str]:
        """Report-relative paths of files whose uses resolve to ``target``."""
        for module in [*self.modules.values(), *self.scripts]:
            if target in self._resolved_uses(module):
                yield module.rel

    def callable_info(self, dotted: str) -> CallableInfo | None:
        """Signature facts for a call target, chasing re-export aliases."""
        resolved = self.resolve_address(dotted)
        return self.callables.get(resolved)

    # -- construction helpers ------------------------------------------

    def _module_prefix(self, dotted: str) -> str | None:
        """Longest prefix of a dotted name that is a scanned module."""
        parts = dotted.split(".")
        for length in range(len(parts), 0, -1):
            candidate = ".".join(parts[:length])
            if candidate in self.modules:
                return candidate
        return None

    def _resolve_one(self, dotted: str) -> str:
        head = self._module_prefix(dotted)
        if head is None or head == dotted:
            return dotted
        tail = dotted[len(head) + 1 :].split(".")
        origin = self.modules[head].aliases.get(tail[0])
        if origin is None:
            return dotted
        return ".".join([origin, *tail[1:]])

    def _resolved_uses(self, module: SourceModule) -> set[str]:
        cached = self._uses_cache.get(module.rel)
        if cached is None:
            cached = set()
            for dotted in _dotted_uses(module):
                resolved = self.resolve_address(dotted)
                cached.add(resolved)
                # Every prefix of a resolved use is itself used: a call
                # of `repro.core.parallel.X.update` references X too.
                parts = resolved.split(".")
                for length in range(2, len(parts)):
                    cached.add(self.resolve_address(".".join(parts[:length])))
            self._uses_cache[module.rel] = cached
        return cached

    def _index_module(self, module: SourceModule) -> None:
        name = module.module
        if name is not None:
            self.imports[name] = set()
            self.defined[name] = _toplevel_bindings(module.tree)
            self.exports[name] = _all_entries(module.tree)
            for info in _callables(module.tree, name):
                self.callables[info.qualname] = info
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    if name is not None:
                        self.imports[name].add(item.name)
                    self.references.add(item.name)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                for item in node.names:
                    target = (
                        node.module
                        if item.name == "*"
                        else f"{node.module}.{item.name}"
                    )
                    if name is not None:
                        self.imports[name].add(target)
                    self.references.add(target)


def _dotted_uses(module: SourceModule) -> Iterator[str]:
    """Every dotted name a file uses, resolved through its alias table."""
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.Attribute, ast.Name)):
            dotted = module.resolve(node)
            if dotted is not None and "." in dotted:
                yield dotted
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for item in node.names:
                if item.name != "*":
                    yield f"{node.module}.{item.name}"
        elif isinstance(node, ast.Import):
            for item in node.names:
                yield item.name


def _toplevel_bindings(tree: ast.Module) -> set[str]:
    bound: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                bound.update(_binding_names(target))
        elif isinstance(stmt, ast.AnnAssign):
            bound.update(_binding_names(stmt.target))
        elif isinstance(stmt, ast.Import):
            for item in stmt.names:
                bound.add(item.asname or item.name.split(".")[0])
        elif isinstance(stmt, ast.ImportFrom):
            for item in stmt.names:
                if item.name != "*":
                    bound.add(item.asname or item.name)
        elif isinstance(stmt, (ast.If, ast.Try)):
            # One conditional level deep: version-gated fallback
            # imports still count as bindings.
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.Import, ast.ImportFrom)):
                    for item in sub.names:
                        if item.name != "*":
                            bound.add(item.asname or item.name.split(".")[0])
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        bound.update(_binding_names(target))
    return bound


def _binding_names(target: ast.expr) -> set[str]:
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names: set[str] = set()
        for element in target.elts:
            names.update(_binding_names(element))
        return names
    return set()


def _all_entries(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) pairs of the module's ``__all__`` list literal."""
    entries: list[tuple[str, int]] = []
    for stmt in tree.body:
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            value = stmt.value
        elif (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == "__all__"
        ):
            value = stmt.value
        if value is None or not isinstance(value, (ast.List, ast.Tuple)):
            continue
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                entries.append((element.value, element.lineno))
    return entries


def _callables(tree: ast.Module, module: str) -> Iterator[CallableInfo]:
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield _info_for(stmt, f"{module}.{stmt.name}", module, drop_self=False)
        elif isinstance(stmt, ast.ClassDef):
            init: ast.FunctionDef | ast.AsyncFunctionDef | None = None
            for body_stmt in stmt.body:
                if isinstance(body_stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield _info_for(
                        body_stmt,
                        f"{module}.{stmt.name}.{body_stmt.name}",
                        module,
                        drop_self=True,
                    )
                    if body_stmt.name == "__init__":
                        init = body_stmt
            if init is not None:
                yield _info_for(
                    init, f"{module}.{stmt.name}", module, drop_self=True
                )


def _info_for(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    qualname: str,
    module: str,
    drop_self: bool,
) -> CallableInfo:
    args = node.args
    positional = [a.arg for a in [*args.posonlyargs, *args.args]]
    if drop_self and positional:
        positional = positional[1:]
    keyword_only = [a.arg for a in args.kwonlyargs]
    defaults = positional[len(positional) - len(args.defaults) :] if args.defaults else []
    kw_defaults = [
        a.arg
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return CallableInfo(
        qualname=qualname,
        module=module,
        line=node.lineno,
        params=tuple([*positional, *keyword_only]),
        with_default=frozenset([*defaults, *kw_defaults]),
        has_kwargs=args.kwarg is not None,
    )
