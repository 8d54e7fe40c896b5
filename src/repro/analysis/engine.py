"""The replint engine: files, config, suppressions, findings, reports.

replint is an AST-based lint framework for invariants the paper states
but Python cannot enforce at runtime: seeded replayable randomness
(Section 4.5's Hoeffding argument assumes independently *seeded*
samplers), plain-data process boundaries (the Section 6 parallel
protocol), honest float/NaN handling in the rank accounting, and a
layered import graph.  Each invariant is a *pass* (see the sibling
modules); this module provides everything a pass needs so a new pass is
~50 lines:

* :class:`SourceModule` — one parsed file: AST, dotted module name,
  import alias table, per-line suppressions.
* :class:`Pass` + :func:`register` — the pass registry; a pass declares
  its ``name`` and default options and yields :class:`Finding`\\ s.
* :func:`load_config` — per-pass options from ``[tool.replint]`` in
  ``pyproject.toml``, overlaid on the in-code defaults.
* :func:`analyze_paths` — walk files, run applicable passes, apply
  suppressions, return a :class:`Report` (JSON- or human-renderable).

Suppressions are line comments of the form::

    x = random.Random()  # replint: disable=determinism -- state is
                         #   restored below; the seed is never drawn

The justification after ``--`` is mandatory: a suppression without one
is itself reported (RPL001) and does not suppress anything.  A
suppression on a standalone comment line covers the next code line.

The engine intentionally imports nothing from the rest of :mod:`repro`,
so it sits at the bottom of the layer graph its own hygiene pass checks.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
import tomllib
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.analysis.project import ProjectGraph

__all__ = [
    "EXIT_CLEAN",
    "EXIT_ERROR",
    "EXIT_FINDINGS",
    "SEVERITIES",
    "Config",
    "Finding",
    "Pass",
    "Report",
    "SourceModule",
    "analyze_paths",
    "iter_source_files",
    "load_config",
    "module_name_for",
    "register",
    "registered_passes",
    "resolve_dotted",
]

#: Process exit codes of ``python -m repro.analysis``.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

#: Framework-level finding codes (pass codes live on the passes).
CODE_BAD_SUPPRESSION = "RPL001"
CODE_UNKNOWN_PASS = "RPL002"
CODE_SYNTAX_ERROR = "RPL003"

#: Directory names never descended into when walking a path.
_SKIP_DIRS = {
    "__pycache__",
    ".git",
    ".mypy_cache",
    ".ruff_cache",
    ".pytest_cache",
    ".hypothesis",
    "build",
    "dist",
}

_SUPPRESS_RE = re.compile(
    r"#\s*replint:\s*disable=([A-Za-z0-9_,\- ]+?)\s*(?:--\s*(?P<why>.*\S))?\s*$"
)


#: Valid :attr:`Finding.severity` values, most severe first.  ``error``
#: and ``warning`` both fail the run (exit 1) — replint is a gate, not a
#: suggestion box — but the distinction flows into the SARIF ``level``
#: and lets CI annotate regressions at the right prominence.  ``note``
#: findings are informational and never fail a run by themselves.
SEVERITIES = ("error", "warning", "note")


@dataclass(frozen=True, slots=True)
class Finding:
    """One diagnostic: where, which pass, which code, and why."""

    path: str
    line: int
    col: int
    code: str
    pass_name: str
    message: str
    severity: str = "error"

    def render(self) -> str:
        """The one-line human form, grep- and editor-friendly."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.code} [{self.pass_name}] {self.message}"
        )

    def to_json(self) -> dict[str, Any]:
        """The stable JSON object form (schema version 2)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "pass": self.pass_name,
            "message": self.message,
            "severity": self.severity,
        }

    def fingerprint(self) -> str:
        """The location-drift-stable identity used by baseline files.

        Deliberately excludes line/column so unrelated edits above a
        known finding do not churn the baseline; path + code + message
        (which names the offending symbol) identifies the finding.
        """
        return f"{self.path}::{self.code}::{self.message}"


@dataclass(frozen=True, slots=True)
class _Suppression:
    """A parsed, justified ``replint: disable`` comment."""

    line: int
    passes: frozenset[str]
    justification: str


class SourceModule:
    """One parsed source file plus the metadata every pass needs."""

    def __init__(self, path: Path, text: str, module: str | None) -> None:
        self.path = path
        #: Path as reported in findings: relative to cwd when possible.
        try:
            self.rel = path.resolve().relative_to(Path.cwd()).as_posix()
        except ValueError:
            self.rel = path.as_posix()
        self.text = text
        self.lines = text.splitlines()
        #: Dotted module name (``repro.core.buffers``) or ``None`` when
        #: the file is not under any package root.
        self.module = module
        self.tree = ast.parse(text, filename=str(path))
        self.suppressions, self.suppression_findings = self._parse_suppressions()
        self.aliases = _import_aliases(self.tree)

    def in_packages(self, packages: Sequence[str]) -> bool:
        """Whether this module falls under any of the dotted prefixes."""
        if self.module is None:
            return False
        return any(
            self.module == p or self.module.startswith(p + ".") for p in packages
        )

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted name of an expression, un-aliased via the import table.

        ``np.random.rand`` resolves to ``numpy.random.rand`` under
        ``import numpy as np``; returns ``None`` for non-name shapes.
        """
        return resolve_dotted(node, self.aliases)

    # -- suppression machinery -----------------------------------------

    def _parse_suppressions(
        self,
    ) -> tuple[dict[int, frozenset[str]], list[Finding]]:
        by_line: dict[int, frozenset[str]] = {}
        findings: list[Finding] = []
        for lineno, comment in self._comments():
            line = self.lines[lineno - 1]
            match = _SUPPRESS_RE.search(comment)
            if match is None:
                if re.search(r"replint:\s*disable", comment):
                    findings.append(
                        Finding(
                            self.rel,
                            lineno,
                            line.find("#") + 1,
                            CODE_BAD_SUPPRESSION,
                            "replint",
                            "malformed replint suppression comment "
                            "(expected '# replint: disable=<pass> -- why')",
                        )
                    )
                continue
            names = frozenset(
                name.strip() for name in match.group(1).split(",") if name.strip()
            )
            why = match.group("why")
            if not why:
                findings.append(
                    Finding(
                        self.rel,
                        lineno,
                        match.start() + 1,
                        CODE_BAD_SUPPRESSION,
                        "replint",
                        "suppression without a justification is ignored; "
                        "write '# replint: disable=<pass> -- <reason>'",
                    )
                )
                continue
            unknown = sorted(
                name for name in names if name != "all" and name not in registry
            )
            if unknown:
                findings.append(
                    Finding(
                        self.rel,
                        lineno,
                        match.start() + 1,
                        CODE_UNKNOWN_PASS,
                        "replint",
                        f"suppression names unknown pass(es): {', '.join(unknown)}"
                        f" (known: {', '.join(sorted(registry))})",
                    )
                )
                names = names - frozenset(unknown)
                if not names:
                    continue
            covered = [lineno]
            # A standalone comment line shields the next code line.
            if line.strip().startswith("#"):
                covered.append(self._next_code_line(lineno))
            for covered_line in covered:
                merged = by_line.get(covered_line, frozenset()) | names
                by_line[covered_line] = merged
        return by_line, findings

    def _comments(self) -> Iterator[tuple[int, str]]:
        """(line, text) of every real comment token in the file.

        Tokenising (rather than scanning raw lines) keeps docstrings and
        string literals that merely *mention* the suppression syntax —
        such as this engine's own documentation — from being parsed as
        suppressions.
        """
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.text).readline)
            for token in tokens:
                if token.type == tokenize.COMMENT:
                    yield token.start[0], token.string
        except tokenize.TokenError:  # pragma: no cover - parse already passed
            return

    def _next_code_line(self, lineno: int) -> int:
        for offset, line in enumerate(self.lines[lineno:], start=lineno + 1):
            if line.strip() and not line.strip().startswith("#"):
                return offset
        return lineno

    def is_suppressed(self, finding: Finding) -> bool:
        """Whether a justified suppression covers this finding's line."""
        names = self.suppressions.get(finding.line)
        if names is None:
            return False
        return "all" in names or finding.pass_name in names


def resolve_dotted(
    node: ast.AST, aliases: Mapping[str, str]
) -> str | None:
    """Resolve a Name/Attribute chain to a dotted name through aliases."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    head = aliases.get(node.id, node.id)
    parts.append(head)
    return ".".join(reversed(parts))


def _import_aliases(tree: ast.AST) -> dict[str, str]:
    """Local name -> dotted origin, from every import in the file."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = (
                    item.name if item.asname else item.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases


# ----------------------------------------------------------------------
# Pass registry
# ----------------------------------------------------------------------

class Pass:
    """Base class of a replint pass.

    Subclasses set :attr:`name` (the id used in config and suppression
    comments), :attr:`codes` (code -> summary, for ``--list-passes``),
    and :attr:`default_options`; they implement :meth:`check`.
    """

    #: Pass id, e.g. ``"determinism"``.
    name: str = ""
    #: Finding code -> one-line summary.
    codes: dict[str, str] = {}
    #: Options merged under ``[tool.replint.<name>]``.
    default_options: dict[str, Any] = {}

    def applies_to(self, module: SourceModule, options: Mapping[str, Any]) -> bool:
        """Default scoping: the ``packages`` option (empty = everywhere)."""
        packages = list(options.get("packages", ()))
        if not packages:
            return True
        return module.in_packages(packages)

    def check(
        self, module: SourceModule, options: Mapping[str, Any]
    ) -> Iterator[Finding]:
        """Yield findings for one module.  Subclasses implement this."""
        raise NotImplementedError
        yield  # pragma: no cover

    def project_check(
        self, graph: "ProjectGraph", options: Mapping[str, Any]
    ) -> Iterator[Finding]:
        """Yield whole-program findings over the :class:`ProjectGraph`.

        Called once per run, after every file's per-file :meth:`check`.
        The default is a no-op so per-file passes need not know the
        graph exists; the engine only builds the graph when a selected
        pass overrides this hook.
        """
        return iter(())

    @classmethod
    def wants_project_graph(cls) -> bool:
        """Whether this pass overrides :meth:`project_check`."""
        return cls.project_check is not Pass.project_check


#: name -> pass instance, in registration order.
registry: dict[str, Pass] = {}


def register(cls: type[Pass]) -> type[Pass]:
    """Class decorator adding a pass to the global registry."""
    instance = cls()
    if not instance.name:
        raise ValueError(f"{cls.__name__} must set a pass name")
    registry[instance.name] = instance
    return cls


def registered_passes() -> dict[str, Pass]:
    """The registry, importing the built-in pass modules on first use."""
    from repro.analysis import (  # noqa: F401  (import registers the passes)
        boxing,
        determinism,
        floats,
        hygiene,
        lifecycle,
        native_c,
        reachability,
        rngflow,
        service,
        spawnsafe,
    )

    return registry


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Config:
    """Engine options plus per-pass option mappings."""

    #: Path fragments excluded from the walk (substring match on the
    #: posix path), e.g. test fixture corpora of deliberately bad code.
    exclude: tuple[str, ...] = ()
    #: Paths scanned when the command line names none.
    default_paths: tuple[str, ...] = ("src",)
    #: Per-pass options: pass name -> merged option mapping.
    options: dict[str, dict[str, Any]] = field(default_factory=dict)

    def options_for(self, pass_name: str) -> dict[str, Any]:
        """The merged (defaults + pyproject) options of one pass."""
        return self.options.get(pass_name, {})


def load_config(pyproject: Path | None = None) -> Config:
    """Build a :class:`Config` from ``[tool.replint]`` in pyproject.toml.

    A missing file or missing table degrades to the in-code defaults; a
    present but unparseable file raises ``ValueError`` (config errors
    must be loud).
    """
    raw: dict[str, Any] = {}
    if pyproject is None:
        candidate = Path.cwd() / "pyproject.toml"
        pyproject = candidate if candidate.is_file() else None
    if pyproject is not None:
        try:
            with open(pyproject, "rb") as handle:
                raw = tomllib.load(handle).get("tool", {}).get("replint", {})
        except tomllib.TOMLDecodeError as exc:
            raise ValueError(f"{pyproject}: invalid TOML: {exc}") from exc
    options: dict[str, dict[str, Any]] = {}
    for name, instance in registered_passes().items():
        merged = dict(instance.default_options)
        table = raw.get(name, {})
        if not isinstance(table, dict):
            raise ValueError(
                f"[tool.replint.{name}] must be a table, got {type(table).__name__}"
            )
        merged.update(table)
        options[name] = merged
    return Config(
        exclude=tuple(raw.get("exclude", ())),
        default_paths=tuple(raw.get("default-paths", ("src",))),
        options=options,
    )


# ----------------------------------------------------------------------
# File walking and module naming
# ----------------------------------------------------------------------

def iter_source_files(
    paths: Sequence[Path], exclude: Sequence[str] = ()
) -> Iterator[Path]:
    """Python files under the given files/directories, deterministically.

    Skips byte-code/VCS/cache directories and any path whose posix form
    contains an ``exclude`` fragment.
    """
    for path in paths:
        if path.is_file():
            if path.suffix == ".py" and not _excluded(path, exclude):
                yield path
            continue
        for candidate in sorted(path.rglob("*.py")):
            if any(part in _SKIP_DIRS for part in candidate.parts):
                continue
            if any(part.endswith(".egg-info") for part in candidate.parts):
                continue
            if _excluded(candidate, exclude):
                continue
            yield candidate


def _excluded(path: Path, exclude: Sequence[str]) -> bool:
    posix = path.as_posix()
    return any(fragment in posix for fragment in exclude)


def module_name_for(path: Path) -> str | None:
    """Dotted module name of a file, from the enclosing package chain.

    Walks up while ``__init__.py`` siblings exist, so
    ``src/repro/core/buffers.py`` maps to ``repro.core.buffers`` no
    matter where the repo is checked out.  Files outside any package
    (scripts, benchmarks) map to ``None``.
    """
    if path.suffix != ".py":
        return None
    parts = [path.stem]
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.append(parent.name)
        parent = parent.parent
    if len(parts) == 1:
        return None
    if parts[0] == "__init__":
        parts = parts[1:]
    return ".".join(reversed(parts))


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Report:
    """Outcome of one analysis run."""

    findings: tuple[Finding, ...]
    files_checked: int
    suppressed: int
    passes: tuple[str, ...]
    #: Findings filtered out because a ``--baseline`` file records them.
    baselined: int = 0
    #: Baseline fingerprints no current finding matched (fixed or moved);
    #: reported so the baseline can be re-recorded, never a failure.
    stale_baseline: tuple[str, ...] = ()

    @property
    def exit_code(self) -> int:
        """0 clean, 1 when any error/warning finding survived.

        ``note``-severity findings are informational: they render but do
        not fail the gate.
        """
        failing = any(f.severity != "note" for f in self.findings)
        return EXIT_FINDINGS if failing else EXIT_CLEAN

    def render(self) -> str:
        """Human output: one line per finding plus a summary line."""
        lines = [finding.render() for finding in self.findings]
        verdict = "clean" if not self.findings else f"{len(self.findings)} finding(s)"
        suppressed = f", {self.suppressed} suppressed" if self.suppressed else ""
        baselined = f", {self.baselined} baselined" if self.baselined else ""
        stale = (
            f", {len(self.stale_baseline)} stale baseline entry(ies)"
            if self.stale_baseline
            else ""
        )
        lines.append(
            f"replint: {verdict} in {self.files_checked} file(s)"
            f" [{', '.join(self.passes)}]{suppressed}{baselined}{stale}"
        )
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        """The stable machine-readable form (schema version 2)."""
        return {
            "tool": "replint",
            "version": 2,
            "files_checked": self.files_checked,
            "passes": list(self.passes),
            "suppressed": self.suppressed,
            "baselined": self.baselined,
            "stale_baseline": list(self.stale_baseline),
            "findings": [finding.to_json() for finding in self.findings],
        }

    def render_json(self) -> str:
        """:meth:`to_json`, serialised with stable key order."""
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def analyze_paths(
    paths: Sequence[Path],
    config: Config | None = None,
    select: Sequence[str] | None = None,
) -> Report:
    """Run the (selected) passes over every Python file under ``paths``.

    :param select: pass names to run (default: all registered).
    :raises ValueError: on an unknown pass name in ``select``.
    """
    passes = registered_passes()
    if config is None:
        config = load_config()
    names = list(select) if select else list(passes)
    unknown = sorted(set(names) - set(passes))
    if unknown:
        raise ValueError(
            f"unknown pass(es): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(passes))})"
        )
    findings: list[Finding] = []
    files_checked = 0
    suppressed = 0
    modules: list[SourceModule] = []
    for path in iter_source_files(paths, config.exclude):
        files_checked += 1
        try:
            module = SourceModule(
                path, path.read_text(encoding="utf-8"), module_name_for(path)
            )
        except SyntaxError as exc:
            # A broken file degrades to one RPL003 finding; the rest of
            # the run — including the whole-program phase over every
            # file that *did* parse — proceeds normally.
            findings.append(
                Finding(
                    path.as_posix(),
                    exc.lineno or 1,
                    (exc.offset or 1),
                    CODE_SYNTAX_ERROR,
                    "replint",
                    f"file does not parse: {exc.msg}",
                )
            )
            continue
        modules.append(module)
        findings.extend(module.suppression_findings)
        for name in names:
            instance = passes[name]
            options = config.options_for(name)
            if not instance.applies_to(module, options):
                continue
            for finding in instance.check(module, options):
                if module.is_suppressed(finding):
                    suppressed += 1
                else:
                    findings.append(finding)
    # Whole-program phase: one graph over the already-parsed modules,
    # built only when a selected pass actually asks for it.
    if any(passes[name].wants_project_graph() for name in names):
        from repro.analysis.project import ProjectGraph

        graph = ProjectGraph(modules)
        for name in names:
            instance = passes[name]
            if not instance.wants_project_graph():
                continue
            for finding in instance.project_check(graph, config.options_for(name)):
                owner = graph.module_for_path(finding.path)
                if owner is not None and owner.is_suppressed(finding):
                    suppressed += 1
                else:
                    findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return Report(
        findings=tuple(findings),
        files_checked=files_checked,
        suppressed=suppressed,
        passes=tuple(names),
    )
