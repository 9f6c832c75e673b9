"""Linter infrastructure: findings, rules, suppressions, project scan.

The linter is a whole-program AST pass (stdlib :mod:`ast` only — no new
dependencies): :func:`scan_paths` parses every Python file under the
given roots into :class:`ModuleInfo` records, a :class:`Project` bundles
them for cross-module rules, and :func:`run_lint` drives every
registered :class:`Rule` over the project, dropping findings a
``# repro-lint: disable=RULE`` comment suppresses.

Rules never *execute* the code under analysis: even whole-program rules
like TRACE001 (which needs the topic registry) read it from the scanned
tree's AST, so linting a broken or hostile tree is safe.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

__all__ = [
    "Finding",
    "ModuleInfo",
    "Project",
    "Rule",
    "RULES",
    "register_rule",
    "rule_ids",
    "scan_paths",
    "run_lint",
    "ImportMap",
    "dotted_name",
]

#: Marker that introduces a suppression comment.
SUPPRESS_MARKER = "repro-lint:"

#: Directory names never descended into while scanning.
SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".repro-cache", ".venv", "venv",
    "node_modules", ".mypy_cache", ".pytest_cache", "build", "dist",
})


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


def _parse_suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> rule ids disabled on that line.

    Syntax: ``# repro-lint: disable=DET001`` (comma-separate several
    ids; ``disable=all`` silences every rule on the line).  Comments are
    found with :mod:`tokenize`, so the marker inside a string literal
    is not a suppression.
    """
    out: Dict[int, FrozenSet[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [(t.start[0], t.string) for t in tokens
                    if t.type == tokenize.COMMENT]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return out
    for line, text in comments:
        body = text.lstrip("#").strip()
        if not body.startswith(SUPPRESS_MARKER):
            continue
        directive = body[len(SUPPRESS_MARKER):].strip()
        # Everything after the rule list is a free-form justification.
        if not directive.startswith("disable="):
            continue
        rules_part = directive[len("disable="):].split()[0] if directive[len("disable="):] else ""
        ids = frozenset(r.strip() for r in rules_part.split(",") if r.strip())
        if ids:
            out[line] = out.get(line, frozenset()) | ids
    return out


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: Path
    #: Path as shown in findings (relative to the scan root when possible).
    rel: str
    #: Dotted module parts, e.g. ``("repro", "sim", "tracing")`` —
    #: derived from the ``__init__.py`` chain above the file.
    parts: Tuple[str, ...]
    source: str
    tree: ast.Module
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return ".".join(self.parts)

    #: Package the module lives in (the module itself for ``__init__``).
    @property
    def package(self) -> Tuple[str, ...]:
        return self.parts if self.path.stem == "__init__" else self.parts[:-1]

    def suppressed(self, rule: str, line: int) -> bool:
        ids = self.suppressions.get(line)
        return bool(ids) and (rule in ids or "all" in ids)


def _module_parts(path: Path) -> Tuple[str, ...]:
    """Dotted-name parts for ``path`` from its ``__init__.py`` ancestry."""
    parts: List[str] = [] if path.stem == "__init__" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        if parent.parent == parent:
            break
        parent = parent.parent
    if not parts:  # a stray __init__.py with no package dir above it
        parts = [path.stem]
    return tuple(parts)


class Project:
    """Every scanned module, plus an index by dotted name."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules: List[ModuleInfo] = sorted(modules, key=lambda m: m.rel)
        self.by_name: Dict[str, ModuleInfo] = {m.name: m for m in self.modules}
        self._memo: Dict[Callable, object] = {}

    def memo(self, build: Callable[["Project"], object]):
        """``build(self)``, computed once per project: whole-program
        facts a per-module rule needs, without re-walking every module
        for each one it checks."""
        if build not in self._memo:
            self._memo[build] = build(self)
        return self._memo[build]

    def find(self, *suffix: str) -> Optional[ModuleInfo]:
        """The first module whose dotted parts end with ``suffix``."""
        for module in self.modules:
            if module.parts[-len(suffix):] == suffix:
                return module
        return None


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    for root in paths:
        if root.is_file():
            if root.suffix == ".py":
                yield root
            continue
        for sub in sorted(root.rglob("*.py")):
            if any(part in SKIP_DIRS or part.startswith(".") for part in
                   sub.relative_to(root).parts[:-1]):
                continue
            yield sub


def scan_paths(paths: Sequence[Path]) -> Tuple[Project, List[Finding]]:
    """Parse every file under ``paths``; syntax errors become findings."""
    modules: List[ModuleInfo] = []
    errors: List[Finding] = []
    cwd = Path.cwd()
    for file_path in iter_python_files([Path(p) for p in paths]):
        try:
            rel = str(file_path.resolve().relative_to(cwd))
        except ValueError:
            rel = str(file_path)
        try:
            source = file_path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(file_path))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            line = getattr(exc, "lineno", 1) or 1
            errors.append(Finding(
                rule="SYNTAX", path=rel, line=line, col=0,
                message=f"cannot parse file: {exc}",
            ))
            continue
        modules.append(ModuleInfo(
            path=file_path.resolve(),
            rel=rel,
            parts=_module_parts(file_path.resolve()),
            source=source,
            tree=tree,
            suppressions=_parse_suppressions(source),
        ))
    return Project(modules), errors


# -- rules ----------------------------------------------------------------------------


class Rule:
    """Base class: subclass, set ``id``/``summary``, register.

    ``check_module`` runs once per file; ``check_project`` once per lint
    for whole-program invariants.  Either may be a no-op.
    """

    id: str = ""
    summary: str = ""

    def check_module(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: Project) -> Iterator[Finding]:
        return iter(())


#: Registry of rule instances by id, in registration order.
RULES: Dict[str, Rule] = {}


def register_rule(cls):
    """Class decorator adding one instance of ``cls`` to :data:`RULES`."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.id in RULES:
        raise ValueError(f"duplicate rule id {rule.id}")
    RULES[rule.id] = rule
    return cls


def rule_ids() -> Tuple[str, ...]:
    return tuple(RULES)


def run_lint(
    paths: Sequence[Path],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> Tuple[List[Finding], int]:
    """Run the registered rules over ``paths``.

    Returns ``(findings, files_scanned)`` with findings sorted by
    location and suppressed ones dropped.  ``select`` limits the run to
    the named rules; ``ignore`` drops rules from it.
    """
    # Imported here so `import repro.analysis.core` (e.g. from rule unit
    # tests) does not require the rule modules, which import this one.
    from . import rules as _rules  # noqa: F401  (registers the rules)

    active = [RULES[r] for r in (select if select is not None else RULES)]
    if ignore is not None:
        dropped = set(ignore)
        active = [rule for rule in active if rule.id not in dropped]
    project, findings = scan_paths(paths)
    for rule in active:
        for module in project.modules:
            for finding in rule.check_module(module, project):
                if not module.suppressed(finding.rule, finding.line):
                    findings.append(finding)
        for finding in rule.check_project(project):
            owner = next((m for m in project.modules if m.rel == finding.path), None)
            if owner is None or not owner.suppressed(finding.rule, finding.line):
                findings.append(finding)
    findings.sort(key=lambda f: f.sort_key)
    return findings, len(project.modules)


# -- shared AST helpers ---------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ImportMap:
    """Local name -> absolute dotted path, from a module's imports."""

    def __init__(self, module: ModuleInfo):
        self.names: Dict[str, str] = {}
        package = module.package
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.names[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    # Relative import: resolve against the package.
                    base_parts = package[:len(package) - (node.level - 1)] \
                        if node.level > 1 else package
                    base = ".".join(base_parts)
                    prefix = f"{base}.{node.module}" if node.module else base
                else:
                    prefix = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.names[local] = f"{prefix}.{alias.name}" if prefix else alias.name

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Absolute dotted path of a Name/Attribute chain, if its root
        name was imported; ``None`` for local/builtin roots."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        base = self.names.get(root)
        if base is None:
            return None
        return f"{base}.{rest}" if rest else base
