"""Module-graph substrate for the static checker.

A :class:`Project` is the parsed view of one source tree: every
``repro.*`` module loaded from ``src/``, parsed with :mod:`ast`, plus
access to the repo's documentation files. Rules operate on a whole
project (several contracts span modules — a config field declared in
``core/gala.py`` must agree with ``serve/server.py``), so the engine
parses once and every rule walks the same trees.

The helpers at the bottom are the small AST vocabulary the rules share:
dotted-name resolution, string-literal extraction from container
displays, f-string collapsing (format holes become ``*``, with function
parameter defaults substituted), and parent maps for context checks
("is this call a ``with`` item?").
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple


@dataclass
class ModuleInfo:
    """One parsed source module."""

    #: dotted module name, e.g. ``repro.core.gala``
    name: str
    #: absolute path on disk
    path: Path
    #: repo-root-relative posix path, e.g. ``src/repro/core/gala.py``
    rel_path: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    _parents: Optional[Dict[ast.AST, ast.AST]] = field(
        default=None, repr=False, compare=False
    )

    def line(self, lineno: int) -> str:
        """1-indexed source line (empty string when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child → parent map over this module's AST (built lazily)."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        """The nearest enclosing (async) function def, or None."""
        parents = self.parents()
        cur = parents.get(node)
        while cur is not None:
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return cur
            cur = parents.get(cur)
        return None


class Project:
    """Every parsed module of one package tree plus the repo's docs."""

    def __init__(
        self,
        package_dir: Path,
        repo_root: Optional[Path] = None,
        package: Optional[str] = None,
    ) -> None:
        self.package_dir = Path(package_dir).resolve()
        self.package = package or self.package_dir.name
        if repo_root is None:
            # conventional layout: <repo>/src/<package>
            repo_root = self.package_dir.parent.parent
        self.repo_root = Path(repo_root).resolve()
        self.modules: Dict[str, ModuleInfo] = {}
        #: files that failed to parse: (rel_path, error message)
        self.parse_errors: List[Tuple[str, str]] = []
        self._load()

    @classmethod
    def from_repo(cls, repo_root: Path) -> "Project":
        """Load the conventional ``<repo>/src/repro`` tree."""
        root = Path(repo_root).resolve()
        return cls(root / "src" / "repro", repo_root=root)

    # ------------------------------------------------------------------ #
    def _load(self) -> None:
        for path in sorted(self.package_dir.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            rel_to_pkg = path.relative_to(self.package_dir)
            parts = [self.package, *rel_to_pkg.parts]
            if parts[-1] == "__init__.py":
                parts = parts[:-1]
            else:
                parts[-1] = parts[-1][: -len(".py")]
            name = ".".join(parts)
            try:
                rel_path = path.relative_to(self.repo_root).as_posix()
            except ValueError:
                rel_path = path.as_posix()
            source = path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as exc:
                self.parse_errors.append((rel_path, str(exc)))
                continue
            self.modules[name] = ModuleInfo(
                name=name,
                path=path,
                rel_path=rel_path,
                source=source,
                tree=tree,
                lines=source.splitlines(),
            )

    # ------------------------------------------------------------------ #
    def get(self, name: str) -> Optional[ModuleInfo]:
        return self.modules.get(name)

    def __iter__(self) -> Iterator[ModuleInfo]:
        return iter(self.modules.values())

    def __len__(self) -> int:
        return len(self.modules)

    def read_doc(self, rel_path: str) -> Optional[str]:
        """A repo-root-relative text file's content, or None if absent."""
        path = self.repo_root / rel_path
        try:
            return path.read_text(encoding="utf-8")
        except OSError:
            return None


# --------------------------------------------------------------------- #
# shared AST vocabulary
# --------------------------------------------------------------------- #
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


def call_func_name(call: ast.Call) -> Optional[str]:
    """The called function's dotted name (``np.sum``, ``sorted`` ...)."""
    return dotted_name(call.func)


def literal_strs(node: ast.AST) -> Optional[Set[str]]:
    """String elements of a Set/Tuple/List display (possibly wrapped in a
    ``set(...)``/``frozenset(...)``/``tuple(...)`` call); None when the
    node is not such a literal or holds non-strings."""
    if isinstance(node, ast.Call):
        fn = call_func_name(node)
        if fn in ("set", "frozenset", "tuple", "list") and len(node.args) == 1:
            return literal_strs(node.args[0])
        return None
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        out: Set[str] = set()
        for elt in node.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                out.add(elt.value)
            else:
                return None
        return out
    return None


def module_constant_strs(module: ModuleInfo, name: str) -> Optional[Set[str]]:
    """Strings of a module-level ``NAME = {...}`` / tuple assignment."""
    for node in module.tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                return literal_strs(value)
    return None


def class_constant_strs(cls: ast.ClassDef, name: str) -> Optional[Set[str]]:
    """Strings of a class-level ``NAME = {...}`` assignment."""
    for node in cls.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return literal_strs(node.value)
    return None


def find_class(module: ModuleInfo, name: str) -> Optional[ast.ClassDef]:
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def dataclass_fields(cls: ast.ClassDef) -> Dict[str, int]:
    """Annotated instance fields of a dataclass body → their line numbers.

    Class-level constants (ALL_CAPS ``Assign`` statements, e.g.
    ``EXECUTION_FIELDS``) and ``ClassVar`` annotations are not fields.
    """
    fields: Dict[str, int] = {}
    for node in cls.body:
        if not isinstance(node, ast.AnnAssign):
            continue
        if not isinstance(node.target, ast.Name):
            continue
        annotation = ast.unparse(node.annotation) if node.annotation else ""
        if "ClassVar" in annotation:
            continue
        fields[node.target.id] = node.lineno
    return fields


def param_string_defaults(func: ast.AST) -> Dict[str, str]:
    """Function parameters with string defaults, e.g. ``prefix="gpusim"``."""
    out: Dict[str, str] = {}
    if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return out
    args = func.args
    positional = args.posonlyargs + args.args
    defaults = args.defaults
    for arg, default in zip(positional[len(positional) - len(defaults):], defaults):
        if isinstance(default, ast.Constant) and isinstance(default.value, str):
            out[arg.arg] = default.value
    for arg_kw, default_kw in zip(args.kwonlyargs, args.kw_defaults):
        if (
            default_kw is not None
            and isinstance(default_kw, ast.Constant)
            and isinstance(default_kw.value, str)
        ):
            out[arg_kw.arg] = default_kw.value
    return out


def param_names(func: ast.AST) -> Set[str]:
    """All parameter names of a function def."""
    if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return set()
    args = func.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def collapse_fstring(
    node: ast.JoinedStr, substitutions: Optional[Dict[str, str]] = None
) -> str:
    """An f-string as a metric-name pattern: holes become ``*``.

    A hole that is a bare name found in ``substitutions`` (function
    parameters with string defaults — the bridge-method ``prefix``
    idiom) is replaced by its default instead, so
    ``f"{prefix}/cycles/{bucket}"`` inside
    ``def bridge(..., prefix="gpusim")`` collapses to
    ``gpusim/cycles/*``. Consecutive holes merge into one ``*``.
    """
    substitutions = substitutions or {}
    parts: List[str] = []
    for value in node.values:
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            parts.append(value.value)
        elif isinstance(value, ast.FormattedValue):
            inner = value.value
            if (
                isinstance(inner, ast.Name)
                and inner.id in substitutions
            ):
                parts.append(substitutions[inner.id])
            else:
                if not parts or parts[-1] != "*":
                    parts.append("*")
        else:  # pragma: no cover - no other JoinedStr pieces exist
            if not parts or parts[-1] != "*":
                parts.append("*")
    return "".join(parts)
