"""Registry rule REG001: factory conformance and duplicate names.

The registries (``SCHEDULERS``, ``WORKLOADS``, ``PREEMPTION_POLICIES``,
``TRACES``, ``CELLS``) fail fast on duplicate registration — but only
when both modules are imported in the same process, and a factory
whose signature silently drops ``seed=`` or ``sgx_fraction=`` fails
much later, mid-sweep.  This rule checks both at lint time, across
modules that never import each other.  Each registration decorator
carries its own call contract
(:attr:`~repro.analysis.config.CheckConfig.registry_decorators`): a
trace adapter is judged by the resolver's ``spec``/``seed`` keywords,
a cell policy by the partitioner's ``nodes``/``cells``/``seed``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from ..base import ProjectCheck, register_check
from ..config import CheckConfig
from ..findings import Finding
from ..source import ModuleSource, Project


def _registration(
    node: ast.AST, kinds: Dict[str, Tuple[Tuple[str, ...], int]]
) -> Optional[Tuple[str, Optional[str]]]:
    """``(decorator_kind, registered_name)`` if *node* is a decorated
    factory; the name is ``None`` when not a string literal."""
    if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return None
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        kind = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else ""
        )
        if kind not in kinds:
            continue
        name: Optional[str] = None
        if decorator.args and isinstance(
            decorator.args[0], ast.Constant
        ) and isinstance(decorator.args[0].value, str):
            name = decorator.args[0].value
        return kind, name
    return None


class _Signature:
    """The keyword/positional surface of a factory callable."""

    __slots__ = ("keywords", "positional", "has_kwargs", "has_varargs")

    def __init__(self, args: ast.arguments, drop_self: bool):
        plain = list(args.posonlyargs) + list(args.args)
        if drop_self and plain:
            plain = plain[1:]
        self.positional = len(plain)
        self.keywords = {a.arg for a in plain} | {
            a.arg for a in args.kwonlyargs
        }
        self.has_kwargs = args.kwarg is not None
        self.has_varargs = args.vararg is not None

    def accepts(self, keyword: str) -> bool:
        return self.has_kwargs or keyword in self.keywords


def _class_index(project: Project) -> Dict[str, ast.ClassDef]:
    """Bare class name -> definition (first in path order wins)."""
    index: Dict[str, ast.ClassDef] = {}
    for module in project:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                index.setdefault(node.name, node)
    return index


def _resolve_init(
    node: ast.ClassDef,
    index: Dict[str, ast.ClassDef],
    depth: int = 0,
) -> Optional[ast.FunctionDef]:
    """The ``__init__`` a class-based factory is constructed through,
    following project-local bases; ``None`` when it bottoms out in
    ``object``/external code (meaning: no explicit signature to
    check)."""
    if depth > 10:  # defensive: base cycles in broken trees
        return None
    for statement in node.body:
        if (
            isinstance(statement, ast.FunctionDef)
            and statement.name == "__init__"
        ):
            return statement
    for base in node.bases:
        base_node = base
        if isinstance(base_node, ast.Subscript):
            base_node = base_node.value
        name = (
            base_node.id
            if isinstance(base_node, ast.Name)
            else base_node.attr
            if isinstance(base_node, ast.Attribute)
            else ""
        )
        parent = index.get(name)
        if parent is not None:
            init = _resolve_init(parent, index, depth + 1)
            if init is not None:
                return init
    return None


@register_check("REG001")
class RegistryConformanceCheck(ProjectCheck):
    """Registered factories: unique names, conformant signatures."""

    rule = "REG001"
    description = (
        "registry drift: duplicate registered name, or a factory "
        "whose signature cannot accept the uniform options"
    )
    hint = (
        "registered factories must accept the registry's keyword set "
        "(directly or via **options) and use a unique name"
    )

    def run(
        self, project: Project, config: CheckConfig
    ) -> Iterator[Finding]:
        kinds = config.registry_decorators
        index = _class_index(project)
        seen: Dict[Tuple[str, str], Tuple[ModuleSource, int]] = {}
        for module in project:
            for node in ast.walk(module.tree):
                registration = _registration(node, kinds)
                if registration is None:
                    continue
                kind, name = registration
                assert isinstance(
                    node, (ast.FunctionDef, ast.ClassDef)
                )
                if name is None:
                    yield self.finding(
                        module,
                        node.lineno,
                        f"{kind}(...) name is not a string literal; "
                        "duplicate detection cannot see it",
                    )
                else:
                    key = (kind, name)
                    if key in seen:
                        first_module, first_line = seen[key]
                        yield self.finding(
                            module,
                            node.lineno,
                            f"duplicate {kind} name {name!r} (first "
                            "registered at "
                            f"{first_module.relpath}:{first_line})",
                        )
                    else:
                        seen[key] = (module, node.lineno)
                yield from self._check_signature(
                    module, node, kind, kinds[kind], index
                )

    def _check_signature(
        self,
        module: ModuleSource,
        node: "ast.FunctionDef | ast.ClassDef",
        kind: str,
        contract: Tuple[Tuple[str, ...], int],
        index: Dict[str, ast.ClassDef],
    ) -> Iterator[Finding]:
        required_keywords, min_positional = contract
        if isinstance(node, ast.FunctionDef):
            signature = _Signature(node.args, drop_self=False)
        else:
            init = _resolve_init(node, index)
            if init is None:
                return  # default/external __init__: nothing to check
            signature = _Signature(init.args, drop_self=True)
        missing = sorted(
            keyword
            for keyword in required_keywords
            if not signature.accepts(keyword)
        )
        if missing:
            yield self.finding(
                module,
                node.lineno,
                f"{kind} factory {node.name} does not accept "
                f"keyword(s) {', '.join(missing)}",
            )
        if (
            signature.positional < min_positional
            and not signature.has_varargs
        ):
            yield self.finding(
                module,
                node.lineno,
                f"{kind} factory {node.name} takes "
                f"{signature.positional} positional argument(s); the "
                f"registry calls it with {min_positional}",
            )
