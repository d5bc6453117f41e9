"""Layer 2: protocol invariant rules.

* **R-RNG** — no ``random``/``secrets``/``os.urandom`` imports or
  time-seeded RNG construction outside the sanctioned modules
  (``repro.math.rng``, ``repro.crypto.precompute``): all protocol
  randomness must flow through :class:`repro.math.rng.RNG`.
* **R-GUARD** — every decrypt/peel/rerandomize call is dominated by a
  membership/structure validation, either locally or inside the callee
  (resolved through the summary fixpoint).
* **R-POOL** — worker-job evaluators in ``repro.runtime.parallel`` may
  only consume pre-drawn randomness; constructing or driving an RNG in
  a job body breaks serial/parallel transcript identity.
* **R-FLOAT** — no float literals, ``float()`` casts, or true division
  in ``repro.crypto`` / ``repro.math.modular``: group and field
  arithmetic is exact.
* **R-EXCEPT** — no bare ``except:``; no ``except Exception:`` that
  fails to re-raise (it would swallow a blamed ``ProtocolAbort``).
* **R-PICKLE** — no ``pickle.load``/``pickle.loads``/``pickle.Unpickler``
  call: protocol messages cross the wire as codec bytes, so every
  remaining load (the sealed checkpoint reader, the transport's own
  control frames) is an inline waiver that states its reason.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.lint.findings import Finding
from repro.lint.parsing import ParsedModule, call_name, chain_names, qualname_index
from repro.lint.registry import (
    FLOAT_FORBIDDEN_MODULES,
    FLOAT_FORBIDDEN_PREFIXES,
    POOL_MODULE,
    POOL_RNG_METHODS,
    POOL_RNG_NAMES,
    RNG_ALLOWED_MODULES,
    SENSITIVE_CALLS,
    VALIDATORS,
)
from repro.lint.summaries import SummaryIndex

_RNG_MODULES = {"random", "secrets"}
_RNG_CONSTRUCTORS = {"SeededRNG", "SystemRNG", "Random", "seed"}


def check_module(
    parsed: ParsedModule, index: SummaryIndex
) -> List[Finding]:
    findings: List[Finding] = []
    quals = qualname_index(parsed.tree)

    def symbol_for(node: ast.AST) -> str:
        best = "<module>"
        best_span = None
        lineno = getattr(node, "lineno", 0)
        for candidate, qual in quals.items():
            start = getattr(candidate, "lineno", 0)
            end = getattr(candidate, "end_lineno", start)
            if start <= lineno <= end:
                span = end - start
                if best_span is None or span < best_span:
                    best, best_span = qual, span
        return best

    def emit(rule: str, node: ast.AST, message: str) -> None:
        lineno = getattr(node, "lineno", 1)
        findings.append(
            Finding(
                rule=rule,
                path=parsed.rel_path,
                line=lineno,
                col=getattr(node, "col_offset", 0) + 1,
                symbol=symbol_for(node),
                message=message,
                snippet=parsed.snippet(lineno),
                end_line=getattr(node, "end_lineno", lineno),
            )
        )

    _check_rng(parsed, emit)
    _check_guard(parsed, index, emit)
    _check_pool(parsed, emit)
    _check_float(parsed, emit)
    _check_except(parsed, emit)
    _check_pickle(parsed, emit)
    return findings


# -- R-RNG -------------------------------------------------------------------


def _check_rng(parsed: ParsedModule, emit) -> None:
    if parsed.module in RNG_ALLOWED_MODULES:
        return
    for node in ast.walk(parsed.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _RNG_MODULES:
                    emit(
                        "R-RNG",
                        node,
                        f"direct import of {alias.name!r}; draw through "
                        "repro.math.rng instead",
                    )
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root in _RNG_MODULES:
                emit(
                    "R-RNG",
                    node,
                    f"direct import from {node.module!r}; draw through "
                    "repro.math.rng instead",
                )
            elif node.module == "numpy" and any(
                alias.name == "random" for alias in node.names
            ):
                emit("R-RNG", node, "numpy.random bypasses the RNG discipline")
        elif isinstance(node, ast.Call):
            name = call_name(node)
            if name == "urandom":
                emit("R-RNG", node, "os.urandom bypasses the RNG discipline")
            elif name in _RNG_CONSTRUCTORS and _seeded_from_environment(node):
                emit(
                    "R-RNG",
                    node,
                    "time/OS-seeded RNG construction; seeds must be "
                    "explicit (tests) or come from SystemRNG",
                )


def _seeded_from_environment(node: ast.Call) -> bool:
    for arg in list(node.args) + [kw.value for kw in node.keywords]:
        for inner in ast.walk(arg):
            if isinstance(inner, ast.Call):
                inner_name = call_name(inner)
                if inner_name in {"time", "time_ns", "monotonic", "urandom", "getpid"}:
                    return True
    return False


# -- R-GUARD -----------------------------------------------------------------


def _check_guard(parsed: ParsedModule, index: SummaryIndex, emit) -> None:
    quals = qualname_index(parsed.tree)
    for node, qual in quals.items():
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        validator_lines = [
            call.lineno
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and call_name(call) in VALIDATORS
        ]
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            name = call_name(call)
            if name not in SENSITIVE_CALLS:
                continue
            if any(line <= call.lineno for line in validator_lines):
                continue
            if index.all_guarded(name):
                continue
            emit(
                "R-GUARD",
                call,
                f"{name}() is not dominated by a membership/validation "
                "check (and no guarded implementation resolves)",
            )


# -- R-POOL ------------------------------------------------------------------


def _check_pool(parsed: ParsedModule, emit) -> None:
    if parsed.module != POOL_MODULE:
        return
    quals = qualname_index(parsed.tree)
    for node, qual in quals.items():
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.Name) and inner.id in POOL_RNG_NAMES:
                emit(
                    "R-POOL",
                    inner,
                    f"worker code references RNG type {inner.id!r}; jobs "
                    "must ship pre-drawn randomness",
                )
            elif isinstance(inner, ast.Call):
                name = call_name(inner)
                if (
                    isinstance(inner.func, ast.Attribute)
                    and name in POOL_RNG_METHODS
                ):
                    emit(
                        "R-POOL",
                        inner,
                        f"worker code draws randomness via .{name}(); jobs "
                        "must ship pre-drawn randomness",
                    )


# -- R-FLOAT -----------------------------------------------------------------


def _float_scope(module: str) -> bool:
    return module in FLOAT_FORBIDDEN_MODULES or any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in FLOAT_FORBIDDEN_PREFIXES
    )


def _check_float(parsed: ParsedModule, emit) -> None:
    if not _float_scope(parsed.module):
        return
    for node in ast.walk(parsed.tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            emit("R-FLOAT", node, f"float literal {node.value!r} in exact arithmetic")
        elif isinstance(node, ast.Call) and call_name(node) == "float":
            emit("R-FLOAT", node, "float() cast in exact arithmetic")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            emit(
                "R-FLOAT",
                node,
                "true division yields a float; use // or modular inverse",
            )


# -- R-EXCEPT ----------------------------------------------------------------

_BROAD = {"Exception", "BaseException"}


def _catches_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    names: Set[str] = set()
    if isinstance(handler.type, ast.Tuple):
        for elt in handler.type.elts:
            names.update(chain_names(elt))
    else:
        names.update(chain_names(handler.type))
    return bool(names & _BROAD)


def _check_except(parsed: ParsedModule, emit) -> None:
    for node in ast.walk(parsed.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if handler_bare(node):
            emit("R-EXCEPT", node, "bare except: can swallow a blamed abort")
            continue
        if _catches_broad(node) and not _reraises(node):
            emit(
                "R-EXCEPT",
                node,
                "except Exception without re-raise can swallow a blamed "
                "ProtocolAbort",
            )


def handler_bare(handler: ast.ExceptHandler) -> bool:
    return handler.type is None


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(node, ast.Raise) for node in ast.walk(handler))


# -- R-PICKLE ----------------------------------------------------------------

_UNPICKLERS = {"load", "loads", "Unpickler"}


def _check_pickle(parsed: ParsedModule, emit) -> None:
    modules: Set[str] = set()    # names bound to the pickle module
    functions: Set[str] = set()  # unpicklers imported by name
    for node in ast.walk(parsed.tree):
        if isinstance(node, ast.Import):
            modules.update(
                alias.asname or alias.name
                for alias in node.names if alias.name == "pickle"
            )
        elif isinstance(node, ast.ImportFrom) and node.module == "pickle":
            functions.update(
                alias.asname or alias.name
                for alias in node.names if alias.name in _UNPICKLERS
            )
    for node in ast.walk(parsed.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _UNPICKLERS
            and isinstance(func.value, ast.Name)
            and func.value.id in modules
        ) or (isinstance(func, ast.Name) and func.id in functions):
            emit(
                "R-PICKLE",
                node,
                "pickle load: unpickled bytes can run code; decode peer "
                "bytes with the wire codec or waive with the reason",
            )
