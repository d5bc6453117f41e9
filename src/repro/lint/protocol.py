"""Layer 2: protocol state-machine conformance (R-PROTO, R-CODEC).

The paper's protocol is a fixed message graph: every arrow in Fig. 1 has
a tag, a sending role, a receiving role, and a phase it belongs to
(gain → keying → comparison → chain → submission).  The tables below are
the *declared* graph — seeded from docs/PROTOCOL.md, the engine parties
(:mod:`repro.core.parties`) and the transport frame catalogue
(:mod:`repro.runtime.transport.frames`).  The extraction pass then
recovers the *implemented* graph from the AST:

* ``send``/``broadcast``/``recv``/``recv_from_all`` call sites in the
  protocol modules (tag = second positional argument), with the phase
  at each send site taken from the lexically latest ``set_phase`` call
  earlier in the same function (no ``set_phase`` in scope means the
  helper inherits its caller's phase and the check abstains);
* frame-kind references in the transport modules — a reference is a
  SEND when it is the first argument of a ``pack_*``/``*send*``/
  ``*broadcast*`` call, and a HANDLER when it appears in a comparison
  (``ftype == frames.MSG``) or as an argument of an ``expect`` call;
* wire-codec byte tags (single-letter ``b"S"`` style literals) split by
  encode-side vs decode-side methods of ``*Codec*`` classes, plus the
  ``registered_types`` table.

**R-PROTO** fires on the diff: a kind sent but never handled, handled
but never sent, sent under a phase the spec forbids, or not declared at
all.  **R-CODEC** fires on codec asymmetry: a byte tag with an encoder
but no decoder (or vice versa), a tag another codec emits that the v2
codec does not cover, and malformed ``registered_types`` entries.
"""

from __future__ import annotations

import ast
import string
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.parsing import ParsedModule, call_name, chain_names, qualname_index
from repro.lint.registry import (
    FRAMES_MODULE_SUFFIX,
    PROTOCOL_MODULE_PREFIXES,
    TRANSPORT_MODULE_PREFIX,
)

# -- declared protocol graph -------------------------------------------------


@dataclass(frozen=True)
class MessageKind:
    """One arrow of the protocol graph: tag, roles, and phase."""

    tag: str
    phase: str
    sender: str
    receiver: str


#: Legal phase order (a send may only occur under its declared phase).
PHASE_ORDER: Tuple[str, ...] = (
    "gain",
    "keying",
    "comparison",
    "chain",
    "submission",
    "aggregate",
)

#: The declared message graph — one entry per arrow in Fig. 1, mirroring
#: ``PHASE_BY_TAG`` in :mod:`repro.core.parties` (the conformance test
#: in tests/test_lint.py asserts the two stay identical).
PROTOCOL_SPEC: Dict[str, MessageKind] = {
    kind.tag: kind
    for kind in [
        MessageKind("dp-request", "gain", "participant", "initiator"),
        MessageKind("dp-response", "gain", "initiator", "participant"),
        MessageKind("pk-share", "keying", "participant", "participant"),
        MessageKind("zkp-commit", "keying", "participant", "participant"),
        MessageKind("zkp-challenge", "keying", "verifier", "prover"),
        MessageKind("zkp-response", "keying", "prover", "verifier"),
        MessageKind("zkp-nizk", "keying", "prover", "verifier"),
        MessageKind("beta-bits", "comparison", "participant", "participant"),
        MessageKind("tau-sets", "chain", "participant", "chain-head"),
        MessageKind("chain", "chain", "chain-node", "chain-successor"),
        MessageKind("final-set", "chain", "chain-tail", "participant"),
        MessageKind("submission", "submission", "participant", "initiator"),
        # Synthetic transcript tag for the sharded hierarchy's champion
        # aggregation; recorded, never carried by send/recv.
        MessageKind("shard-aggregate", "aggregate", "champion", "champion"),
        # The standalone identity-unlinkable sorting protocol (the
        # paper's contribution 3, core/sorting_protocol.py) reuses the
        # framework's phase-2 machinery under its own tags.
        MessageKind("sort-key", "keying", "participant", "participant"),
        MessageKind("sort-sets", "chain", "participant", "chain-head"),
        MessageKind("sort-chain", "chain", "chain-node", "chain-successor"),
        MessageKind("sort-final", "chain", "chain-tail", "participant"),
    ]
}


@dataclass(frozen=True)
class FrameKind:
    """One transport frame type and its declared direction."""

    name: str
    code: int
    direction: str  # "p2c", "c2p", or "both"


#: The declared transport frame catalogue (runtime/transport/frames.py).
FRAME_SPEC: Dict[str, FrameKind] = {
    kind.name: kind
    for kind in [
        FrameKind("HELLO", 1, "p2c"),
        FrameKind("WELCOME", 2, "c2p"),
        FrameKind("SPEC", 3, "c2p"),
        FrameKind("MSG", 4, "both"),
        FrameKind("STATUS", 5, "p2c"),
        FrameKind("PHASE", 6, "p2c"),
        FrameKind("DONE", 7, "p2c"),
        FrameKind("ABORTED", 8, "p2c"),
        FrameKind("DYING", 9, "p2c"),
        FrameKind("READY", 10, "p2c"),
        FrameKind("PEER_REJOINED", 11, "c2p"),
        FrameKind("RESEND", 12, "both"),
        FrameKind("ABORT", 13, "c2p"),
        FrameKind("SHUTDOWN", 14, "c2p"),
        FrameKind("HARVEST", 15, "c2p"),
        FrameKind("BETA", 16, "p2c"),
        FrameKind("BYE", 19, "p2c"),
    ]
}

SEND_CALLS = frozenset({"send", "broadcast"})
RECV_CALLS = frozenset({"recv", "recv_from_all"})


# -- shared extraction plumbing ----------------------------------------------


@dataclass
class _Ref:
    """One implemented occurrence of a message kind / frame kind."""

    parsed: ParsedModule
    node: ast.AST
    kind: str  # tag string or frame-kind name
    role: str  # "send" | "recv"
    phase: Optional[str] = None  # sends only; None = unknown/abstain


class _Emitter:
    def __init__(self) -> None:
        self.findings: List[Finding] = []
        self._symbols: Dict[int, Dict[ast.AST, str]] = {}

    def _symbol_for(self, parsed: ParsedModule, node: ast.AST) -> str:
        quals = self._symbols.setdefault(
            id(parsed), qualname_index(parsed.tree)
        )
        best, best_span = "<module>", None
        lineno = getattr(node, "lineno", 0)
        for candidate, qual in quals.items():
            start = getattr(candidate, "lineno", 0)
            end = getattr(candidate, "end_lineno", start)
            if start <= lineno <= end:
                span = end - start
                if best_span is None or span < best_span:
                    best, best_span = qual, span
        return best

    def emit(
        self, rule: str, parsed: ParsedModule, node: ast.AST, message: str
    ) -> None:
        lineno = getattr(node, "lineno", 1)
        self.findings.append(
            Finding(
                rule=rule,
                path=parsed.rel_path,
                line=lineno,
                col=getattr(node, "col_offset", 0) + 1,
                symbol=self._symbol_for(parsed, node),
                message=message,
                snippet=parsed.snippet(lineno),
                end_line=getattr(node, "end_lineno", lineno),
            )
        )


def _starts_with_any(module: str, prefixes: Sequence[str]) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


def _module_constants(
    modules: Sequence[ParsedModule],
) -> Dict[str, Dict[str, str]]:
    """``TAG_*``/``PHASE_*`` string constants defined at module level,
    keyed per module — the sorting baseline redefines ``TAG_CHAIN``
    locally, so a merged table would clobber the framework's value."""
    tables: Dict[str, Dict[str, str]] = {}
    for parsed in modules:
        table = tables.setdefault(parsed.module, {})
        for stmt in parsed.tree.body:
            if not isinstance(stmt, ast.Assign):
                continue
            if not (
                isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            ):
                continue
            for target in stmt.targets:
                if isinstance(target, ast.Name) and (
                    target.id.startswith("TAG_")
                    or target.id.startswith("PHASE_")
                ):
                    table[target.id] = stmt.value.value
    return tables


def _resolve_symbolic(name: str, constants: Dict[str, str]) -> str:
    """Value of a ``TAG_X``/``PHASE_X`` name: the defining module's own
    constant when present (local redefinitions win), else the naming
    convention (``TAG_DP_REQUEST`` -> ``dp-request``) — which covers
    cross-module imports and lets fixture trees skip the constant
    table."""
    if name in constants:
        return constants[name]
    if name.startswith("TAG_"):
        return name[len("TAG_"):].lower().replace("_", "-")
    return name[len("PHASE_"):].lower()


def _literal_arg(node: ast.AST, constants: Dict[str, str]) -> Optional[str]:
    """String value of a tag/phase argument: a literal, or a symbolic
    ``TAG_*``/``PHASE_*`` name (possibly attribute-qualified)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    if name and (name.startswith("TAG_") or name.startswith("PHASE_")):
        return _resolve_symbolic(name, constants)
    return None


# -- tag graph extraction (protocol modules) ---------------------------------


def _innermost_function(
    quals: Dict[ast.AST, str], lineno: int
) -> Optional[ast.AST]:
    best, best_span = None, None
    for candidate in quals:
        if not isinstance(candidate, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        start = candidate.lineno
        end = getattr(candidate, "end_lineno", start)
        if start <= lineno <= end:
            span = end - start
            if best_span is None or span < best_span:
                best, best_span = candidate, span
    return best


def _extract_tag_refs(
    modules: Sequence[ParsedModule],
    tables: Dict[str, Dict[str, str]],
) -> List[_Ref]:
    refs: List[_Ref] = []
    for parsed in modules:
        if not _starts_with_any(parsed.module, PROTOCOL_MODULE_PREFIXES):
            continue
        constants = tables.get(parsed.module, {})
        quals = qualname_index(parsed.tree)
        # set_phase sites keyed by their innermost enclosing function.
        phase_sites: Dict[Optional[int], List[Tuple[int, str]]] = {}
        for node in ast.walk(parsed.tree):
            if not isinstance(node, ast.Call):
                continue
            if call_name(node) == "set_phase" and node.args:
                phase = _literal_arg(node.args[0], constants)
                if phase is not None:
                    owner = _innermost_function(quals, node.lineno)
                    phase_sites.setdefault(
                        id(owner) if owner else None, []
                    ).append((node.lineno, phase))
        for node in ast.walk(parsed.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name not in SEND_CALLS and name not in RECV_CALLS:
                continue
            if len(node.args) < 2:
                continue
            tag = _literal_arg(node.args[1], constants)
            if tag is None:
                continue
            role = "send" if name in SEND_CALLS else "recv"
            phase: Optional[str] = None
            if role == "send":
                owner = _innermost_function(quals, node.lineno)
                sites = phase_sites.get(id(owner) if owner else None, [])
                preceding = [p for line, p in sites if line <= node.lineno]
                if preceding:
                    phase = preceding[-1]
            refs.append(_Ref(parsed, node, tag, role, phase))
    return refs


def _check_tags(refs: List[_Ref], emitter: _Emitter) -> None:
    sent = {ref.kind for ref in refs if ref.role == "send"}
    received = {ref.kind for ref in refs if ref.role == "recv"}
    for ref in refs:
        kind = PROTOCOL_SPEC.get(ref.kind)
        if kind is None:
            emitter.emit(
                "R-PROTO",
                ref.parsed,
                ref.node,
                f"message tag '{ref.kind}' is not declared in the protocol"
                " spec (lint/protocol.py PROTOCOL_SPEC)",
            )
            continue
        if ref.role == "send":
            if ref.kind not in received:
                emitter.emit(
                    "R-PROTO",
                    ref.parsed,
                    ref.node,
                    f"message tag '{ref.kind}' is sent here but no recv"
                    " path handles it",
                )
            if ref.phase is not None and ref.phase != kind.phase:
                emitter.emit(
                    "R-PROTO",
                    ref.parsed,
                    ref.node,
                    f"message tag '{ref.kind}' sent under phase"
                    f" '{ref.phase}'; the spec binds it to phase"
                    f" '{kind.phase}'",
                )
        elif ref.kind not in sent:
            emitter.emit(
                "R-PROTO",
                ref.parsed,
                ref.node,
                f"message tag '{ref.kind}' is handled here but nothing"
                " ever sends it",
            )


# -- frame graph extraction (transport modules) ------------------------------


def _frame_constant_defs(
    modules: Sequence[ParsedModule],
) -> Dict[str, int]:
    """UPPER = <int literal> module-level assigns in ``*.frames``."""
    kinds: Dict[str, int] = {}
    for parsed in modules:
        if not parsed.module.endswith(FRAMES_MODULE_SUFFIX):
            continue
        for stmt in parsed.tree.body:
            if not isinstance(stmt, ast.Assign):
                continue
            if not (
                isinstance(stmt.value, ast.Constant)
                and type(stmt.value.value) is int
            ):
                continue
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    kinds[target.id] = stmt.value.value
    return kinds


def _frame_ref_name(
    node: ast.AST, parsed: ParsedModule, known: Set[str]
) -> Optional[str]:
    """Frame-kind name referenced by ``node``: ``frames.MSG``-style
    attributes anywhere in transport code; bare upper-case names only
    inside the ``*.frames`` module itself."""
    if isinstance(node, ast.Attribute) and node.attr in known:
        if "frames" in chain_names(node.value) or isinstance(
            node.value, ast.Name
        ):
            return node.attr
    if (
        isinstance(node, ast.Name)
        and node.id in known
        and parsed.module.endswith(FRAMES_MODULE_SUFFIX)
    ):
        return node.id
    return None


def _is_frame_send_call(name: str) -> bool:
    return name.startswith("pack_") or "send" in name or "broadcast" in name


def _extract_frame_refs(
    modules: Sequence[ParsedModule], known: Set[str]
) -> List[_Ref]:
    refs: List[_Ref] = []
    for parsed in modules:
        if not _starts_with_any(parsed.module, (TRANSPORT_MODULE_PREFIX,)):
            continue
        for node in ast.walk(parsed.tree):
            if isinstance(node, ast.Call):
                name = call_name(node)
                if _is_frame_send_call(name) and node.args:
                    kind = _frame_ref_name(node.args[0], parsed, known)
                    if kind is not None:
                        refs.append(_Ref(parsed, node, kind, "send"))
                elif name == "expect":
                    for arg in node.args:
                        kind = _frame_ref_name(arg, parsed, known)
                        if kind is not None:
                            refs.append(_Ref(parsed, node, kind, "recv"))
            elif isinstance(node, ast.Compare):
                for side in [node.left] + list(node.comparators):
                    kind = _frame_ref_name(side, parsed, known)
                    if kind is not None:
                        refs.append(_Ref(parsed, node, kind, "recv"))
    return refs


def _check_frames(refs: List[_Ref], emitter: _Emitter) -> None:
    sent = {ref.kind for ref in refs if ref.role == "send"}
    handled = {ref.kind for ref in refs if ref.role == "recv"}
    for ref in refs:
        if ref.kind not in FRAME_SPEC:
            emitter.emit(
                "R-PROTO",
                ref.parsed,
                ref.node,
                f"frame kind {ref.kind} is not declared in the transport"
                " spec (lint/protocol.py FRAME_SPEC)",
            )
            continue
        if ref.role == "send" and ref.kind not in handled:
            emitter.emit(
                "R-PROTO",
                ref.parsed,
                ref.node,
                f"frame kind {ref.kind} is sent here but no dispatch"
                " branch or expect() ever handles it",
            )
        elif ref.role == "recv" and ref.kind not in sent:
            emitter.emit(
                "R-PROTO",
                ref.parsed,
                ref.node,
                f"frame kind {ref.kind} is handled here but nothing ever"
                " sends it",
            )


# -- wire-codec conformance (R-CODEC) ----------------------------------------


def _byte_tags(method: ast.AST) -> Dict[str, int]:
    """Single-ASCII-letter bytes literals in a method -> first line."""
    tags: Dict[str, int] = {}
    for node in ast.walk(method):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, bytes)
            and len(node.value) == 1
            and chr(node.value[0]) in string.ascii_letters
        ):
            tags.setdefault(chr(node.value[0]), node.lineno)
    return tags


def _check_codecs(
    modules: Sequence[ParsedModule], emitter: _Emitter
) -> None:
    codec_classes: List[Tuple[ParsedModule, ast.ClassDef]] = []
    for parsed in modules:
        for node in ast.walk(parsed.tree):
            if isinstance(node, ast.ClassDef) and "Codec" in node.name:
                codec_classes.append((parsed, node))

    encode_sides: Dict[str, Set[str]] = {}
    per_class: List[Tuple[ParsedModule, ast.ClassDef, Dict[str, int], Dict[str, int]]] = []
    for parsed, cls in codec_classes:
        encode_tags: Dict[str, int] = {}
        decode_tags: Dict[str, int] = {}
        has_decoder = False
        for child in cls.body:
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if child.name.lstrip("_").startswith("encode"):
                for tag, line in _byte_tags(child).items():
                    encode_tags.setdefault(tag, line)
            elif child.name.lstrip("_").startswith("decode"):
                has_decoder = True
                for tag, line in _byte_tags(child).items():
                    decode_tags.setdefault(tag, line)
        if not has_decoder:
            continue  # not a full codec (encoder-only helper class)
        encode_sides[cls.name] = set(encode_tags)
        per_class.append((parsed, cls, encode_tags, decode_tags))

    for parsed, cls, encode_tags, decode_tags in per_class:
        for tag in sorted(set(encode_tags) - set(decode_tags)):
            node = _line_anchor(cls, encode_tags[tag])
            emitter.emit(
                "R-CODEC",
                parsed,
                node,
                f"{cls.name} encodes wire tag '{tag}' but its decode"
                " path never accepts it (silent interop break)",
            )
        for tag in sorted(set(decode_tags) - set(encode_tags)):
            node = _line_anchor(cls, decode_tags[tag])
            emitter.emit(
                "R-CODEC",
                parsed,
                node,
                f"{cls.name} decodes wire tag '{tag}' that its encoder"
                " never produces (dead or drifted format)",
            )

    # Cross-codec coverage: everything any codec emits must be covered
    # by the v2 codec (the transport's on-the-wire format).
    v2 = [entry for entry in per_class if "V2" in entry[1].name]
    if v2:
        v2_tags: Set[str] = set()
        for _, cls, encode_tags, _ in v2:
            v2_tags.update(encode_tags)
        for parsed, cls, encode_tags, _ in per_class:
            if "V2" in cls.name:
                continue
            for tag in sorted(set(encode_tags) - v2_tags):
                node = _line_anchor(cls, encode_tags[tag])
                emitter.emit(
                    "R-CODEC",
                    parsed,
                    node,
                    f"wire tag '{tag}' encoded by {cls.name} is not"
                    " covered by the v2 codec",
                )

    _check_registered_types(modules, emitter)


@dataclass
class _Anchor:
    lineno: int
    col_offset: int = 0
    end_lineno: Optional[int] = None


def _line_anchor(cls: ast.ClassDef, lineno: int) -> ast.AST:
    anchor = _Anchor(lineno=lineno)
    anchor.end_lineno = lineno
    return anchor  # type: ignore[return-value]


def _check_registered_types(
    modules: Sequence[ParsedModule], emitter: _Emitter
) -> None:
    """The tag-O registry: every entry must name a distinct class and a
    non-empty field tuple (id = position, append-only)."""
    for parsed in modules:
        for node in ast.walk(parsed.tree):
            if (
                not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                or node.name != "registered_types"
            ):
                continue
            seen: Dict[str, int] = {}
            for tup in ast.walk(node):
                if not isinstance(tup, ast.Tuple) or len(tup.elts) != 2:
                    continue
                cls_ref, fields = tup.elts
                cls_name = None
                if isinstance(cls_ref, ast.Name):
                    cls_name = cls_ref.id
                elif isinstance(cls_ref, ast.Attribute):
                    cls_name = cls_ref.attr
                if cls_name is None or not isinstance(fields, ast.Tuple):
                    continue
                if cls_name in seen:
                    emitter.emit(
                        "R-CODEC",
                        parsed,
                        tup,
                        f"registered_types lists {cls_name} twice (ids are"
                        f" positional; first at line {seen[cls_name]})",
                    )
                seen.setdefault(cls_name, tup.lineno)
                if not fields.elts:
                    emitter.emit(
                        "R-CODEC",
                        parsed,
                        tup,
                        f"registered_types entry for {cls_name} has no"
                        " fields; a decoded object would be rebuilt from"
                        " nothing",
                    )


# -- entry point -------------------------------------------------------------


def check_modules(modules: Sequence[ParsedModule]) -> List[Finding]:
    """Cross-module spec-vs-implementation diff over a parsed tree."""
    emitter = _Emitter()
    tables = _module_constants(modules)
    _check_tags(_extract_tag_refs(modules, tables), emitter)
    known = set(FRAME_SPEC) | set(_frame_constant_defs(modules))
    _check_frames(_extract_frame_refs(modules, known), emitter)
    _check_codecs(modules, emitter)
    return emitter.findings
