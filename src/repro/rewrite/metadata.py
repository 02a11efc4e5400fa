"""Typed payload records carried in the rewrite schedule's data pool.

Rules are fixed-length (address, id, 64-bit data); anything richer — loop
metadata, bounds-check descriptors, privatisation groups — lives in the
schedule's data pool, addressed by index from the rule's data field.  The
records here are the contract between the static analyser's rule generators
and the DBM's runtime handlers, and the one place that knows their format:
every record is a dataclass whose pool form is ``(TAG, *fields)``
(:class:`PoolRecord`), and :data:`RULE_PAYLOAD` says which record each
pool-indexing rule points at.

Variables are encoded as ``("r", register_id)`` or ``("s", slot_offset)``;
runtime-evaluable polynomials (paper Fig. 4's symbolic ranges) become lists
of ``(coefficient, (var, var, ...))`` monomials whose variables the runtime
reads directly from the context at loop entry.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass, field
from typing import ClassVar

from repro.isa.operands import Imm, Mem, Reg
from repro.analysis.expr import Poly
from repro.rewrite.rules import RuleID


class MetadataError(Exception):
    """Raised when a polynomial or operand cannot be encoded for runtime
    use, or a pool record does not decode as the record expected."""


# -- variable codes -----------------------------------------------------------

def encode_var(var) -> tuple:
    """Encode an analysis variable (register id or ("stack", off))."""
    if isinstance(var, int):
        return ("r", var)
    if isinstance(var, tuple) and var[0] == "stack":
        return ("s", var[1])
    raise MetadataError(f"unencodable variable {var!r}")


def decode_var(code: tuple):
    kind, value = code
    if kind == "r":
        return value
    if kind == "s":
        return ("stack", value)
    raise MetadataError(f"bad variable code {code!r}")


# -- runtime polynomials ------------------------------------------------------

def poly_to_runtime(poly: Poly, depth: int = 0) -> list:
    """Lower a runtime-evaluable polynomial to its on-disk form.

    Symbols may be ``("livein", var, version)`` — by the SSA live-in
    argument (see :mod:`repro.analysis.expr`) the runtime reads the
    variable at loop entry — or loop-invariant ``("load", address_key)``
    symbols, lowered to a nested address polynomial the runtime evaluates
    and dereferences.
    """
    from repro.analysis.expr import poly_from_key

    if depth > 4:
        raise MetadataError("load-symbol nesting too deep")
    form = []
    for mono, coeff in sorted(poly.terms.items(), key=repr):
        vars_ = []
        for symbol in mono:
            if symbol[0] == "livein":
                vars_.append(encode_var(symbol[1]))
            elif symbol[0] == "load":
                nested = poly_to_runtime(poly_from_key(symbol[1]),
                                         depth + 1)
                vars_.append(("m", nested))
            else:
                raise MetadataError(
                    f"symbol {symbol!r} is not evaluable at loop entry")
        form.append((coeff, tuple(vars_)))
    return form


def evaluate_runtime_poly(form, read_var, read_mem=None) -> int:
    """Evaluate a runtime polynomial.

    ``read_var(var) -> int`` supplies register/stack values; ``read_mem``
    (addr -> int) resolves nested invariant-load terms.
    """
    total = 0
    for coeff, vars_ in form:
        term = coeff
        for code in vars_:
            code = tuple(code)
            if code[0] == "m":
                if read_mem is None:
                    raise MetadataError("load term without memory reader")
                addr = evaluate_runtime_poly(code[1], read_var, read_mem)
                term *= read_mem(addr)
            else:
                term *= read_var(decode_var(code))
        total += term
    return total


# -- operand encoding ----------------------------------------------------------

def encode_operand(op) -> tuple:
    if isinstance(op, Imm):
        return ("imm", op.value)
    if isinstance(op, Reg):
        return ("reg", op.id)
    if isinstance(op, Mem):
        return ("mem", op.base if op.base is not None else -1,
                op.index if op.index is not None else -1, op.scale, op.disp)
    raise MetadataError(f"unencodable operand {op!r}")


def decode_operand(record: tuple):
    kind = record[0]
    if kind == "imm":
        return Imm(record[1])
    if kind == "reg":
        return Reg(record[1])
    if kind == "mem":
        _, base, index, scale, disp = record
        return Mem(base=None if base < 0 else base,
                   index=None if index < 0 else index,
                   scale=scale, disp=disp)
    raise MetadataError(f"bad operand record {record!r}")


# -- the record codec ---------------------------------------------------------

class PoolRecord:
    """A pool payload, encoded as ``(TAG, *fields)`` in declaration order
    (dense, for paper Fig. 10's pool bytes).  Nested records and lists of
    records encode as their own tuples; other fields are stored as they
    stand and decode converted by annotation (``tuple``, ``list``).
    ``TAG = None`` (:class:`RangeSide`, only ever nested) drops the tag.
    """

    TAG: ClassVar[str | None] = None
    # Set by pool_record: (name, encoder or None) per field, and
    # (position, decoder) for just the fields decoding converts.
    _ENCODERS: ClassVar[tuple] = ()
    _DECODERS: ClassVar[tuple] = ()

    def to_record(self) -> tuple:
        values = tuple(getattr(self, name) if encode is None
                       else encode(getattr(self, name))
                       for name, encode in self._ENCODERS)
        return values if self.TAG is None else (self.TAG, *values)

    @classmethod
    def from_record(cls, rec):
        try:
            values = list(rec)
            if cls.TAG is not None and values.pop(0) != cls.TAG:
                raise MetadataError(f"{cls.__name__} record has tag "
                                    f"{rec[0]!r}, expected {cls.TAG!r}")
            if len(values) != len(cls._ENCODERS):
                raise MetadataError(
                    f"{cls.__name__} record has {len(values)} fields, "
                    f"expected {len(cls._ENCODERS)}")
            for position, decode in cls._DECODERS:
                values[position] = decode(values[position])
            return cls(*values)
        except (TypeError, ValueError, IndexError) as exc:
            raise MetadataError(f"{cls.__name__} record: {exc}") from None


def _field_codec(kind) -> tuple:
    """(encoder, decoder) for one annotated field; ``None`` = as stored."""
    origin = typing.get_origin(kind) or kind
    item = (typing.get_args(kind) or (None,))[0]
    if isinstance(origin, type) and issubclass(origin, PoolRecord):
        return origin.to_record, origin.from_record
    if origin is list and isinstance(item, type) \
            and issubclass(item, PoolRecord):
        return ((lambda records: [r.to_record() for r in records]),
                (lambda records: [item.from_record(r) for r in records]))
    return None, (origin if origin in (tuple, list) else None)


def pool_record(cls):
    """Declare a :class:`PoolRecord` subclass: a dataclass plus its codec."""
    cls = dataclass(cls)
    hints = typing.get_type_hints(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    codecs = [_field_codec(hints[name]) for name in names]
    cls._ENCODERS = tuple((name, encode)
                          for name, (encode, _) in zip(names, codecs))
    cls._DECODERS = tuple((position, decode)
                          for position, (_, decode) in enumerate(codecs)
                          if decode is not None)
    return cls


# -- records --------------------------------------------------------------------

@pool_record
class ReductionDesc(PoolRecord):
    """A register (or slot) reduction merged at LOOP_FINISH."""

    TAG = "red"
    var: tuple  # encoded variable
    op: str  # "+" only (paper: add/sub reductions)
    is_float: bool = False


@pool_record
class DerivedIVDesc(PoolRecord):
    """A secondary basic induction variable (set per chunk at LOOP_INIT)."""

    TAG = "iv"
    var: tuple
    step: int


@pool_record
class PrivGroupDesc(PoolRecord):
    """One loop-invariant memory word privatised into thread-local storage."""

    TAG = "priv"
    tls_slot: int
    address_form: list  # runtime polynomial for the real address
    kind: str  # "priv" (write-first) or "reduce" (merged additively)
    is_float: bool = False


@pool_record
class RangeSide(PoolRecord):
    """One side of a bounds check: a base plus per-iteration extents."""

    base_form: list  # runtime polynomial
    # (theta_coefficient, constant_offset, lanes) per access in the group.
    extents: list


@pool_record
class BoundsCheckDesc(PoolRecord):
    """A MEM_BOUNDS_CHECK payload: two ranges that must not overlap."""

    TAG = "bc"
    loop_id: int
    write_side: RangeSide
    other_side: RangeSide


@pool_record
class VectorMeta(PoolRecord):
    """Everything the runtime needs to run one loop's packed rewrite.

    Mirrors the iterator/bound description of :class:`LoopMeta` (the
    VECT_INIT trap re-reads the live bound exactly like LOOP_ENTER does)
    plus the vector-specific facts: lane width, the scratch-word ordinal
    holding the packed bound, and the invariant xmm registers whose lane 0
    is broadcast across the packed lanes for the duration of the loop.
    """

    TAG = "vec"
    loop_id: int
    header_addr: int
    preheader_addr: int
    exit_target: int
    iterator_var: tuple
    step: int
    cond: str
    test_offset: int
    test_position: str
    bound_form: tuple
    cmp_address: int
    iv_operand_index: int
    delta_header: int
    lanes: int
    # Index of this loop's packed-bound scratch word (see dbm/runtime.py).
    ordinal: int
    broadcast_regs: list[int] = field(default_factory=list)


@pool_record
class PrefetchDesc(PoolRecord):
    """A MEM_PREFETCH payload: where the hint aims relative to its access.

    ``stride`` is the covered access's per-iteration advance in bytes and
    ``distance`` the hint distance in iterations, so the inserted PREFETCH
    targets the access's address displaced by ``stride * distance``.
    """

    TAG = "pf"
    loop_id: int
    access_address: int
    stride: int
    distance: int


@pool_record
class AffineAccessDesc(PoolRecord):
    """A loop access statically proven affine in the iterator.

    The compiled shadow tier (:mod:`repro.dbm.shadow`) skips the site at
    ``address`` entirely and instead materialises one stride descriptor
    per chunk: the access at iteration ``i`` touches
    ``base + theta_coeff * i`` (evaluated against the worker's live-in
    state), so a chunk of ``trips`` iterations collapses to
    ``(first, theta_coeff * step, trips)``.  ``header_extra`` marks
    accesses in a top-tested loop's header block, which execute once more
    per chunk (on the failing test).
    """

    TAG = "aff"
    address: int
    is_write: bool
    lanes: int
    base_form: list  # runtime polynomial for the iteration-0 address
    theta_coeff: int
    header_extra: bool = False


@pool_record
class LoopMeta(PoolRecord):
    """Everything the runtime needs to execute one loop in parallel."""

    TAG = "loop"
    loop_id: int
    header_addr: int
    preheader_addr: int
    exit_target: int
    # Iterator description.
    iterator_var: tuple
    step: int
    cond: str
    test_offset: int
    test_position: str
    # How the runtime obtains the loop bound at entry, in preference order:
    # ("imm", value) for constants, ("poly", runtime form) when the bound
    # polynomial is live-in evaluable (the cmp operand itself may be a
    # register recomputed inside the loop body), ("operand", encoded) as a
    # last resort for invariant memory operands.
    bound_form: tuple
    cmp_address: int
    # Which cmp operand position holds the iterator (0 or 1).
    iv_operand_index: int
    static_trips: int  # -1 when only known at runtime
    # rsp delta (relative to function entry) at the loop header.
    delta_header: int
    derived_ivs: list[DerivedIVDesc] = field(default_factory=list)
    reductions: list[ReductionDesc] = field(default_factory=list)
    written_slots: list[int] = field(default_factory=list)
    readonly_slots: list[int] = field(default_factory=list)
    priv_groups: list[PrivGroupDesc] = field(default_factory=list)
    bounds_check_indices: list[int] = field(default_factory=list)
    stm_sites: list[int] = field(default_factory=list)
    affine_accesses: list[AffineAccessDesc] = field(default_factory=list)


@pool_record
class MemSiteDesc(PoolRecord):
    """A PROF_MEM_ACCESS payload: one memory access the profiler logs."""

    TAG = "pm"
    loop_id: int
    operand: tuple  # encode_operand form of the accessing Mem operand
    is_write: bool
    lanes: int


@pool_record
class ExCallDesc(PoolRecord):
    """A PROF_EXCALL_START/FINISH payload: one profiled call window."""

    TAG = "pe"
    loop_id: int
    name: str  # import name, or ``fn_<target>`` for an internal call


@pool_record
class MainStackDesc(PoolRecord):
    """A MEM_MAIN_STACK payload: the read's displacement from main rsp."""

    TAG = "ms"
    disp: int


@pool_record
class PrivSlotDesc(PoolRecord):
    """A MEM_PRIVATISE payload: the TLS slot an access is redirected to."""

    TAG = "mp"
    tls_slot: int


@pool_record
class SpillDesc(PoolRecord):
    """A MEM_SPILL_REG/MEM_RECOVER_REG payload: registers and the first
    TLS slot of the consecutive slots they spill to."""

    TAG = "spill"
    regs: list[int]
    base_slot: int


# The payload record each pool-indexing rule's data field points at.  The
# other rules carry an immediate: a loop id or a lane count.
RULE_PAYLOAD: dict[RuleID, type[PoolRecord]] = {
    RuleID.PROF_MEM_ACCESS: MemSiteDesc,
    RuleID.MEM_MAIN_STACK: MainStackDesc,
    RuleID.MEM_PRIVATISE: PrivSlotDesc,
    RuleID.MEM_BOUNDS_CHECK: BoundsCheckDesc,
    RuleID.MEM_PREFETCH: PrefetchDesc,
    **dict.fromkeys((RuleID.PROF_EXCALL_START, RuleID.PROF_EXCALL_FINISH),
                    ExCallDesc),
    **dict.fromkeys((RuleID.MEM_SPILL_REG, RuleID.MEM_RECOVER_REG),
                    SpillDesc),
    **dict.fromkeys((RuleID.VECT_INIT, RuleID.VECT_BOUND,
                     RuleID.VECT_FINISH), VectorMeta),
    **dict.fromkeys((RuleID.LOOP_INIT, RuleID.THREAD_SCHEDULE,
                     RuleID.LOOP_UPDATE_BOUND, RuleID.TX_START,
                     RuleID.TX_FINISH, RuleID.THREAD_YIELD,
                     RuleID.LOOP_FINISH), LoopMeta),
}


def payload(schedule, rule):
    """The decoded payload a pool-indexing rule points at."""
    return RULE_PAYLOAD[rule.rule_id].from_record(schedule.record(rule.data))


def decode_payloads(schedule, *rule_ids: RuleID) -> dict:
    """Pool index -> decoded payload of every rule of the given IDs, each
    record decoded once: runtimes look payloads up here per trap."""
    decoded: dict = {}
    for rule in schedule.rules:
        if rule.rule_id in rule_ids and rule.data not in decoded:
            decoded[rule.data] = payload(schedule, rule)
    return decoded
