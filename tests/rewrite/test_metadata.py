"""Tests for rewrite-schedule metadata records and runtime polynomials."""

import pytest

from repro.analysis.expr import Poly, poly_from_key, runtime_evaluable
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import R
from repro.rewrite.metadata import (
    RULE_PAYLOAD,
    AffineAccessDesc,
    BoundsCheckDesc,
    DerivedIVDesc,
    ExCallDesc,
    LoopMeta,
    MainStackDesc,
    MemSiteDesc,
    MetadataError,
    PrefetchDesc,
    PrivGroupDesc,
    PrivSlotDesc,
    RangeSide,
    ReductionDesc,
    SpillDesc,
    VectorMeta,
    decode_operand,
    decode_var,
    encode_operand,
    encode_var,
    evaluate_runtime_poly,
    poly_to_runtime,
)

LIVEIN_RAX = ("livein", R.rax, 0)
LIVEIN_SLOT = ("livein", ("stack", -16), 2)


class TestVarCodes:
    def test_register_round_trip(self):
        assert decode_var(encode_var(R.rbx)) == R.rbx

    def test_slot_round_trip(self):
        assert decode_var(encode_var(("stack", -24))) == ("stack", -24)

    def test_bad_code(self):
        with pytest.raises(MetadataError):
            decode_var(("x", 1))


class TestOperandCodes:
    @pytest.mark.parametrize("operand", [
        Imm(42), Reg(R.rsi),
        Mem(base=R.r8, index=R.rcx, scale=8, disp=-16),
        Mem(disp=0x10000000),
    ])
    def test_round_trip(self, operand):
        assert decode_operand(encode_operand(operand)) == operand


class TestRuntimePoly:
    def read_var(self, var):
        if var == R.rax:
            return 10
        if var == ("stack", -16):
            return 3
        raise AssertionError(var)

    def test_linear(self):
        poly = Poly.sym(LIVEIN_RAX).scale(8) + Poly.const(100)
        form = poly_to_runtime(poly)
        assert evaluate_runtime_poly(form, self.read_var) == 180

    def test_product_of_liveins(self):
        product = Poly.sym(LIVEIN_RAX) * Poly.sym(LIVEIN_SLOT)
        form = poly_to_runtime(product)
        assert evaluate_runtime_poly(form, self.read_var) == 30

    def test_load_symbol_dereferences(self):
        # value at address (rax + 8) -- a memory-held base.
        addr_poly = Poly.sym(LIVEIN_RAX) + Poly.const(8)
        load_sym = ("load", addr_poly.key())
        poly = Poly.sym(load_sym).scale(2)
        form = poly_to_runtime(poly)
        memory = {18: 21}
        value = evaluate_runtime_poly(form, self.read_var,
                                      read_mem=lambda a: memory[a])
        assert value == 42

    def test_load_without_reader_raises(self):
        addr_poly = Poly.const(8)
        poly = Poly.sym(("load", addr_poly.key()))
        form = poly_to_runtime(poly)
        with pytest.raises(MetadataError):
            evaluate_runtime_poly(form, self.read_var)

    def test_opaque_symbol_rejected(self):
        poly = Poly.sym(("opaque", "x"))
        with pytest.raises(MetadataError):
            poly_to_runtime(poly)
        assert not runtime_evaluable(poly)

    def test_poly_from_key_round_trip(self):
        poly = Poly.sym(LIVEIN_RAX).scale(3) + Poly.const(-7)
        assert poly_from_key(poly.key()) == poly

    def test_runtime_evaluable_nested_load(self):
        inner = Poly.sym(LIVEIN_RAX)
        outer = Poly.sym(("load", inner.key()))
        assert runtime_evaluable(outer)
        bad = Poly.sym(("load", Poly.sym(("opaque", "z")).key()))
        assert not runtime_evaluable(bad)


class TestLoopMetaRecord:
    def test_round_trip(self):
        meta = LoopMeta(
            loop_id=3, header_addr=0x400100, preheader_addr=0x4000F0,
            exit_target=0x400200, iterator_var=("r", R.rcx), step=2,
            cond="l", test_offset=2, test_position="bottom",
            bound_form=("imm", 128), cmp_address=0x400150,
            iv_operand_index=0, static_trips=64, delta_header=-32,
            written_slots=[0, 8], readonly_slots=[-16],
            stm_sites=[0x400120],
        )
        clone = LoopMeta.from_record(meta.to_record())
        assert clone == meta

    def test_survives_cereal(self):
        from repro.rewrite import cereal

        meta = LoopMeta(
            loop_id=0, header_addr=1, preheader_addr=2, exit_target=3,
            iterator_var=("r", 1), step=1, cond="le", test_offset=1,
            test_position="top", bound_form=("poly", [(8, (("r", 2),))]),
            cmp_address=4, iv_operand_index=1, static_trips=-1,
            delta_header=0)
        record = cereal.loads(cereal.dumps(meta.to_record()))
        assert LoopMeta.from_record(record) == meta


# -- every pool record against the tuple it has always encoded to -----------

_RED = ReductionDesc(var=("r", R.xmm0), op="+", is_float=True)
_IV = DerivedIVDesc(var=("s", -16), step=8)
_PRIV = PrivGroupDesc(tls_slot=2, address_form=[(1, (("r", R.rbx),)),
                                                (16, ())], kind="reduce")
_WRITE_SIDE = RangeSide(base_form=[(1, (("r", R.rsi),)), (64, ())],
                        extents=[(8, 0, 1), (8, 8, 2)])
_OTHER_SIDE = RangeSide(base_form=[(1, (("m", [(1, (("s", -24),))]),))],
                        extents=[(-8, 16, 1)])
_AFF = AffineAccessDesc(address=0x400130, is_write=True, lanes=2,
                        base_form=[(8, (("r", R.rdi),))], theta_coeff=16,
                        header_extra=True)

# Each record beside the literal tuple it encoded to before the records
# shared one codec: the pool bytes of paper Fig. 10 must not move.
RECORDS = [
    (_RED, ("red", ("r", 16), "+", True)),
    (_IV, ("iv", ("s", -16), 8)),
    (_PRIV, ("priv", 2, [(1, (("r", 3),)), (16, ())], "reduce", False)),
    (_WRITE_SIDE, ([(1, (("r", 6),)), (64, ())], [(8, 0, 1), (8, 8, 2)])),
    (BoundsCheckDesc(loop_id=4, write_side=_WRITE_SIDE,
                     other_side=_OTHER_SIDE),
     ("bc", 4, ([(1, (("r", 6),)), (64, ())], [(8, 0, 1), (8, 8, 2)]),
      ([(1, (("m", [(1, (("s", -24),))]),))], [(-8, 16, 1)]))),
    (VectorMeta(loop_id=2, header_addr=0x400200, preheader_addr=0x4001F0,
                exit_target=0x400260, iterator_var=("r", R.rcx), step=1,
                cond="l", test_offset=1, test_position="bottom",
                bound_form=("poly", [(1, (("r", R.rdx),))]),
                cmp_address=0x400250, iv_operand_index=0, delta_header=-8,
                lanes=4, ordinal=1, broadcast_regs=[R.xmm1]),
     ("vec", 2, 4194816, 4194800, 4194912, ("r", 1), 1, "l", 1, "bottom",
      ("poly", [(1, (("r", 2),))]), 4194896, 0, -8, 4, 1, [17])),
    (PrefetchDesc(loop_id=1, access_address=0x400120, stride=8,
                  distance=16),
     ("pf", 1, 4194592, 8, 16)),
    (_AFF, ("aff", 4194608, True, 2, [(8, (("r", 7),))], 16, True)),
    (LoopMeta(loop_id=3, header_addr=0x400100, preheader_addr=0x4000F0,
              exit_target=0x400180, iterator_var=("r", R.rcx), step=2,
              cond="le", test_offset=2, test_position="top",
              bound_form=("operand", ("mem", R.rbp, -1, 1, -8)),
              cmp_address=0x400150, iv_operand_index=1, static_trips=-1,
              delta_header=-32, derived_ivs=[_IV], reductions=[_RED],
              written_slots=[0, 8], readonly_slots=[-16],
              priv_groups=[_PRIV], bounds_check_indices=[0, 1],
              stm_sites=[0x400120], affine_accesses=[_AFF]),
     ("loop", 3, 4194560, 4194544, 4194688, ("r", 1), 2, "le", 2, "top",
      ("operand", ("mem", 5, -1, 1, -8)), 4194640, 1, -1, -32,
      [("iv", ("s", -16), 8)], [("red", ("r", 16), "+", True)], [0, 8],
      [-16], [("priv", 2, [(1, (("r", 3),)), (16, ())], "reduce", False)],
      [0, 1], [4194592],
      [("aff", 4194608, True, 2, [(8, (("r", 7),))], 16, True)])),
    (MemSiteDesc(loop_id=5, operand=("mem", 6, 1, 8, -16), is_write=True,
                 lanes=2),
     ("pm", 5, ("mem", 6, 1, 8, -16), True, 2)),
    (ExCallDesc(loop_id=5, name="pow"), ("pe", 5, "pow")),
    (MainStackDesc(disp=8), ("ms", 8)),
    (PrivSlotDesc(tls_slot=5), ("mp", 5)),
    (SpillDesc(regs=[R.rax, R.rcx], base_slot=10), ("spill", [0, 1], 10)),
]
RECORD_IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record,literal", RECORDS, ids=RECORD_IDS)
class TestRecordCodec:
    def test_encodes_to_literal(self, record, literal):
        assert record.to_record() == literal
        assert type(record).from_record(literal) == record

    def test_survives_cereal(self, record, literal):
        from repro.rewrite import cereal

        raw = cereal.dumps(record.to_record())
        assert raw == cereal.dumps(literal)
        assert type(record).from_record(cereal.loads(raw)) == record

    def test_wrong_tag_raises(self, record, literal):
        if type(record).TAG is None:
            pytest.skip("untagged record")
        with pytest.raises(MetadataError):
            type(record).from_record(("nope",) + literal[1:])

    def test_wrong_arity_raises(self, record, literal):
        with pytest.raises(MetadataError):
            type(record).from_record(literal[:-1])
        with pytest.raises(MetadataError):
            type(record).from_record(literal + (0,))


def test_every_pool_rule_payload_has_a_tag():
    assert all(record_type.TAG for record_type in RULE_PAYLOAD.values())
