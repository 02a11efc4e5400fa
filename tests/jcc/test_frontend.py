"""Lexer / parser / sema tests for JC."""

import re

import pytest

from repro.jcc import ast
from repro.jcc.lexer import LexError, tokenize
from repro.jcc.parser import ParseError, parse
from repro.jcc.sema import SemaError, analyse


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("int x = 42;")
        assert [(t.kind, t.text) for t in tokens] == [
            ("keyword", "int"), ("ident", "x"), ("op", "="),
            ("int_lit", "42"), ("op", ";"), ("eof", "")]

    def test_float_and_hex_literals(self):
        kinds = [t.kind for t in tokenize("1.5 0x10 2e3 7")][:-1]
        assert kinds == ["float_lit", "int_lit", "float_lit", "int_lit"]

    def test_comments_ignored(self):
        tokens = tokenize("a // line\n/* block\nstill */ b")
        assert [t.text for t in tokens][:-1] == ["a", "b"]

    def test_maximal_munch(self):
        texts = [t.text for t in tokenize("a<=b==c&&d")][:-1]
        assert texts == ["a", "<=", "b", "==", "c", "&&", "d"]

    def test_line_numbers(self):
        tokens = tokenize("a\nb\n\nc")
        assert [t.line for t in tokens][:-1] == [1, 2, 4]

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")

    @pytest.mark.parametrize("text,kind", [
        ("0", "int_lit"), ("42", "int_lit"), ("0x1f", "int_lit"),
        ("0XfF", "int_lit"), ("0xE", "int_lit"), ("1.5", "float_lit"),
        ("1.", "float_lit"), (".5", "float_lit"), ("2e3", "float_lit"),
        ("1.5e-3", "float_lit"), ("1.E+2", "float_lit"),
    ])
    def test_numeric_literal_forms(self, text, kind):
        assert [(t.kind, t.text) for t in tokenize(text)][:-1] == [
            (kind, text)]

    def test_hex_literal_takes_every_hex_digit(self):
        program = parse("int main() { return 0x1f + 0xAb; }")
        ret = program.function("main").body[0].value
        assert (ret.left.value, ret.right.value) == (31, 171)

    @pytest.mark.parametrize("text", [
        "1..2", "08", "00", "0x", "0x1g", "1e", "1.2.3", "12abc"])
    def test_malformed_number_is_a_lex_error(self, text):
        with pytest.raises(LexError, match=re.escape(f"{text!r} at line 2")):
            parse(f"int main() {{\n return {text}; }}")


class TestParser:
    def test_function_and_globals(self):
        program = parse("""
            int n = 5;
            double a[10] = {1.0, 2.0};
            int main() { return n; }
        """)
        assert len(program.globals) == 2
        assert program.globals[0].name == "n"
        assert program.globals[1].size == 10
        assert program.globals[1].init == [1.0, 2.0]
        assert program.function("main").return_type == "int"

    def test_precedence(self):
        program = parse("int main() { return 1 + 2 * 3; }")
        ret = program.function("main").body[0]
        assert isinstance(ret.value, ast.Binary)
        assert ret.value.op == "+"
        assert ret.value.right.op == "*"

    def test_for_loop_shape(self):
        program = parse("""
            int main() {
                int i;
                for (i = 0; i < 10; i++) { }
                return 0;
            }
        """)
        loop = program.function("main").body[1]
        assert isinstance(loop, ast.For)
        assert isinstance(loop.init, ast.Assign)
        assert loop.step.op == "+="

    def test_if_else_chain(self):
        program = parse("""
            int main() {
                if (1 < 2) { return 1; } else if (2 < 3) { return 2; }
                else { return 3; }
            }
        """)
        stmt = program.function("main").body[0]
        assert isinstance(stmt, ast.If)
        assert isinstance(stmt.else_body[0], ast.If)

    def test_extern_recorded(self):
        program = parse("extern double pow(double, double);\nint main() { return 0; }")
        assert program.externs == ["pow"]

    def test_syntax_error(self):
        with pytest.raises(ParseError):
            parse("int main() { return 1 + ; }")


class TestSema:
    def check(self, source):
        return analyse(parse(source))

    def test_int_double_coercion(self):
        program = self.check("""
            int main() { double x = 1; int y = 2.5; return y; }
        """)
        body = program.function("main").body
        assert isinstance(body[0].init, ast.Cast)
        assert body[0].init.target == "double"
        assert isinstance(body[1].init, ast.Cast)

    def test_array_decay_and_index_type(self):
        program = self.check("""
            double a[4];
            int main() { double x = a[1]; return 0; }
        """)
        init = program.function("main").body[0].init
        assert init.type == "double"
        assert init.base.type == "double*"

    def test_malloc_assignable_to_pointers(self):
        self.check("int main() { double* p = malloc(80); p[0] = 1.0; return 0; }")

    def test_undefined_name(self):
        with pytest.raises(SemaError):
            self.check("int main() { return missing; }")

    def test_wrong_arity(self):
        with pytest.raises(SemaError):
            self.check("int main() { print_int(1, 2); return 0; }")

    def test_no_main(self):
        with pytest.raises(SemaError):
            self.check("int f() { return 0; }")

    def test_mod_requires_int(self):
        with pytest.raises(SemaError):
            self.check("int main() { double x = 1.0; x %= 2.0; return 0; }")

    def test_pointer_arithmetic_rejected_in_source(self):
        with pytest.raises(SemaError):
            self.check("double a[4];\nint main() { double* p = a + 1; return 0; }")
