import pytest
from hypothesis import given
from hypothesis import strategies as st

from canonmat import (DigitRangeError, Matrix, ParseError, RowCode,
                      decode_rows, encode_cols, encode_rows, format_matrix,
                      lex_compare, parse_matrix)
from canonmat.matrices import numeral
from conftest import TRIO_C, matrices


class TestEncode:
    def test_row_code_demo(self, demo34):
        assert encode_rows(demo34).values() == (78, 36, 23)

    def test_col_code_demo(self, demo34):
        assert encode_cols(demo34).values() == (16, 9, 53, 35)

    def test_zero_matrix(self):
        z = Matrix.from_rows([(0, 0), (0, 0)], 3)
        assert encode_rows(z).values() == (0, 0)
        assert encode_cols(z).values() == (0, 0)

    def test_trio_minimum(self):
        assert encode_rows(TRIO_C).values() == (1, 6, 45, 72)
        assert encode_cols(TRIO_C).values() == (5, 8, 18, 27)


class TestDecode:
    def test_golden_round_trip(self, demo34):
        assert decode_rows(RowCode.from_ints((78, 36, 23), width=4, base=4)) == demo34
        assert decode_rows(RowCode.from_ints((1, 6, 45, 72), width=4, base=3)) == TRIO_C

    def test_zero(self):
        assert decode_rows(RowCode.from_ints((0, 0), width=2, base=3)).rows == ((0, 0), (0, 0))

    def test_range_error(self):
        with pytest.raises(DigitRangeError):
            RowCode.from_ints((81,), width=4, base=3)  # max is 3^4 - 1 = 80
        with pytest.raises(DigitRangeError):
            RowCode.from_ints((-1,), width=4, base=3)

    @given(matrices())
    def test_round_trip(self, a):
        assert decode_rows(encode_rows(a)) == a


class TestTransposeDuality:
    @given(matrices())
    def test_cols_are_rows_of_transpose(self, a):
        assert encode_cols(a).digits == encode_rows(a.transpose()).digits
        assert encode_rows(a).digits == encode_cols(a.transpose()).digits

    @given(matrices())
    def test_ranges(self, a):
        assert all(0 <= x <= a.p**a.m - 1 for x in encode_rows(a).values())
        assert all(0 <= y <= a.p**a.n - 1 for y in encode_cols(a).values())


class TestLexCompare:
    def test_examples(self):
        a = RowCode.from_ints((1, 6, 45, 72), width=4, base=3)
        b = RowCode.from_ints((2, 15, 24, 27), width=4, base=3)
        c = RowCode.from_ints((5, 8, 18, 27), width=4, base=3)
        assert lex_compare(a, b) == -1
        assert lex_compare(a, a) == 0
        assert lex_compare(c, a) == 1

    def test_shape_mismatch(self):
        a = RowCode.from_ints((0,), width=2, base=3)
        b = RowCode.from_ints((0, 0), width=2, base=3)
        with pytest.raises(ValueError):
            lex_compare(a, b)
        with pytest.raises(ValueError):
            lex_compare(a, encode_cols(Matrix.from_rows([(0, 0)], 3)))

    @given(st.data())
    def test_total_order(self, data):
        vals = st.tuples(*(st.integers(0, 26) for _ in range(3)))
        x, y, z = (RowCode.from_ints(data.draw(vals), width=3, base=3) for _ in range(3))
        assert lex_compare(x, y) == -lex_compare(y, x)
        if lex_compare(x, y) <= 0 and lex_compare(y, z) <= 0:
            assert lex_compare(x, z) <= 0


class TestRender:
    def test_small_values_decimal(self, demo34):
        assert encode_rows(demo34).render() == "78 36 23"

    def test_wide_value_falls_back_to_digits(self):
        a = Matrix.from_rows([tuple([1] * 70)], 2)  # 2^70 - 1 overflows int64
        assert encode_rows(a).render() == "1" * 70
        # Past base 10 a digit may take two characters, so digits are dotted.
        a = Matrix.from_rows([tuple([10] * 19)], 11)  # 11^19 - 1 overflows int64
        assert encode_rows(a).render() == ".".join(["10"] * 19)
        a = Matrix.from_rows([tuple([10] * 18)], 11)  # 11^18 - 1 does not
        assert encode_rows(a).render() == "5559917313492231480"


class TestNumeral:
    @pytest.mark.parametrize("text,value", [("0", 0), ("007", 7), ("-3", -3),
                                            ("12345678901234567890", 12345678901234567890)])
    def test_decimal(self, text, value):
        assert numeral(text) == value

    # int() takes all but the last four.
    @pytest.mark.parametrize("text", ["+1", "1_1", "\u0663", "\uff12", " 1", "1\n", "",
                                      "-", "--1", "1.0"])
    def test_rejects(self, text):
        with pytest.raises(ParseError, match="not a decimal numeral"):
            numeral(text)


class TestTextFormat:
    def test_round_trip(self, demo34):
        assert parse_matrix(format_matrix(demo34)) == demo34

    def test_leading_comments_and_blanks(self):
        text = "# a comment\n\n2 2 2\n0 1\n1 0\n"
        assert parse_matrix(text).rows == ((0, 1), (1, 0))

    def test_no_trailing_newline(self):
        assert parse_matrix("1 1 2\n1").rows == ((1,),)

    @pytest.mark.parametrize("text", [
        "", "# only a comment\n", "2 2\n0 1\n1 0\n", "a b c\n",
        "2 2 2\n0 1\n", "2 2 2\n0 1 1\n1 0\n", "2 2 2\n0 x\n1 0\n",
        "2 2 1\n0 0\n0 0\n", "0 2 2\n",
        "1 2 2\n0 1\n9 9 9\n", "2 2 2\n0 1\n1 0\n\n1 1\n", "1 1 2\n1\n# x\nend\n",
        # int() takes these, the format does not: only ASCII decimal numerals,
        # with a leading - allowed on a row entry.
        "1 1 12\n1_1\n", "1 1 +2\n1\n", "1 1 \u0663\n1\n", "1 1 \uff12\n1\n",
        "1 1 2\n+1\n", "1 1 2\n\u0661\n", "1 1 2\n-\n", "1 1 2\n--1\n", "-1 1 2\n0\n",
    ])
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_matrix(text)

    def test_digit_out_of_range(self):
        with pytest.raises(DigitRangeError):
            parse_matrix("2 2 2\n0 2\n1 0\n")

    def test_trailing_comments_and_blanks(self):
        text = "2 2 2\n0 1\n1 0\n\n# trailer\n  \n"
        assert parse_matrix(text).rows == ((0, 1), (1, 0))

    @given(st.one_of(
        st.text(),
        st.lists(st.one_of(
            st.sampled_from(["", "# c", "2 2 2", "1 1 3", "0 1", "1 0", "9 9 9",
                             "2", "-1 0", "x", " 1  2 "]),
            st.text(alphabet="0123456789 -+_\u0663#\t\r\x0c", max_size=8)),
            max_size=6).map("\n".join)))
    def test_any_text_parses_or_raises_documented_error(self, text):
        try:
            assert isinstance(parse_matrix(text), Matrix)
        except (ParseError, DigitRangeError):
            pass


class TestMatrixInvariants:
    def test_base_one_rejected(self):
        with pytest.raises(ValueError):
            Matrix.from_rows([(0,)], 1)

    def test_entry_range_enforced(self):
        with pytest.raises(DigitRangeError):
            Matrix.from_rows([(0, 3)], 3)
