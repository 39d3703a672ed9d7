import numpy as np
import pytest

from boxipm import DimensionError, ParseError, parse_problem, serialize_problem

BOX_TEXT = """\
format_version: 1
kind: box
n: 2
m: 1
Q: [
  2.0 0.0
  0.0 2.0
]
c: [ -3.0 0.0 ]
A: [ 1.0 1.0 ]
b: [ 1.0 ]
tol: 1e-3
"""

STD_TEXT = """\
format_version: 1
kind: standard
n: 2
m: 1
Q: [ 0.0 0.0 0.0 0.0 ]
c: [ -1.0 0.0 ]
A: [ 0.001 1.0 ]
b: [ 1.0 ]
tol: 1e-2
pi: 4.0
"""


class TestParse:
    def test_minimal_box(self):
        pf = parse_problem(BOX_TEXT)
        assert pf.kind == "box" and pf.n == 2 and pf.m == 1
        assert pf.Q.shape == (2, 2) and pf.Q[0, 0] == 2.0
        assert pf.tol == 1e-3 and pf.pi is None
        p = pf.to_boxqp()
        assert p.n == 2

    def test_empty_constraint_block(self):
        text = BOX_TEXT.replace("m: 1", "m: 0").replace("A: [ 1.0 1.0 ]", "A: [ ]").replace("b: [ 1.0 ]", "b: [ ]")
        pf = parse_problem(text)
        assert pf.m == 0 and pf.A.shape == (0, 2) and pf.b.shape == (0,)
        assert pf.to_boxqp().m == 0

    def test_standard_with_pi(self):
        pf = parse_problem(STD_TEXT)
        assert pf.kind == "standard" and pf.pi == 4.0
        sp = pf.to_standardqp()
        assert sp.m == 1

    def test_comments_and_blank_lines(self):
        text = "# header\n\n" + BOX_TEXT.replace("tol: 1e-3", "tol: 1e-3  # trailing")
        assert parse_problem(text).tol == 1e-3

    def test_dimension_mismatch(self):
        bad = BOX_TEXT.replace("c: [ -3.0 0.0 ]", "c: [ -3.0 0.0 1.0 ]")
        with pytest.raises(DimensionError):
            parse_problem(bad)

    def test_zero_tol_rejected(self):
        bad = BOX_TEXT.replace("tol: 1e-3", "tol: 0")
        with pytest.raises(ParseError):
            parse_problem(bad)

    def test_unknown_key(self):
        with pytest.raises(ParseError) as exc:
            parse_problem(BOX_TEXT + "extra: 1\n")
        assert exc.value.line is not None

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            parse_problem(BOX_TEXT + "tol: 1e-4\n")

    def test_non_finite_number(self):
        with pytest.raises(ParseError):
            parse_problem(BOX_TEXT.replace("-3.0", "nan"))

    def test_missing_keys(self):
        with pytest.raises(ParseError):
            parse_problem("format_version: 1\nkind: box\n")

    def test_pi_on_box_rejected(self):
        with pytest.raises(ParseError):
            parse_problem(BOX_TEXT + "pi: 2.0\n")

    def test_unterminated_array(self):
        with pytest.raises(ParseError):
            parse_problem(BOX_TEXT.replace("b: [ 1.0 ]", "b: [ 1.0"))

    def test_bad_version(self):
        with pytest.raises(ParseError):
            parse_problem(BOX_TEXT.replace("format_version: 1", "format_version: 2"))

    def test_error_carries_line_number(self):
        bad = BOX_TEXT.replace("tol: 1e-3", "tol: abc")
        with pytest.raises(ParseError) as exc:
            parse_problem(bad)
        assert exc.value.line == BOX_TEXT.splitlines().index("tol: 1e-3") + 1


def _box(old, new):
    text = BOX_TEXT.replace(old, new)
    assert text != BOX_TEXT
    return lambda: parse_problem(text)


class TestRejections:
    """Every ParseError the format raises, with its line and column where
    one is given: the column of the value, or 1 where the whole line is at
    fault."""

    @pytest.mark.parametrize("make, message, line, column", [
        (lambda: parse_problem(STD_TEXT).to_boxqp(), "kind is not 'box'", None, None),
        (lambda: parse_problem(BOX_TEXT).to_standardqp(), "kind is not 'standard'", None, None),
        (_box("n: 2", "n: 2.5"), "not an integer: '2.5'", 3, 3),
        (_box("tol: 1e-3", "tol: 1e-3\ngarbage"), "expected 'key: value'", 13, 1),
        (_box("c: [ -3.0 0.0 ]", "c: -3.0 0.0"), "array value for 'c' must start with '\\['", 9, 3),
        (_box("c: [ -3.0 0.0 ]", "c: [ -3.0 0.0 ] 1.0"), "unexpected text after '\\]'", 9, 1),
        (_box("b: [ 1.0 ]\ntol: 1e-3", "tol: 1e-3\nb: [ 1.0"), "unterminated array for 'b'", 12, 3),
        (_box("tol: 1e-3", "tol:"), "missing value for 'tol'", 12, 5),
        (_box("kind: box", "kind: boxy"), "kind must be 'box' or 'standard'", 2, 6),
        (_box("n: 2", "n: 0"), "need n >= 1 and m >= 0, got n=0, m=1", None, None),
        (_box("m: 1", "m: -1"), "need n >= 1 and m >= 0, got n=2, m=-1", None, None),
        (lambda: parse_problem(STD_TEXT.replace("pi: 4.0", "pi: 0.0")), "pi must be > 0", None, None),
    ], ids=[
        "to_boxqp", "to_standardqp", "n_not_integer", "no_colon", "no_bracket",
        "text_after_bracket", "unterminated", "missing_value", "bad_kind", "n_zero",
        "m_negative", "pi_zero",
    ])
    def test_rejection(self, make, message, line, column):
        with pytest.raises(ParseError, match=message) as exc:
            make()
        assert (exc.value.line, exc.value.column) == (line, column)


class TestRoundTrip:
    def test_bit_exact_round_trip(self):
        rng = np.random.default_rng(0)
        pf = parse_problem(BOX_TEXT)
        text = serialize_problem(pf)
        pf2 = parse_problem(text)
        assert np.array_equal(pf.Q, pf2.Q)
        assert np.array_equal(pf.c, pf2.c)
        assert pf.tol == pf2.tol
        # awkward floats survive the trip bit for bit
        from boxipm.probfile import ProblemFile

        vals = rng.normal(size=4) * np.pi
        pf3 = ProblemFile(format_version=1, kind="box", n=2, m=1,
                          Q=np.array([[vals[0], 0.0], [0.0, vals[1]]]),
                          c=np.array([vals[2], vals[3]]),
                          A=np.array([[1.0 / 3.0, 0.1]]), b=np.array([np.e]),
                          tol=0.1 + 1e-17)
        pf4 = parse_problem(serialize_problem(pf3))
        assert np.array_equal(pf3.Q, pf4.Q)
        assert np.array_equal(pf3.A, pf4.A)
        assert np.array_equal(pf3.b, pf4.b)
        assert pf3.tol == pf4.tol

    def test_serialized_standard_keeps_pi(self):
        pf = parse_problem(STD_TEXT)
        assert parse_problem(serialize_problem(pf)).pi == 4.0
