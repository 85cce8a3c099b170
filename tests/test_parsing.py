import json
import random
import sys
from fractions import Fraction

import pytest

from nabla_lmo.errors import ParseError
from nabla_lmo.hseries import MAX_ORDER, HSeries
from nabla_lmo.laurent import HalfLaurent, ZPoly
from nabla_lmo.mmr import lmo_wheel_data
from nabla_lmo.parsing import (
    lmo_data_to_json,
    parse_h_series,
    parse_half_laurent,
    parse_z_poly,
    read_linking_file,
    read_lmo_file,
    read_seifert_file,
)


def test_grammar_examples():
    assert parse_z_poly("1 + z^2") == ZPoly(0, (1, 1))
    assert parse_half_laurent("t - 1 + t^-1") == HalfLaurent({2: 1, 0: -1, -2: 1})
    assert parse_half_laurent("t^(1/2)") == HalfLaurent({1: 1})
    assert parse_half_laurent("t^(-3/2)") == HalfLaurent({-3: 1})


def test_grammar_flexibility():
    assert parse_z_poly("1+z^2") == parse_z_poly("  1   +   z^2 ")
    assert parse_z_poly("2z^2") == parse_z_poly("2*z^2")
    assert parse_z_poly("-z") == ZPoly(1, (-1,))
    assert parse_half_laurent("3/2*t^2 - t") == HalfLaurent({4: Fraction(3, 2), 2: -1})
    assert parse_half_laurent("-7") == HalfLaurent.constant(-7)
    assert parse_z_poly("0") == ZPoly(0, ())
    assert parse_z_poly("z^2 + 1 - z^2") == ZPoly(0, (1,))
    assert parse_half_laurent("t^(4/2)") == HalfLaurent({4: 1})
    assert parse_half_laurent("3/01*t") == HalfLaurent({2: 3})


def test_grammar_rejections():
    zero_denominators = ("1/0*z^2 + 1", "t + 1/00", "1 + 2/0h")
    for bad in ("", "  ", "z + t", "1 ++ 2", "q^2", "z^-2", "t^(1/3)", "1.5", "z^",
                *zero_denominators):
        for parse in (parse_z_poly, parse_half_laurent):
            with pytest.raises(ParseError):
                parse(bad)
    with pytest.raises(ParseError):
        parse_h_series("1 + 1/0*h^2", 4)
    with pytest.raises(ParseError):
        parse_z_poly("z + z^2")  # mixed parity
    with pytest.raises(ParseError):
        parse_z_poly("t + 1")
    with pytest.raises(ParseError):
        parse_half_laurent("1 + z^2")
    with pytest.raises(ParseError):
        parse_z_poly("h^2")  # h text has its own entry point, which takes an order


def test_each_entry_point_reads_one_variable():
    """Another variable is a syntax error at its position in the
    whitespace-stripped text; constants parse at every entry point."""
    for parse, var, text, pos in (
        (parse_z_poly, "z", "t^0", 0),
        (parse_z_poly, "z", "t - t", 0),
        (parse_z_poly, "z", "1 + z^2 - h", 6),
        (parse_half_laurent, "t", "1 + z^2", 2),
        (lambda text: parse_h_series(text, 4), "h", "t + 1", 0),
    ):
        with pytest.raises(ParseError) as exc_info:
            parse(text)
        assert str(exc_info.value) == f"syntax error at position {pos}: expected variable {var}"
    assert parse_z_poly("-7/2") == ZPoly(0, (Fraction(-7, 2),))
    assert parse_half_laurent("-7/2") == HalfLaurent({0: Fraction(-7, 2)})
    assert parse_h_series("-7/2", 2) == HSeries([Fraction(-7, 2), 0, 0])
    for parse in (parse_z_poly, parse_half_laurent):
        with pytest.raises(ParseError) as exc_info:
            parse("1 + O(h^3)")
        assert str(exc_info.value) == "O(h^N) marker is only meaningful for h-series"


def test_error_position_is_reported():
    with pytest.raises(ParseError) as err:
        parse_z_poly("1 + &")
    assert "position" in str(err.value)


def test_h_series_parsing():
    assert parse_h_series("1 - 1/24*h^2", 4) == HSeries(
        [1, 0, Fraction(-1, 24), 0, 0]
    )
    assert parse_h_series("1 - 1/24*h^2 + 7/5760*h^4 + O(h^5)", 4) == HSeries(
        [1, 0, Fraction(-1, 24), 0, Fraction(7, 5760)]
    )
    assert parse_h_series("h^9", 4).is_zero  # beyond the order
    assert parse_h_series("0", 4) == HSeries([], 4)
    with pytest.raises(ParseError):
        parse_h_series("1 + O(h^5)", 8)  # marker disagrees with the order
    with pytest.raises(ParseError):
        parse_h_series("t + 1", 4)


def test_render_parse_round_trip():
    rng = random.Random(73)
    for _ in range(200):
        p = HalfLaurent(
            {
                rng.randint(-8, 8): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(rng.randint(0, 6))
            }
        )
        assert parse_half_laurent(str(p)) == p
    for _ in range(150):
        s = rng.choice((0, 1, 2, 3))
        coeffs = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(rng.randint(0, 5))
        ]
        p = ZPoly(s, coeffs)
        assert parse_z_poly(str(p)) == p
    for _ in range(150):
        order = rng.randint(0, 10)
        f = HSeries(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)],
            order,
        )
        assert parse_h_series(str(f), order) == f


def test_read_seifert_file(tmp_path):
    path = tmp_path / "knot.json"
    path.write_text(
        json.dumps({"matrix": [["-1", "1"], ["0", "-1"]], "name": "trefoil"})
    )
    m, components = read_seifert_file(str(path))
    assert m.size == 2
    assert components == 1

    path.write_text(json.dumps({"matrix": [["1/2"]], "components": 2}))
    m, components = read_seifert_file(str(path))
    assert m.entries[0][0] == Fraction(1, 2)
    assert components == 2

    path.write_text(json.dumps({"matrix": []}))
    m, components = read_seifert_file(str(path))
    assert m.size == 0


def test_seifert_file_rejections(tmp_path):
    path = tmp_path / "bad.json"
    cases = [
        "not json",
        json.dumps([[1]]),
        json.dumps({"matrix": [[0.5]]}),
        json.dumps({"matrix": [[True]]}),
        json.dumps({"matrix": [["1/0"]]}),
        json.dumps({"matrix": [["x"]]}),
        json.dumps({"matrix": [["1e400"]]}),  # Fraction would build 10**400
        json.dumps({"matrix": [["2E3"]]}),
        json.dumps({"matrix": [[1]], "components": 0}),
        json.dumps({"matrix": [[1]], "components": "2"}),
        json.dumps({"matrix": [[1]], "name": 7}),
        json.dumps({"matrix": "nope"}),
    ]
    for text in cases:
        path.write_text(text)
        with pytest.raises(ParseError):
            read_seifert_file(str(path))


def test_read_linking_file(tmp_path):
    path = tmp_path / "link.json"
    path.write_text(
        json.dumps(
            {
                "labels": ["x", "a"],
                "surgery": ["x"],
                "matrix": [["1", "1"], ["1", "0"]],
            }
        )
    )
    m = read_linking_file(str(path))
    assert m.surgery_labels == ("x",)
    assert m.residual_labels == ("a",)
    assert m.entries == ((1, 1), (1, 0))


def test_linking_file_rejections(tmp_path):
    path = tmp_path / "bad.json"
    cases = [
        json.dumps({"labels": ["a"], "matrix": [[0]]}),  # missing surgery
        json.dumps({"labels": "a", "surgery": [], "matrix": [[0]]}),
        json.dumps({"labels": ["a"], "surgery": [1], "matrix": [[0]]}),
        json.dumps({"labels": ["a"], "surgery": [], "matrix": [[0.25]]}),
        json.dumps({"labels": ["a"], "surgery": [], "matrix": [["1e2"]]}),
    ]
    for text in cases:
        path.write_text(text)
        with pytest.raises(ParseError):
            read_linking_file(str(path))


def test_lmo_json_round_trip(tmp_path):
    data = lmo_wheel_data(ZPoly(0, (1, 1)), 3, 10)
    text = lmo_data_to_json(data)
    parsed = json.loads(text)
    assert parsed["order"] == 10
    assert parsed["h1_order"] == 3
    assert list(parsed["knot_wheels"]) == sorted(
        parsed["knot_wheels"], key=int
    )
    path = tmp_path / "wheels.json"
    path.write_text(text)
    back = read_lmo_file(str(path))
    assert back == data


def test_lmo_file_rejections(tmp_path):
    path = tmp_path / "bad.json"
    good = json.loads(lmo_data_to_json(lmo_wheel_data(ZPoly(0, (1,)), 1, 4)))

    for mutate in (
        lambda d: d.pop("order"),
        lambda d: d.update(order=-1),
        lambda d: d.update(h1_order=0),
        lambda d: d.update(knot_wheels={"3": "1"}),
        lambda d: d.update(knot_wheels={"2": 0.5}),
        lambda d: d.update(nu_wheels="x"),
        lambda d: d.update(nu_wheels={"2": "1"}),
        # an index key is read only in the text lmo_data_to_json writes
        lambda d: d.update(knot_wheels={"02": "1"}),
        lambda d: d.update(knot_wheels={" 2": "1"}),
        lambda d: d.update(knot_wheels={"0_2": "1"}),
        lambda d: d.update(knot_wheels={"2": "1", " 2": "5"}),
    ):
        broken = json.loads(json.dumps(good))
        mutate(broken)
        path.write_text(json.dumps(broken))
        with pytest.raises(ParseError):
            read_lmo_file(str(path))

    # a repeated key in any JSON object is refused, not resolved by the last one
    path.write_text(json.dumps(good).replace('"knot_wheels": {', '"knot_wheels": {"2": "1", ', 1))
    with pytest.raises(ParseError, match="duplicate key '2'"):
        read_lmo_file(str(path))
    path.write_text('{"matrix": [[1]], "matrix": [[-1, 1], [0, -1]]}')
    with pytest.raises(ParseError, match="duplicate key 'matrix'"):
        read_seifert_file(str(path))


def test_lmo_file_wrong_nu_is_reported_before_knot_indices(tmp_path):
    path = tmp_path / "bad.json"
    good = json.loads(lmo_data_to_json(lmo_wheel_data(ZPoly(0, (1,)), 1, 4)))
    path.write_text(json.dumps(dict(good, knot_wheels={"6": "1"}, nu_wheels={"2": "1"})))
    with pytest.raises(ParseError) as exc_info:
        read_lmo_file(str(path))
    assert str(exc_info.value) == (
        f"{path}: nu_wheels disagree with the unknot normalization at this order"
    )


def test_z_exponent_limit():
    assert parse_z_poly(f"1 + z^{MAX_ORDER}").z_degree == MAX_ORDER
    assert parse_z_poly("1 + z^4000000 - z^4000000") == ZPoly(0, (1,))
    for text in (f"1 + z^{MAX_ORDER + 2}", "1 + z^4000000", "z^1000000000001 + z^2"):
        with pytest.raises(ParseError) as exc_info:
            parse_z_poly(text)
        assert f"exceeds the limit {MAX_ORDER}" in str(exc_info.value)


def test_t_exponent_limit(monkeypatch):
    top = f"t^{MAX_ORDER // 2} + t^-{MAX_ORDER // 2}"
    assert parse_half_laurent(top).support == (-MAX_ORDER, MAX_ORDER)
    assert parse_half_laurent("t^4000000 - t^4000000 + t") == HalfLaurent({2: 1})
    monkeypatch.setattr("nabla_lmo.laurent.HalfLaurent", None)  # no Laurent work
    for text in (
        f"t^{MAX_ORDER // 2 + 1} + 1 + t^-{MAX_ORDER // 2}",
        f"t^({MAX_ORDER + 1}/2) + t^(-{MAX_ORDER + 1}/2)",
        "t^4000000 + 1",
    ):
        with pytest.raises(ParseError) as exc_info:
            parse_half_laurent(text)
        assert f"exceeds the limit {MAX_ORDER}" in str(exc_info.value)


def test_long_integers_are_parse_errors(tmp_path):
    nines = "9" * 5000
    for parse, text in (
        (parse_z_poly, f"1 + z^{nines}"),
        (parse_z_poly, f"{nines}*z^2"),
        (parse_z_poly, f"1/{nines}"),
        (parse_half_laurent, f"t^({nines}/2)"),
    ):
        with pytest.raises(ParseError) as exc_info:
            parse(text)
        assert "integer longer than" in str(exc_info.value)
    with pytest.raises(ParseError):
        parse_h_series(f"1 + h^2 + O(h^{nines})", 4)
    path = tmp_path / "long.json"
    path.write_text('{"matrix": [[%s]]}' % nines)
    with pytest.raises(ParseError) as exc_info:
        read_seifert_file(str(path))
    limit = sys.get_int_max_str_digits()
    assert str(exc_info.value) == f"{path}: invalid JSON (a number longer than {limit} digits)"


def test_rejected_values_are_shortened_in_messages(tmp_path):
    path = tmp_path / "long_string.json"
    path.write_text('{"matrix": [["%s"]]}' % ("9" * 4999 + "x"))
    with pytest.raises(ParseError) as exc_info:
        read_seifert_file(str(path))
    assert str(exc_info.value) == (
        f"{path} matrix entry: cannot parse rational '{'9' * 39}... (5002 characters)"
    )
    # short values are echoed whole
    path.write_text('{"matrix": [["1/x"]]}')
    with pytest.raises(ParseError) as exc_info:
        read_seifert_file(str(path))
    assert str(exc_info.value) == f"{path} matrix entry: cannot parse rational '1/x'"
    path.write_text(json.dumps({"matrix": [[list(range(100))]]}))
    with pytest.raises(ParseError) as exc_info:
        read_seifert_file(str(path))
    assert str(exc_info.value) == (
        f"{path} matrix entry: expected an exact rational, got "
        "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1... (390 characters)"
    )


def test_lmo_file_order_limit_is_checked_before_series_work(tmp_path, monkeypatch):
    def no_series(order):
        raise AssertionError(f"nu_wheels({order}) was built")

    monkeypatch.setattr("nabla_lmo.mmr.nu_wheels", no_series)
    path = tmp_path / "big.json"
    for order in (MAX_ORDER + 1, 4096):
        path.write_text(json.dumps(
            {"order": order, "h1_order": 1, "knot_wheels": {}, "nu_wheels": {}}
        ))
        with pytest.raises(ParseError) as exc_info:
            read_lmo_file(str(path))
        assert str(exc_info.value) == (
            f"{path}: \"order\" must be at most {MAX_ORDER}, got {order}"
        )
