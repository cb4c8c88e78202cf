"""CLI surface tests: output schema, exit codes, determinism."""

import io
import json

import pytest

from cmforge import classpoly
from cmforge.cli import main
from cmforge.curve import _twist_family, curve_from_j, select_twist


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def lines(out):
    return [json.loads(x) for x in out.strip().splitlines() if x]


def test_params_fixed_disc(capsys):
    rc, out, _ = run_cli(["params", "--disc", "-40", "--p-min", "40",
                          "--p-max", "100"], capsys)
    assert rc == 0
    rows = lines(out)
    assert {"D": -40, "p": 41, "u": 2, "v": 2, "orders": [40, 44]} in rows


def test_params_empty(capsys):
    rc, out, _ = run_cli(["params", "--disc", "-40", "--p-max", "10"], capsys)
    assert rc == 0 and out.strip() == ""


def test_params_fixed_p(capsys):
    rc, out, _ = run_cli(["params", "--fixed-p", "41", "--disc-max", "100"], capsys)
    assert rc == 0
    assert any(r["D"] == -40 for r in lines(out))


def test_params_needs_exactly_one_mode(capsys):
    rc, _, err = run_cli(["params"], capsys)
    assert rc == 2 and "error" in err
    rc, _, _ = run_cli(["params", "--disc", "-40", "--fixed-p", "41"], capsys)
    assert rc == 2


def test_classpoly_full(capsys):
    rc, out, _ = run_cli(["classpoly", "--disc", "-40"], capsys)
    assert rc == 0
    row = lines(out)[0]
    assert row["coeffs"] == ["9103145472000", "-425692800", "1"]
    rc, out, _ = run_cli(["classpoly", "--disc", "-3"], capsys)
    assert lines(out)[0]["coeffs"] == ["0", "1"]
    rc, out, _ = run_cli(["classpoly", "--disc", "-40", "--invariant", "gamma2"], capsys)
    assert lines(out)[0]["coeffs"] == ["20880", "-780", "1"]


def test_classpoly_divisor_with_check(capsys):
    rc, out, _ = run_cli(["classpoly", "--disc", "-40", "--genus-divisor",
                          "--coset-check"], capsys)
    assert rc == 0
    row = lines(out)[0]
    assert row["coset_check"] is True and row["degree"] == 1
    assert row["phi0"] == [1, 1]


def test_classpoly_divisor_takes_the_conjugate_route(capsys):
    # at -40 the conjugate route needs 31 bits and the paper route 133
    rc, out, _ = run_cli(["classpoly", "--disc", "-40", "--genus-divisor",
                          "--coset-check", "--max-bits", "100"], capsys)
    assert rc == 0 and lines(out)[0]["coset_check"] is True


def test_classpoly_exhaustion_exit_code(capsys):
    rc, _, err = run_cli(["classpoly", "--disc", "-40", "--genus-divisor",
                          "--max-bits", "30"], capsys)
    assert rc == 3
    # the full path refuses its first attempt too when it is above the cap
    rc, _, err = run_cli(["classpoly", "--disc", "-40", "--max-bits", "10"], capsys)
    assert rc == 3


def test_coset_check_keeps_the_cap(capsys):
    # at -420 the divisor needs 97 bits but the full polynomial the check
    # multiplies against needs 241: a cap of 200 must stop the check too
    rc, out, err = run_cli(["classpoly", "--disc", "-420", "--genus-divisor",
                            "--coset-check", "--max-bits", "200"], capsys)
    assert rc == 3 and out == "" and "241 bits (cap 200)" in err


def test_coset_check_builds_the_full_polynomial_once(capsys, monkeypatch):
    # the check compares the two polynomials the command built: the full
    # polynomial is one t = 0 rounding attempt, made once
    attempt = classpoly._exact_attempt
    full_attempts = []

    def counted(kind, qstars, *args):
        if not qstars:
            full_attempts.append(args)
        return attempt(kind, qstars, *args)

    monkeypatch.setattr(classpoly, "_exact_attempt", counted)
    rc, out, _ = run_cli(["classpoly", "--disc", "-2519", "--coset-check"], capsys)
    assert rc == 0 and lines(out)[0]["coset_check"] is True
    assert lines(out)[0]["degree"] == 64
    assert len(full_attempts) == 1


def test_gencurve_ok_and_bad_order(capsys):
    rc, out, _ = run_cli(["gencurve", "--disc", "-40", "--prime", "41",
                          "--order", "44"], capsys)
    assert rc == 0
    row = lines(out)[0]
    for key in ("p", "a", "b", "j", "order", "D", "u", "v", "invariant", "path"):
        assert key in row
    assert row["order"] == 44 and row["path"] == "divisor"
    rc, _, err = run_cli(["gencurve", "--disc", "-40", "--prime", "41",
                          "--order", "43"], capsys)
    assert rc == 2 and "not admissible" in err


@pytest.mark.parametrize("path,route", [("auto", "conjugates"), ("divisor", "paper")])
def test_gencurve_routes(path, route, tmp_path, capsys):
    # "path" names the polynomial used, the transcript's "route" how the
    # divisor was recovered
    rc, out, _ = run_cli(["gencurve", "--disc", "-420", "--prime", "109",
                          "--order", "106", "--path", path], capsys)
    assert rc == 0
    row = lines(out)[0]
    assert row["path"] == "divisor" and row["transcript"]["route"] == route
    curve = tmp_path / "curve.json"
    curve.write_text(out)
    rc, out, _ = run_cli(["verify", str(curve)], capsys)
    assert rc == 0 and lines(out)[0]["verified"] is True


def test_gencurve_sextic_order(capsys):
    rc, out, _ = run_cli(["gencurve", "--disc", "-3", "--prime", "13",
                          "--order", "7"], capsys)
    assert rc == 0 and lines(out)[0]["order"] == 7


def test_gencurve_quartic_alternate_decomposition(capsys):
    # 4*13 = 6^2 + 4*2^2 and = 4^2 + 4*3^2: order 10 needs the second one
    rc, out, _ = run_cli(["gencurve", "--disc", "-4", "--prime", "13",
                          "--order", "10"], capsys)
    assert rc == 0
    row = lines(out)[0]
    assert row["order"] == 10 and row["u"] == 4


def test_approx_trace(capsys):
    rc, out, _ = run_cli(["approx", "--disc", "-40", "--threshold", "1000"], capsys)
    assert rc == 0
    rows = lines(out)
    summary = rows[-1]
    assert summary["ok"] is True and summary["A"] == [1597, -610]
    assert abs(rows[-2]["A"][0]) >= 1000
    assert all("a" in r and "lam" in r for r in rows[:-1])


def test_approx_quality_at_a_large_threshold(capsys):
    # the conjugates of Z cancel from terms near 2^1015 down to about 2^-318,
    # far below the run's own 1112 bits
    rc, out, _ = run_cli(["approx", "--disc", "-1239", "--threshold", str(2 ** 1015)],
                         capsys)
    assert rc == 0
    assert lines(out)[-1]["ok"] is True


def test_approx_imag_side(capsys):
    rc, out, _ = run_cli(["approx", "--disc", "-84", "--threshold", "1000",
                          "--variant", "imag"], capsys)
    assert rc == 0 and lines(out)[-1]["ok"] is True


def test_approx_t1(capsys):
    rc, out, _ = run_cli(["approx", "--disc", "-3", "--threshold", "5"], capsys)
    assert rc == 0
    assert lines(out)[-1]["iterations"] == 0


def test_verify_round_trip(tmp_path, capsys):
    rc, out, _ = run_cli(["gencurve", "--disc", "-40", "--prime", "41",
                          "--order", "40"], capsys)
    path = tmp_path / "curve.json"
    path.write_text(out)
    rc, out2, _ = run_cli(["verify", str(path)], capsys)
    assert rc == 0 and lines(out2)[0]["verified"] is True


def test_verify_tampered(tmp_path, capsys):
    rc, out, _ = run_cli(["gencurve", "--disc", "-40", "--prime", "41",
                          "--order", "40"], capsys)
    blob = lines(out)[0]
    blob["order"] = 44
    blob["u"] = -2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    rc, _, err = run_cli(["verify", str(path)], capsys)
    assert rc == 2 and "recount" in err


P128 = 258749619880733665742487828236848938467    # the CI steps' 128-bit prime


# the quadratic family at small p and at 128 bits, the quartic (-4) and the
# sextic (-3) family at small p and at 10^9 + 9 = 1 (mod 12)
@pytest.mark.parametrize("D,p", [(-40, 41), (-2519, P128), (-4, 13), (-4, 10 ** 9 + 9),
                                 (-3, 13), (-3, 10 ** 9 + 9)])
def test_verify_accepts_exactly_the_selected_twist(D, p, tmp_path, capsys):
    rc, out, _ = run_cli(["params", "--disc", str(D), "--p-min", str(p),
                          "--p-max", str(p)], capsys)
    orders = [int(order) for order in lines(out)[0]["orders"]]
    path = tmp_path / "curve.json"
    for order in orders:
        rc, out, _ = run_cli(["gencurve", "--disc", str(D), "--prime", str(p),
                              "--order", str(order)], capsys)
        row = lines(out)[0]
        base = curve_from_j(int(row["j"]), p)
        picked = select_twist(base, order)
        family = _twist_family(base)
        assert (picked.a, picked.b) == (int(row["a"]), int(row["b"])) and picked in family
        for cand in family:
            path.write_text(json.dumps(dict(row, a=str(cand.a), b=str(cand.b))))
            rc, out, err = run_cli(["verify", str(path)], capsys)
            if cand == picked:
                assert rc == 0 and lines(out)[0]["verified"] is True
            else:
                assert rc == 2 and ("recount" if p <= 10 ** 4 else "random point") in err


def test_verify_garbage(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("not json at all")
    rc, _, _ = run_cli(["verify", str(path)], capsys)
    assert rc == 2


@pytest.mark.parametrize("kind", ["missing", "directory", "binary", "list"])
def test_verify_unreadable_input_exit_code(kind, tmp_path, capsys):
    path = tmp_path / "curve.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "binary":
        path.write_bytes(bytes(range(128, 256)))
    elif kind == "list":
        path.write_text("[1,2]")
    rc, _, err = run_cli(["verify", str(path)], capsys)
    assert rc == 2 and "Traceback" not in err


# v = 2.5 would truncate to the true v = 2 and verify; 1e400 and Infinity
# parse as float infinity, which int() cannot convert; a JSON integer of
# 5000 digits is more than json.loads converts
@pytest.mark.parametrize("field,text", [("v", "2.5"), ("v", "true"), ("p", "1e400"),
                                        ("p", "Infinity"), ("p", "1" * 5000)],
                         ids=["v-2.5", "v-true", "p-1e400", "p-Infinity", "p-5000-digits"])
def test_verify_non_integer_field_exit_code(field, text, tmp_path, capsys):
    _, out, _ = run_cli(["gencurve", "--disc", "-40", "--prime", "41",
                         "--order", "44"], capsys)
    blob = lines(out)[0]
    assert blob["v"] == 2
    blob[field] = "@"
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(blob).replace('"@"', text))
    rc, _, err = run_cli(["verify", str(path)], capsys)
    assert rc == 2 and "Traceback" not in err
    assert f"{field} must be an integer" in err or "verify needs a curve JSON object" in err


def test_unsupported_invariant_exit_code(capsys):
    rc, _, _ = run_cli(["classpoly", "--disc", "-84", "--invariant", "gamma2"],
                       capsys)
    assert rc == 2


def test_determinism(capsys):
    args = ["gencurve", "--disc", "-40", "--prime", "41", "--order", "44"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_big_ints_as_strings(capsys):
    rc, out, _ = run_cli(["classpoly", "--disc", "-40"], capsys)
    row = lines(out)[0]
    assert all(isinstance(c, str) for c in row["coeffs"])


@pytest.mark.parametrize("D,p_max", [(-3, 40), (-4, 40), (-40, 100)])
def test_params_orders_are_the_ones_gencurve_accepts(D, p_max, tmp_path, capsys):
    rc, out, _ = run_cli(["params", "--disc", str(D), "--p-max", str(p_max)], capsys)
    rows = lines(out)
    assert rc == 0 and rows
    for row in rows:
        p = str(row["p"])
        # gencurve's list of valid orders is the set params printed
        rc, _, err = run_cli(["gencurve", "--disc", str(D), "--prime", p,
                              "--order", "1"], capsys)
        assert rc == 2
        assert err.strip().endswith(f"valid: {sorted(row['orders'])}")
        for order in row["orders"]:
            rc, out, _ = run_cli(["gencurve", "--disc", str(D), "--prime", p,
                                  "--order", str(order)], capsys)
            assert rc == 0 and lines(out)[0]["order"] == order
            path = tmp_path / "curve.json"
            path.write_text(out)
            rc, out, _ = run_cli(["verify", str(path)], capsys)
            assert rc == 0 and lines(out)[0]["verified"] is True


def test_params_lists_the_quartic_and_sextic_twists(capsys):
    _, out, _ = run_cli(["params", "--disc", "-3", "--p-min", "13", "--p-max", "13"], capsys)
    assert sorted(lines(out)[0]["orders"]) == [7, 9, 12, 16, 19, 21]
    _, out, _ = run_cli(["params", "--disc", "-4", "--p-min", "13", "--p-max", "13"], capsys)
    assert sorted(lines(out)[0]["orders"]) == [8, 10, 18, 20]
    _, out, _ = run_cli(["params", "--fixed-p", "13", "--disc-max", "4"], capsys)
    assert {r["D"]: len(r["orders"]) for r in lines(out)} == {-3: 6, -4: 4}
