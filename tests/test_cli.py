"""The command-line surface: exit codes, JSON stability, spec parsing."""

import argparse
import contextlib
import io
import json
import os
import pathlib
import random
import re
import resource
import subprocess
import sys
import tempfile
import weakref
from fractions import Fraction

import cli_rows_oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strata0 import cli
from strata0.cli import SpecParseError, main, parse_kappa, parse_tree_spec
from strata0.divisors import d_mu_boundary_form, d_mu_psi_form
from strata0.intersection import Boundary, Psi
from strata0.strata import (
    StableTree,
    _mask_marks,
    boundary_weight,
    enumerate_p_hat,
    enumerate_two_block,
    exceptional_divisor,
    m_value,
    validate_signature,
    vanishing_orders,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_child(*argv, **kwargs):
    """``(exit code, stdout, stderr)`` of the CLI in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-m", "strata0.cli", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": _SRC}, **kwargs,
    )
    return done.returncode, done.stdout, done.stderr


class TestSpecParsers:
    def test_kappa(self):
        assert parse_kappa("-1,-1,2,0") == [-1, -1, 2, 0]

    def test_kappa_error_position(self):
        with pytest.raises(SpecParseError) as exc:
            parse_kappa("-1,x,3")
        assert exc.value.pos == 3

    def test_tree_spec(self):
        groups, edges, params = parse_tree_spec("1,2;3,4,5;6,7,8 0-1 0-2 t[0-1]=1/3", 8)
        assert groups == (frozenset({1, 2}), frozenset({3, 4, 5}), frozenset({6, 7, 8}))
        assert edges == [(0, 1), (0, 2)]
        assert params[(0, 1)].numerator == 1 and params[(0, 1)].denominator == 3

    def test_tree_spec_empty_group(self):
        groups, edges, _ = parse_tree_spec("1,2;;3,4 0-1 1-2", 4)
        assert groups[1] == frozenset()

    def test_tree_spec_bad_token_position(self):
        with pytest.raises(SpecParseError) as exc:
            parse_tree_spec("1,2;3,4,5;6,7,8 0-1 0=2", 8)
        assert exc.value.pos == 20

    def test_tree_spec_bad_marking_position(self):
        with pytest.raises(SpecParseError) as exc:
            parse_tree_spec("1,2;3,x;4,5 0-1 1-2", 5)
        assert exc.value.pos == 6

    def test_edge_to_missing_vertex(self):
        with pytest.raises(SpecParseError):
            parse_tree_spec("1,2;3,4 0-5", 4)

    def test_param_for_missing_edge(self):
        with pytest.raises(SpecParseError):
            parse_tree_spec("1,2;3,4 0-1 t[1-2]=1", 4)


class TestExitCodes:
    def test_validation_error_is_2(self, capsys):
        code, _, err = run(capsys, "boundary", "--d", "2", "--kappa=-1,-1,-1")
        assert code == 2 and "error" in err

    def test_exceptional_is_3(self, capsys):
        code, _, err = run(capsys, "volume", "--d", "2", "--kappa=2,-1,-1,-1,-1,-1,-1")
        assert code == 3 and "exceptional" in err

    def test_success_is_0(self, capsys):
        code, out, _ = run(capsys, "boundary", "--d", "2", "--kappa=-1,-1,-1,-1")
        assert code == 0 and "mu_S" in out

    @pytest.mark.parametrize("fmt", [["--json"], []], ids=["json", "table"])
    def test_out_of_memory_is_2(self, capsys, monkeypatch, fmt):
        # phat and exceptional build P-hat in memory; a request too large for
        # it ends with one error line, not a traceback
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli.strata, "_p_hat_walk", exhausted)
        code, out, err = run(capsys, "phat", *fmt, "--d", "2", "--kappa=-1,-1,-1,-1,-1,1")
        assert (code, out, err) == (2, "", "error: out of memory; the request is too large\n")

    def test_bad_factor_is_2(self, capsys):
        code, _, err = run(
            capsys, "intersect", "--d", "2", "--kappa=-1,-1,-1,-1", "--factors", "nope"
        )
        assert code == 2
        # a split side with a marking outside 1..n names that marking
        for side, mark in (("0,1", 0), ("1,9", 9)):
            code, out, err = run(
                capsys, "intersect", "--d", "2", "--kappa=-1,-1,-1,-1", "--factors", f"D{{{side}}}"
            )
            assert code == 2 and out == ""
            assert f"error: marking {mark} is outside 1..4" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("phat", "--d", "2", "--kappa=\u0663,-1,-1,-1,-1,-1,-1,-1"),
             "bad integer '\u0663' in kappa (at position 0)"),
            (("intersect", "--d", "2", "--kappa=-1,-1,-1,-1", "--factors", "psi_\u0661"),
             "bad factor 'psi_\u0661' (at position 0)"),
            (("principal", "--d", "2", "--kappa=-1,-1,-1,-1", "--tree", "1,2;3,\u0664 0-1"),
             "bad marking '\u0664' (at position 6)"),
            (("principal", "--d", "2", "--kappa=-1,-1,-1,-1", "--tree", "1,2;3,4 0-\u0661"),
             "expected 'j-k' or 't[j-k]=p/q', got '0-\u0661' (at position 8)"),
        ],
        ids=["kappa", "psi", "group", "edge"],
    )
    def test_non_ascii_digits_are_2(self, capsys, argv, message):
        # Arabic-Indic digits match \d and int() reads them; the grammar is 0-9
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv,value",
        [
            (("boundary", "--d", "\u0662", "--kappa=-1,-1,-1,-1"), "--d"),
            (("volume", "--d", "2", "--kappa=-1,-1,-1,-1,-1,1", "--max-codim", "\u0663"),
             "--max-codim"),
            (("verify-family", "--d", "2", "--kappa=-1,-1,-1,-1", "--chart", "1,2;3,4 0-1",
              "--samples", "\u0662"), "--samples"),
            (("verify-family", "--d", "2", "--kappa=-1,-1,-1,-1", "--chart", "1,2;3,4 0-1",
              "--seed", "\u0667"), "--seed"),
        ],
        ids=["d", "max-codim", "samples", "seed"],
    )
    def test_non_ascii_integer_options_are_2(self, capsys, argv, value):
        # int() reads any Unicode decimal digit; the options take 0-9 only
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        bad = argv[argv.index(value) + 1]
        assert f"error: argument {value}: invalid int value: '{bad}'\n" in capsys.readouterr().err

    def test_unwritable_out_is_2(self, capsys, tmp_path):
        # an empty path (an unset shell variable) is refused, not ignored
        for target in (str(tmp_path / "missing" / "x.json"), ""):
            for extra in ((), ("--json",)):
                code, out, err = run(
                    capsys, "boundary", "--d", "2", "--kappa=-1,-1,-1,-1", "--out", target, *extra
                )
                assert code == 2 and out == ""
                assert err.startswith(f"error: cannot write --out file {target}")

    def test_max_codim_support_tree_refutes_triviality(self, capsys, monkeypatch):
        import strata0.cli as cli_mod

        # depth 2 < n - 3, but a tree in the ideal support contradicts any
        # claim that the blow-up is trivial
        monkeypatch.setattr(cli_mod, "blowup_is_trivial", lambda sig: True)
        code, out, err = run(
            capsys, "volume", "--d", "2", "--kappa=2,-1,-1,-1,-1,-1,-1", "--max-codim", "2"
        )
        assert code == 2 and out == ""
        assert "triviality criteria disagree" in err

    def test_max_codim_below_top_skips_blowup_check(self, capsys, monkeypatch):
        import strata0.cli as cli_mod

        calls = []
        real = cli_mod.blowup_is_trivial
        monkeypatch.setattr(cli_mod, "blowup_is_trivial", lambda sig: calls.append(sig) or real(sig))
        # an E-trivial signature with n - 3 = 3: only the full depth asks
        for depth, called in (("1", 0), ("2", 0), ("3", 1)):
            code, _, _ = run(
                capsys, "volume", "--d", "2", "--kappa=-1,-1,-1,-1,-1,1", "--max-codim", depth
            )
            assert code == 0 and len(calls) == called

    def test_failed_verification_is_4(self, capsys, monkeypatch):
        import strata0.cli as cli_mod

        monkeypatch.setattr(cli_mod, "verify_ratio_identity", lambda *a, **k: False)
        code, out, _ = run(
            capsys, "verify-family", "--d", "2", "--kappa=1,1,-1,-1,-1,-1,-1,-1",
            "--chart", "1,2;3,4,5;6,7,8 0-1 0-2", "--samples", "1",
        )
        assert code == 4 and "FAILED" in out

    def test_repeated_marking_in_group_is_2(self, capsys):
        code, out, err = run(
            capsys, "principal", "--d", "2", "--kappa=-1,-1,-1,-1", "--tree", "1,1,2;3,4 0-1"
        )
        assert code == 2 and out == ""
        assert "error: marking 1 repeated in one group (at position 2)" in err

    @pytest.mark.parametrize(
        "factors,message",
        [("D{1,2,2}", "marking 2 repeated in one group (at position 6)"),
         ("D{1,,2}", "bad marking '' (at position 4)"),
         ("D{,1,2}", "bad marking '' (at position 2)"),
         ("D{1,2,}", "bad marking '' (at position 6)")],
    )
    def test_bad_factor_side_is_2(self, capsys, factors, message):
        code, out, err = run(
            capsys, "intersect", "--d", "2", "--kappa=-1,-1,-1,-1", "--factors", factors
        )
        assert code == 2 and out == ""
        assert f"error: {message}" in err

    def test_parameter_for_non_edge_names_its_position(self, capsys):
        code, out, err = run(
            capsys, "verify-family", "--d", "2", "--kappa=-1,-1,-1,-1",
            "--chart", "1,2;3,4 0-1 t[0-2]=1",
        )
        assert code == 2 and out == ""
        assert "error: parameter for non-edge 0-2 (at position 12)" in err

    def test_node_parameter_given_twice_is_2(self, capsys):
        code, out, err = run(
            capsys, "verify-family", "--d", "2", "--kappa=-1,-1,-1,-1",
            "--chart", "1,2;3,4 0-1 t[0-1]=1/3 t[1-0]=2/3",
        )
        assert code == 2 and out == ""
        assert "error: node parameter t[0-1] given twice (at position 23)" in err

    @pytest.mark.parametrize(
        "argv,message",
        [(("principal", "--tree", "1,2,3;4,5,7 0-1"),
          "marking 7 is outside 1..6 (at position 10)"),
         (("principal", "--tree", "1,2,3;4,5,6,7 0-1"),
          "marking 7 is outside 1..6 (at position 12)"),
         (("verify-family", "--chart", "1,2,3;4,5,9 0-1"),
          "marking 9 is outside 1..6 (at position 10)"),
         (("principal", "--tree", "1,2,3;4,5 0-1"), "tree carries 5 markings but n = 6"),
         # a missing marking below n is counted, not read as n - 1 markings
         (("principal", "--tree", "1,2,3;4,6 0-1"), "tree carries 5 markings but n = 6"),
         (("verify-family", "--chart", "1,3;4,5,6 0-1"), "chart carries 5 markings but n = 6"),
         (("principal", "--tree", "1,2,3;3,4,5,6 0-1"),
          "marking 3 repeated across groups (at position 6)")],
    )
    def test_tree_marking_outside_range_is_2(self, capsys, argv, message):
        got = run(capsys, argv[0], "--d", "2", "--kappa=-1,-1,-1,-1,-1,1", *argv[1:])
        assert got == (2, "", f"error: {message}\n")

    def test_node_parameter_in_tree_names_its_position(self, capsys):
        code, out, err = run(
            capsys, "principal", "--d", "2", "--kappa=-1,-1,-1,-1", "--tree", "1,2;3,4 0-1 t[0-1]=1"
        )
        assert code == 2 and out == ""
        assert "error: node parameters belong to charts, not trees (at position 12)" in err

    @pytest.mark.parametrize(
        "factors,message",
        [("Dmu,psi_2", "need exactly n - 3 = 3 factors, got 2"),
         ("Dmu,Dmu_psi,psi_2,Dmu", "need exactly n - 3 = 3 factors, got 4"),
         ("Dmu,Dmu_psi,psi_7", "psi index 7 is outside 1..6 (at position 16)"),
         # the count is checked only once the whole list has parsed
         ("Dmu,psi_0", "psi index 0 is outside 1..6 (at position 8)")],
    )
    def test_form_only_list_errors_are_2(self, capsys, factors, message):
        code, out, err = run(
            capsys, "intersect", "--d", "3", "--kappa=-1,-1,-1,-1,-1,-1", "--factors", factors
        )
        assert code == 2 and out == ""
        assert f"error: {message}" in err

    def test_blank_factors_above_n3_is_2(self, capsys):
        for factors in ("", " "):
            code, out, err = run(
                capsys, "intersect", "--d", "2", "--kappa=-1,-1,-1,-1", "--factors", factors
            )
            assert code == 2 and out == ""
            assert "error: need exactly n - 3 = 1 factors, got 0" in err

    @pytest.mark.parametrize("second", ["0-1", "1-0"])
    @pytest.mark.parametrize(
        "argv,spec",
        [(("principal", "--d", "2", "--kappa=-1,-1,-1,-1,0,0", "--tree"), "1,2;3,4;5,6 0-1 {}"),
         (("verify-family", "--d", "2", "--kappa=-1,-1,-1,-1,0,0", "--chart"),
          "1,2;3,4;5,6 0-1 {} 0-2 t[0-1]=1")],
        ids=["tree", "chart"],
    )
    def test_repeated_edge_is_2(self, capsys, argv, spec, second):
        # the second copy is named where it is written, in either order
        got = run(capsys, *argv, spec.format(second))
        assert got == (2, "", "error: edge 0-1 given twice (at position 16)\n")

    def test_tree_with_cycle_is_2(self, capsys):
        # three edges on four vertices, closing the cycle 0-1-2 and leaving 3 out
        code, _, err = run(
            capsys, "principal", "--d", "2", "--kappa=-1,-1,-1,-1,-1,-1,-1,-1,4",
            "--tree", "1,2;3,4;5,6;7,8,9 0-1 1-2 0-2",
        )
        assert code == 2 and "tree is not connected" in err

    @pytest.mark.parametrize("depth,code", [("-5", 2), ("-1", 2), ("0", 0)])
    def test_negative_max_codim_is_2(self, capsys, depth, code):
        got, _, err = run(
            capsys, "volume", "--d", "2", "--kappa=-1,-1,-1,-1,-1,1", "--max-codim", depth,
        )
        assert got == code
        assert ("--max-codim must be >= 0" in err) == (code == 2)

    @pytest.mark.parametrize(
        "chart,extra,message",
        [("1,2;3,4 0-1", ("--samples", "0"), "--samples must be >= 1"),
         ("1,2;3,4 0-1 t[0-1]=0", (), "family verification needs nonzero node parameters")],
        ids=["no-samples", "pinched"],
    )
    def test_verify_family_refusals_are_2(self, capsys, chart, extra, message):
        got = run(capsys, "verify-family", "--d", "2", "--kappa=-1,-1,-1,-1", "--chart", chart,
                  *extra)
        assert got == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "params,code",
        [("t[0-1]=59/59 t[0-2]=-64/56", 2),  # marking 7 onto the node 0-2
         ("t[0-1]=3/7 t[0-2]=-64/64", 2),  # marking 5 onto the node 0-1
         ("t[0-1]=3/7 t[0-2]=-64/55", 0)],
    )
    def test_degenerate_chart_is_2(self, capsys, params, code):
        got, _, err = run(
            capsys, "verify-family", "--d", "3", "--kappa=5,-1,-2,-1,-2,-1,-2,0,-2",
            "--chart", "2;6,7,9;1,3,4,5,8 0-1 0-2 " + params,
        )
        assert got == code
        assert ("degenerate chart" in err) == (code == 2)


class TestIntersectOneEngine:
    """``intersect`` answers every factor list, ``D{...}`` factors included,
    by the restriction recursion ``form_psi_number``, never by the fold."""

    @pytest.fixture
    def no_fold(self, monkeypatch):
        import strata0.intersection

        fold = strata0.intersection.product_number

        def refuse(*args, **kwargs):
            raise AssertionError("intersect reached the fold")

        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "strata0":
                for attr, val in list(vars(mod).items()):
                    if val is fold:
                        monkeypatch.setattr(mod, attr, refuse)

    @pytest.mark.parametrize(
        "kappa,factors,value",
        [("2,-1,-2,-1,-2,-2", "D{2,4},Dmu,Dmu", "1"),
         ("2,-1,-2,-1,-2,-2", "D{1,2},D{1,3},Dmu", "0"),  # a crossing pair
         ("2,-1,-2,-1,-2,-2", "D{1,2},D{1,2},Dmu", "-1"),
         ("2,-1,-2,-1,-2,-2", "D{1,2},D{3,4,5,6},Dmu_psi", "-1"),  # one split, both sides
         ("2,-1,-2,-1,-2,-2", "D{1,2,3},D{1,2,3},D{4,5,6}", "2"),
         ("4,-1,-1,-2,-2,-2,-2", "D{1,2},Dmu,Dmu,Dmu", "21"),
         ("4,-1,-1,-2,-2,-2,-2", "D{2,3,4},D{5,6},Dmu,Dmu_psi", "-4"),
         ("4,-1,-1,-2,-2,-2,-2", "D{4,5},D{4,5},D{4,5},Dmu", "-1"),
         ("4,-1,-1,-2,-2,-2,-2", "D{1,2,3},D{4,5,6,7},psi_5,Dmu_psi", "2")],
    )
    def test_boundary_lists_never_reach_the_fold(self, capsys, no_fold, kappa, factors, value):
        got = run(capsys, "intersect", "--d", "3", f"--kappa={kappa}", "--factors", factors)
        assert got == (0, f"product = {value}\n", "")

    @pytest.mark.parametrize(
        "factors,message",
        [("D{1,2},Dmu", "need exactly n - 3 = 3 factors, got 2"),
         ("D{1,2},Dmu,psi_7", "psi index 7 is outside 1..6 (at position 15)"),
         ("D{},Dmu,Dmu", "bad marking '' (at position 2)"),
         ("Dmu,D{3},Dmu", "both sides of a boundary split need >= 2 markings (at position 4)"),
         ("D{1,2,3,4,5,6},Dmu,Dmu",
          "side must be a proper nonempty subset of 1..6 (at position 0)"),
         ("D{1,2,2},Dmu,Dmu", "marking 2 repeated in one group (at position 6)"),
         ("D{1,7},Dmu,Dmu", "marking 7 is outside 1..6 (at position 4)")],
    )
    def test_boundary_list_errors_are_2(self, capsys, no_fold, factors, message):
        got = run(capsys, "intersect", "--d", "3", "--kappa=2,-1,-2,-1,-2,-2", "--factors", factors)
        assert got == (2, "", f"error: {message}\n")


_json_text = st.text() | st.sampled_from(["", "\"", "\\", "\x00\x7f", "\u00a0\u2028", "\ud800"])
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**70), 2**70) | st.floats()
    | st.fractions() | _json_text,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.lists(st.integers() | st.booleans())
                   | st.dictionaries(_json_text, inner)),
    max_leaves=30,
)


def _spread(draw, size, total, floor):
    """``size`` integers ``>= floor`` summing to ``total``, one unit at a time."""
    vals = [floor] * size
    excess = total - size * floor
    for i in draw(st.lists(st.integers(0, size - 1), min_size=excess, max_size=excess)):
        vals[i] += 1
    return vals


@st.composite
def _p_hat_signatures(draw):
    """Signatures with n = 4..8 and d = 2..4, some with zero entries and
    some with a tie split ``k_A = k_B = -d``."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(4, 8))
    zeros = draw(st.integers(0, min(2, n - 4)))
    free = n - zeros
    if draw(st.booleans()):
        s = draw(st.integers(2, free - 2))
        kappa = _spread(draw, s, -d, 1 - d) + _spread(draw, free - s, -d, 1 - d)
    else:
        kappa = _spread(draw, free, -2 * d, 1 - d)
    return validate_signature(d, draw(st.permutations(kappa + [0] * zeros)))


@st.composite
def _row_groups(draw):
    """``_Rows`` groups whose columns take the declared kinds: ``"int"``
    (plain ints, some past 64 bits), ``"ints"`` (``None`` or a list of plain
    ints, empty at times), ``"blocks"`` and a rational over 6."""
    ints = st.integers() | st.integers(-(2**100), 2**100) | st.just(2**100)
    kinds = {
        "int": ints,
        "ints": st.none() | st.lists(ints, max_size=4),
        "blocks": st.lists(st.integers(1, 2**12 - 1), min_size=1, max_size=3).map(tuple),
        6: st.integers(-50, 50),
    }
    groups = []
    for _ in range(draw(st.integers(0, 3))):
        nrows = draw(st.integers(0, 4))
        names = draw(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4, unique=True))
        fields = tuple((name, draw(st.sampled_from(list(kinds)))) for name in names)
        columns = [draw(st.lists(kinds[kind], min_size=nrows, max_size=nrows)) for _, kind in fields]
        groups.append((fields, list(zip(*columns))))
    return groups


class TestJson:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_p_hat_signatures())
    @example(validate_signature(2, [-1, -1, -1, -1, -1, 1]))
    @example(validate_signature(3, [-1, -2, -1, -2]))  # two splits with k_B = -d on both sides
    @example(validate_signature(3, [0, 1, -1, -2, -2, -1, -1]))
    @example(validate_signature(2, [2, -1, -1, -1, -1, -1, -1]))  # E-nontrivial
    @example(validate_signature(3, [2, 1, -1, -2, -2, -1, -1, -2]))  # E-nontrivial, with ties
    def test_boundary_round_trip(self, sig):
        # the P-hat commands print from the walk's masks; every row must
        # equal the library's partitions and its checked values
        def payload(command):
            out = io.StringIO()
            kappa = ",".join(map(str, sig.kappa))
            with contextlib.redirect_stdout(out):
                assert main([command, "--d", str(sig.d), f"--kappa={kappa}", "--json"]) == 0
            text = out.getvalue()
            assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text
            return json.loads(text)

        def blocks(part):
            return [sorted(b) for b in part.blocks]

        def rat(x):
            return {"num": str(x.numerator), "den": str(x.denominator)}

        got = payload("boundary")
        rows = got["partitions"]
        assert got["count"] == len(rows) == 2 ** (sig.n - 1) - sig.n - 1
        assert [(row["blocks"], row["mu_s"]) for row in rows] == [
            (blocks(p), rat(boundary_weight(p, sig))) for p in enumerate_two_block(sig)]
        got = payload("phat")
        rows = got["partitions"]
        assert got["count"] == len(rows)
        assert [(row["blocks"], row["r"], row["m"]) for row in rows] == [
            (blocks(p), p.r, m_value(p, sig)) for p in enumerate_p_hat(sig)]
        got = payload("exceptional")
        want = exceptional_divisor(sig)
        assert got["trivial"] == want.is_zero()
        assert [(row["blocks"], row["coefficient"], row["orders"]) for row in got["terms"]] == [
            (blocks(p), c, list(vanishing_orders(p, sig).values()) if p.r >= 2 else None)
            for p, c in want.terms.items()]
        got = payload("divisor")
        for form, expr in (("boundary_form", d_mu_boundary_form(sig)),
                           ("psi_form", d_mu_psi_form(sig))):
            # psi classes by index, then splits by their side holding marking 1
            order = [(0, [t["psi"]]) if "psi" in t
                     else (1, next(b for b in t["boundary"] if 1 in b)) for t in got[form]]
            assert order == sorted(order)
            terms = {}
            for term in got[form]:
                sym = Psi(term["psi"]) if "psi" in term else Boundary.of(sig.n, term["boundary"][0])
                c = term["coefficient"]
                terms[sym] = Fraction(int(c["num"]), int(c["den"]))
            assert terms == expr.terms

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_p_hat_signatures())
    @example(validate_signature(3, [-2, -2, -2]))  # n = 3: every row array is empty
    @example(validate_signature(3, [-1, -2, -1, -2]))  # two splits with k_B = -d on both sides
    @example(validate_signature(3, [0, 1, -1, -2, -2, -1, -1]))
    @example(validate_signature(3, [2, 1, -1, -2, -2, -1, -1, -2]))  # E-nontrivial, with ties
    @example(validate_signature(2, [3, 3] + [-1] * 10))  # n = 12: 22,226 elements of P-hat
    def test_rows_match_the_dict_oracle(self, sig):
        # the row writer and the tables print what the dict-row builders of
        # cli_rows_oracle give, encoded by json.dumps, byte for byte
        def rat(f):
            return {"num": str(f.numerator), "den": str(f.denominator)}

        kappa = ",".join(map(str, sig.kappa))
        for command in cli_rows_oracle.BUILDERS:
            payload, lines = cli_rows_oracle.payload(command, sig)
            argv = [command, "--d", str(sig.d), f"--kappa={kappa}"]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv + ["--json"]) == 0
            assert out.getvalue() == json.dumps(payload, indent=2, sort_keys=True, default=rat) + "\n"
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0
            assert out.getvalue().split("\n") == lines + [""]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_p_hat_signatures())
    @example(validate_signature(2, [-1, -1, -1, -1, -1, 1]))
    @example(validate_signature(3, [0, 1, -1, -2, -2, -1, -1]))
    def test_tables_print_the_payload(self, sig):
        # one run prints the table and writes its payload to --out: every
        # number in the table is the payload's, row by row
        def run_out(command):
            kappa = ",".join(map(str, sig.kappa))
            out = io.StringIO()
            with tempfile.TemporaryDirectory() as tmp:
                path = pathlib.Path(tmp, "out.json")
                argv = [command, "--d", str(sig.d), f"--kappa={kappa}", "--out", str(path)]
                with contextlib.redirect_stdout(out):
                    code = main(argv)
                got = json.loads(path.read_text()) if code == 0 else None
            return code, out.getvalue().splitlines(), got

        def rat(c):
            return Fraction(int(c["num"]), int(c["den"]))

        _, lines, got = run_out("boundary")
        assert [Fraction(line.split()[-1]) for line in lines[1:]] == [
            rat(row["mu_s"]) for row in got["partitions"]]
        _, lines, got = run_out("divisor")
        psi_at = lines.index("psi form:")
        assert lines[0] == "distinguished divisor, boundary form:"
        for form, rows in (("boundary_form", lines[1:psi_at]), ("psi_form", lines[psi_at + 1:])):
            assert [Fraction(line.split()[-1]) for line in rows] == [
                rat(term["coefficient"]) for term in got[form]]
        code, lines, got = run_out("volume")
        assert code in (0, 3)
        if code == 0:
            top = re.fullmatch(r"top self-intersection: (\S+)", lines[0])
            vol = re.fullmatch(r"volume = (\S+) \* pi\^(\d+)", lines[1])
            assert Fraction(top[1]) == rat(got["intersection_number"])
            assert (Fraction(vol[1]), int(vol[2])) == (rat(got["coefficient"]), got["pi_power"])

    def test_divisor_walks_the_splits_once(self, capsys, monkeypatch):
        # both forms of D_mu are printed from one walk of the two-block splits
        import strata0

        walks = []
        walk = strata0.strata._p_hat_walk

        def counting(*args, **kwargs):
            walks.append(args)
            return walk(*args, **kwargs)

        for mod in (strata0.strata, strata0.divisors, strata0.cli):
            for name, val in list(vars(mod).items()):
                if val is walk:
                    monkeypatch.setattr(mod, name, counting)
        code, _, _ = run(capsys, "divisor", "--d", "3", "--kappa=0,1,-1,-2,-2,-1,-1", "--json")
        assert (code, len(walks)) == (0, 1)

    def test_table_run_encodes_json_only_for_out(self, capsys, monkeypatch, tmp_path):
        calls, rows, tables = [], [], []
        encode, write_rows, mask_dict = cli._json, cli._rows_json, cli._MaskTexts

        def counting(value, indent="\n"):
            calls.append(indent)
            return encode(value, indent)

        def counting_rows(value, indent):
            rows.extend(row for _, group in value for row in group)
            return write_rows(value, indent)

        class Tracked(mask_dict):
            def __init__(self, opening, sep, closing):
                super().__init__(opening, sep, closing)
                tables.append(weakref.ref(self))

        monkeypatch.setattr(cli, "_json", counting)
        monkeypatch.setattr(cli, "_rows_json", counting_rows)
        monkeypatch.setattr(cli, "_MaskTexts", Tracked)
        argv = ("phat", "--d", "2", "--kappa=2,-1,-1,-1,-1,-1,-1")
        code, table, _ = run(capsys, *argv)
        assert (code, len(calls), len(rows)) == (0, 0, 0)
        out = tmp_path / "phat.json"
        assert run(capsys, *argv, "--out", str(out)) == (0, table, "")
        # one payload encoded: its nested values recurse at a deeper indent
        assert calls.count("\n") == 1
        got = json.loads(out.read_text())
        assert got["command"] == "phat"
        # each row written once
        assert len(rows) == len(set(rows)) == got["count"] == len(got["partitions"])
        # one mask dict per printed table and one for the row array, all dead
        assert len(tables) == 3 and all(ref() is None for ref in tables)

    @pytest.mark.parametrize("form", [("[\n      ", ",\n      ", "\n    ]"), ("", ",", "")])
    @pytest.mark.parametrize("order", ["descending", "shuffled"])
    def test_mask_texts_build_each_text_from_its_prefix(self, form, order):
        # every mask at n = 12 (so markings 10-12 appear), looked up in an
        # order that leaves prefixes missing, so they fill in recursively;
        # the table form's closing is empty, where a [:-0] slice would show
        masks = list(range(2**12 - 1, 0, -1))
        if order == "shuffled":
            random.Random(12).shuffle(masks)
        opening, sep, closing = form
        texts = cli._MaskTexts(opening, sep, closing)
        for mask in masks:
            assert texts[mask] == opening + sep.join(map(str, _mask_marks(mask))) + closing
        assert len(texts) == 2**12 - 1

    def test_marks_order_key_sorts_masks_as_their_markings(self):
        masks = range(1, 2**12)
        assert sorted(masks, key=cli._marks_order_key) == sorted(masks, key=_mask_marks)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_row_groups())
    @example([((("a", "int"), ("b", "int"), ("c", "int")),
               [(1, 0, 3), (-1, 2**64, -(2**100)), (0, -7, 2**100)])])
    @example([((("a", "int"), ("b", "blocks"), ("c", 6)), [(1, (3, 2**11 + 5), 4), (-2, (1,), -9)]),
              ((("a", "int"),), [(5,), (-5,)])])
    @example([((("orders", "ints"), ("c", "int")),
               [(None, 1), ([3, -(2**100), 0], 2), ([], 3), ([7], 6)])])
    def test_rows_json_int_columns_match_json_dumps(self, groups):
        # each column is written by the writer of its declared kind: an
        # "ints" None is null and an empty list [], as json.dumps writes them
        def rat(f):
            return {"num": str(f.numerator), "den": str(f.denominator)}

        def as_dict(fields, row):
            out = {}
            for (name, kind), v in zip(fields, row):
                if kind == "blocks":
                    v = [list(_mask_marks(m)) for m in v]
                elif type(kind) is int:
                    v = Fraction(v, kind)
                out[name] = v
            return out

        dicts = [as_dict(fields, row) for fields, rows in groups for row in rows]
        for payload, want in ((cli._Rows(*groups), dicts), ({"k": [cli._Rows(*groups)]}, {"k": [dicts]})):
            assert cli._json(payload) == json.dumps(want, indent=2, sort_keys=True, default=rat)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_json_values)
    @example({"e": {}, "l": [], "t": (), "n": None, "f": [float("nan"), float("inf"), -0.0]})
    @example([1, True, 0, False, -(2**100)])
    @example(["\"q\" \\ \t\x00\x1f \u00e9 \u2003 \U0001f600", {"\u00e9\n": "\\"}])
    @example([Fraction(-3, 4), {"c": Fraction(5)}, (Fraction(0),)])
    def test_emitter_matches_json_dumps(self, value):
        def rat(f):
            return {"num": str(f.numerator), "den": str(f.denominator)}

        assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True, default=rat)

    def test_byte_identical_reruns(self, capsys):
        a = run(capsys, "phat", "--d", "2", "--kappa=2,-1,-1,-1,-1,-1,-1", "--json")
        b = run(capsys, "phat", "--d", "2", "--kappa=2,-1,-1,-1,-1,-1,-1", "--json")
        assert a == b

    def test_verify_family_deterministic(self, capsys):
        args = (
            "verify-family", "--d", "2", "--kappa=1,1,-1,-1,-1,-1,-1,-1",
            "--chart", "1,2;3,4,5;6,7,8 0-1 0-2", "--samples", "2",
            "--seed", "5", "--json",
        )
        a = run(capsys, *args)
        b = run(capsys, *args)
        assert a == b
        assert a[0] == 0
        payload = json.loads(a[1])
        assert payload["all_ok"] and payload["seed"] == 5

    def test_volume_payload(self, capsys):
        code, out, _ = run(capsys, "volume", "--d", "2", "--kappa=-1,-1,-1,-1", "--json")
        payload = json.loads(out)
        assert payload["coefficient"] == {"num": "-1", "den": "4"}
        assert payload["pi_power"] == 2
        assert payload["e_trivial"] is True

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(
            capsys, "exceptional", "--d", "2", "--kappa=2,-1,-1,-1,-1,-1,-1",
            "--out", str(target),
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["trivial"] is False

    def test_principal_payload(self, capsys):
        code, out, _ = run(
            capsys, "principal", "--d", "2", "--kappa=2,-1,-1,-1,-1,-1,-1",
            "--tree", "1;2,3,4;5,6,7 0-1 0-2", "--json",
        )
        payload = json.loads(out)
        assert payload["principal_subcurves"] == [[1], [2]]
        assert payload["fiber_projective_dim"] == 1
        assert payload["in_ideal_support"] is True

    def test_intersect_value(self, capsys):
        code, out, _ = run(
            capsys, "intersect", "--d", "3", "--kappa=-1,-1,-1,-1,-1,-1",
            "--factors", "Dmu,Dmu,Dmu", "--json",
        )
        payload = json.loads(out)
        assert payload["value"] == {"num": "3", "den": "1"}

    def test_intersect_empty_product_at_n3(self, capsys):
        # M_{0,3} is a point: the empty product integrates to 1
        argv = ("intersect", "--d", "3", "--kappa=-2,-2,-2", "--factors", "")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert json.loads(out)["value"] == {"num": "1", "den": "1"}
        assert run(capsys, *argv) == (0, "product = 1\n", "")

    def test_divisor_payload(self, capsys):
        code, out, _ = run(capsys, "divisor", "--d", "2", "--kappa=-1,-1,-1,-1", "--json")
        payload = json.loads(out)
        assert len(payload["boundary_form"]) == 3
        assert all(t["coefficient"] == {"num": "1", "den": "3"} for t in payload["boundary_form"])
        psis = [t for t in payload["psi_form"] if "psi" in t]
        assert len(psis) == 4
        # every split is balanced (k_B = -d), so the block holding marking 1 is I0
        balanced = [[[1, 2], [3, 4]], [[1, 3], [2, 4]], [[1, 4], [2, 3]]]
        assert [t["boundary"] for t in payload["boundary_form"]] == balanced
        assert [t["boundary"] for t in payload["psi_form"] if "boundary" in t] == balanced

    def test_volume_max_codim_crosscheck(self, capsys):
        code, out, _ = run(
            capsys, "volume", "--d", "2", "--kappa=-1,-1,-1,-1,-1,1",
            "--max-codim", "3", "--json",
        )
        assert code == 0

    def test_volume_max_codim_builds_no_tree(self, capsys, monkeypatch):
        # no tree, and no laminar table or principal pass per tree: the walk
        # folds principal groups along the split walk one leaf at a time
        calls = {"tree": 0, "_laminar": 0, "_principal": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(StableTree, "__post_init__",
                            counting("tree", StableTree.__post_init__))
        for name in ("_laminar", "_principal"):
            monkeypatch.setattr(cli.strata, name, counting(name, getattr(cli.strata, name)))
        # n = 7 and E-trivial, so the walk visits all 2752 trees up to depth 4
        code, _, _ = run(
            capsys, "volume", "--d", "2", "--kappa=1,-1,-1,-1,-1,-1,0", "--max-codim", "4"
        )
        assert (code, calls) == (0, {"tree": 0, "_laminar": 0, "_principal": 0})


class TestOneParser:
    def test_main_builds_no_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        run(capsys, "boundary", "--d", "2", "--kappa=-1,-1,-1,-1")
        run(capsys, "volume", "--d", "2", "--kappa=-1,-1,-1,-1,-1,1", "--max-codim", "2")
        run(capsys, "intersect", "--d", "3", "--kappa=-1,-1,-1,-1,-2", "--factors", "Dmu,Dmu")
        run(capsys, "volume", "--d", "2", "--kappa=-1,-1,-1")
        with pytest.raises(SystemExit):
            run(capsys, "volume", "--d", "2")
        assert built == []

    @pytest.mark.parametrize(
        "first,second",
        [
            (("volume", "--d", "2", "--kappa=-1,-1,-1,-1,-1,1", "--max-codim", "2"),
             ("volume", "--d", "2", "--kappa=-1,-1,-1,-1,-1,1")),
            (("verify-family", "--d", "2", "--kappa=1,1,-1,-1,-1,-1,-1,-1",
              "--chart", "1,2;3,4,5;6,7,8 0-1 0-2", "--samples", "2", "--seed", "7"),
             ("verify-family", "--d", "2", "--kappa=1,1,-1,-1,-1,-1,-1,-1",
              "--chart", "1,2;3,4,5;6,7,8 0-1 0-2", "--samples", "2")),
        ],
        ids=["max-codim", "seed"],
    )
    def test_options_do_not_carry_over(self, capsys, first, second):
        # the second call answers as it does in a fresh process
        fresh = run_child(*second, "--json")
        run(capsys, *first, "--json")
        assert run(capsys, *second, "--json") == fresh


def test_large_refusal_exits_3_in_bounded_memory():
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    cases = [
        # n = 16 and E-nontrivial: the exit-3 message needs three terms, not P-hat
        (("--d", "2", "--kappa=5,5" + ",-1" * 14),
         "{1 | 2,3,4,5,6,7,8,9,10 | 11,12,13,14,15,16} -> 4, "
         "{1 | 2,3,4,5,6,7,8,9,10,11 | 12,13,14,15,16} -> 6, "
         "{1 | 2,3,4,5,6,7,8,9,10,11,12 | 13,14,15,16} -> 6"),
        # n = 10: the --max-codim cross-check stops at the first tree in the
        # ideal support instead of building every tree up to depth 7 first
        (("--d", "2", "--kappa=5" + ",-1" * 9, "--max-codim", "7"),
         "{1 | 2,3,4 | 5,6,7,8,9,10} -> 4, "
         "{1 | 2,3,4,5 | 6,7,8,9,10} -> 6, "
         "{1 | 2,3,4,5,6 | 7,8,9,10} -> 6"),
        # n = 26 at depth 0: the walk never extends the smooth curve, so it
        # builds no candidate list and no k table over the 2^25 far masks
        (("--d", "7", "--kappa=5,5" + ",-1" * 24, "--max-codim", "0"),
         "{1 | 2,3,4,5,6,7,8,9,10,11,12,13,14,15 | 16,17,18,19,20,21,22,23,24,25,26} -> 4, "
         "{1 | 2,3,4,5,6,7,8,9,10,11,12,13,14,15,16 | 17,18,19,20,21,22,23,24,25,26} -> 6, "
         "{1 | 2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17 | 18,19,20,21,22,23,24,25,26} -> 6"),
    ]
    for argv, message in cases:
        code, out, err = run_child("volume", *argv, preexec_fn=limit, timeout=10)
        assert (code, out) == (3, ""), err
        assert err == f"error: nonzero exceptional coefficients: {message}\n"


# ---------------------------------------------------------------------------
# fuzzing the spec parsers
# ---------------------------------------------------------------------------

_SPEC_CHARS = "0123456789,;{}-=t[]/ Dmups_"
_KAPPA_BY_N = {4: "-1,-1,-1,-1", 5: "-1,-1,-1,-1,0", 6: "-1,-1,-1,-1,-1,1"}
_junk = st.text(_SPEC_CHARS, max_size=12)
# a marking list with entries out of range, repeated or empty
_marks = st.lists(st.one_of(st.integers(0, 7).map(str), st.just(""), _junk), max_size=4).map(",".join)


@st.composite
def _tree_spec(draw, n):
    edge = st.tuples(st.integers(0, 4), st.integers(0, 4)).map("{0[0]}-{0[1]}".format)
    param = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-3, 3), st.integers(-1, 3))
    param = param.map("t[{0[0]}-{0[1]}]={0[2]}/{0[3]}".format)
    if draw(st.booleans()):
        # markings 1..n cut into groups, joined by a random tree on them
        perm = [str(i) for i in draw(st.permutations(range(1, n + 1)))]
        cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
        groups = [",".join(perm[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
        tokens = [f"{draw(st.integers(0, v - 1))}-{v}" for v in range(1, len(groups))]
    else:
        groups = draw(st.lists(_marks, min_size=1, max_size=4))
        tokens = []
    tokens += draw(st.lists(st.one_of(edge, param, _junk), max_size=3))
    return " ".join([";".join(groups)] + tokens)


@st.composite
def _kappa(draw, top):
    """A signature with at most ``top`` entries, valid or one entry off."""
    d = draw(st.integers(2, 3))
    n = draw(st.integers(2 * d // (d - 1), top))
    kappa = [1 - d] * n
    spare = n * (d - 1) - 2 * d  # raise entries from 1 - d until they sum to -2d
    for i in draw(st.lists(st.integers(0, n - 1), min_size=spare, max_size=spare)):
        kappa[i] += 1
    kappa[0] += draw(st.sampled_from([0, 0, -1, 1]))
    return d, kappa


@st.composite
def _fuzz_argv(draw):
    n = draw(st.integers(4, 6))
    kappa = _KAPPA_BY_N[n]
    kind = draw(st.sampled_from(["kappa", "tree", "chart", "factors"]))
    if kind == "kappa":
        cmd = draw(st.sampled_from(["boundary", "phat", "exceptional", "divisor", "volume"]))
        top = 6 if cmd == "volume" else 8  # keeps product_number's volumes small
        if draw(st.booleans()):
            d, entries = draw(_kappa(top))
            entries = [str(k) for k in entries]
        else:
            d = draw(st.integers(1, 3))
            entries = draw(st.lists(st.one_of(st.integers(-3, 4).map(str), _junk), max_size=top))
        return [cmd, "--d", str(d), "--kappa=" + ",".join(entries)]
    if kind == "factors":
        side = st.lists(st.integers(1, n), min_size=1, max_size=n - 1, unique=True)
        factor = st.one_of(
            st.integers(0, 7).map("psi_{}".format),
            side.map(lambda s: "D{" + ",".join(map(str, s)) + "}"),
            _marks.map("D{{{}}}".format),
            st.sampled_from(["Dmu", "Dmu_psi"]),
            _junk,
        )
        factors = st.lists(factor, min_size=n - 3, max_size=n - 3)
        text = draw(st.one_of(factors.map(",".join), st.lists(factor, max_size=4).map(",".join), _junk))
        return ["intersect", "--d", "2", f"--kappa={kappa}", f"--factors={text}"]
    text = draw(st.one_of(_tree_spec(n), _junk))
    if kind == "tree":
        return ["principal", "--d", "2", f"--kappa={kappa}", f"--tree={text}"]
    return ["verify-family", "--d", "2", f"--kappa={kappa}", f"--chart={text}", "--samples", "1"]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_fuzz_argv())
def test_fuzzed_specs_end_in_a_known_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, code)
