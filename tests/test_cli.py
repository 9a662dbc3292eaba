"""The command-line surface: exit codes, JSON stability, spec parsing."""

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strata0.cli import SpecParseError, main, parse_kappa, parse_tree_spec
from strata0.strata import StableTree, boundary_weight, enumerate_two_block, validate_signature


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
        groups, edges, params = parse_tree_spec("1,2;3,4,5;6,7,8 0-1 0-2 t[0-1]=1/3")
        assert groups == (frozenset({1, 2}), frozenset({3, 4, 5}), frozenset({6, 7, 8}))
        assert edges == [(0, 1), (0, 2)]
        assert params[(0, 1)].numerator == 1 and params[(0, 1)].denominator == 3

    def test_tree_spec_empty_group(self):
        groups, edges, _ = parse_tree_spec("1,2;;3,4 0-1 1-2")
        assert groups[1] == frozenset()

    def test_tree_spec_bad_token_position(self):
        with pytest.raises(SpecParseError) as exc:
            parse_tree_spec("1,2;3,4,5;6,7,8 0-1 0=2")
        assert exc.value.pos == 20

    def test_tree_spec_bad_marking_position(self):
        with pytest.raises(SpecParseError) as exc:
            parse_tree_spec("1,2;3,x;4,5 0-1 1-2")
        assert exc.value.pos == 6

    def test_edge_to_missing_vertex(self):
        with pytest.raises(SpecParseError):
            parse_tree_spec("1,2;3,4 0-5")

    def test_param_for_missing_edge(self):
        with pytest.raises(SpecParseError):
            parse_tree_spec("1,2;3,4 0-1 t[1-2]=1")


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
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(
            capsys, "boundary", "--d", "2", "--kappa=-1,-1,-1,-1", "--out", str(target)
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

    def test_node_parameter_in_tree_names_its_position(self, capsys):
        code, out, err = run(
            capsys, "principal", "--d", "2", "--kappa=-1,-1,-1,-1", "--tree", "1,2;3,4 0-1 t[0-1]=1"
        )
        assert code == 2 and out == ""
        assert "error: node parameters belong to charts, not trees (at position 12)" in err

    def test_blank_factors_above_n3_is_2(self, capsys):
        for factors in ("", " "):
            code, out, err = run(
                capsys, "intersect", "--d", "2", "--kappa=-1,-1,-1,-1", "--factors", factors
            )
            assert code == 2 and out == ""
            assert "error: need exactly n - 3 = 1 factors, got 0" in err

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


class TestJson:
    def test_boundary_round_trip(self, capsys):
        # the second signature has d = 3 and two splits with k_B = -d on both sides
        for d, kappa, count in ((2, "-1,-1,-1,-1,-1,1", 25), (3, "-1,-2,-1,-2", 3)):
            code, out, _ = run(capsys, "boundary", "--d", str(d), f"--kappa={kappa}", "--json")
            assert code == 0
            payload = json.loads(out)
            assert payload["count"] == count
            assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out
            # every row against the checked reference: the numbered two-block
            # partitions and the Fraction weight of each
            sig = validate_signature(d, parse_kappa(kappa))
            want = []
            for part in enumerate_two_block(sig):
                mu_s = boundary_weight(part, sig)
                want.append(([sorted(b) for b in part.blocks],
                             {"num": str(mu_s.numerator), "den": str(mu_s.denominator)}))
            assert [(row["blocks"], row["mu_s"]) for row in payload["partitions"]] == want

    def test_table_run_encodes_json_only_for_out(self, capsys, monkeypatch, tmp_path):
        calls = []
        dumps = json.dumps

        def counting(*args, **kwargs):
            calls.append(1)
            return dumps(*args, **kwargs)

        monkeypatch.setattr(json, "dumps", counting)
        argv = ("phat", "--d", "2", "--kappa=2,-1,-1,-1,-1,-1,-1")
        code, table, _ = run(capsys, *argv)
        assert (code, len(calls)) == (0, 0)
        out = tmp_path / "phat.json"
        assert run(capsys, *argv, "--out", str(out)) == (0, table, "")
        assert len(calls) == 1
        assert json.loads(out.read_text())["command"] == "phat"

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
        built = []
        init = StableTree.__post_init__

        def counting(self):
            built.append(1)
            init(self)

        monkeypatch.setattr(StableTree, "__post_init__", counting)
        # n = 7 and E-trivial, so the walk visits all 2752 trees up to depth 4
        code, _, _ = run(
            capsys, "volume", "--d", "2", "--kappa=1,-1,-1,-1,-1,-1,0", "--max-codim", "4"
        )
        assert (code, len(built)) == (0, 0)


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
        (("--kappa=5,5" + ",-1" * 14,),
         "{1 | 2,3,4,5,6,7,8,9,10 | 11,12,13,14,15,16} -> 4, "
         "{1 | 2,3,4,5,6,7,8,9,10,11 | 12,13,14,15,16} -> 6, "
         "{1 | 2,3,4,5,6,7,8,9,10,11,12 | 13,14,15,16} -> 6"),
        # n = 10: the --max-codim cross-check stops at the first tree in the
        # ideal support instead of building every tree up to depth 7 first
        (("--kappa=5" + ",-1" * 9, "--max-codim", "7"),
         "{1 | 2,3,4 | 5,6,7,8,9,10} -> 4, "
         "{1 | 2,3,4,5 | 6,7,8,9,10} -> 6, "
         "{1 | 2,3,4,5,6 | 7,8,9,10} -> 6"),
    ]
    for argv, message in cases:
        code, out, err = run_child("volume", "--d", "2", *argv, preexec_fn=limit, timeout=10)
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
        top = 6 if cmd == "volume" else 8  # keeps the fold small
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
