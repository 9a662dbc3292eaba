"""Self-test of the benchmark: generators, answer checks and failure counting.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import copy
import json

import pytest

import oracles
import queries as Q
import run
from child import call

ANSWERS = Q.load_answers()


@pytest.mark.parametrize("workload", Q.WORKLOADS)
def test_generator_is_seeded_and_large_enough(workload):
    a = Q.generate(workload, 7, ANSWERS)
    assert a == Q.generate(workload, 7, ANSWERS)
    assert a != Q.generate(workload, 8, ANSWERS)
    # at least ten queries lie beyond p90
    assert len(a) >= 100
    assert all(set(q) == {"argv", "check"} for q in a)


def _small(workload, count):
    """A few cheap queries of a workload (small n, no fold beyond n = 6)."""
    out = []
    for q in Q.generate(workload, 3, ANSWERS):
        argv = q["argv"]
        n = len(oracles._argv_value(argv, "--kappa").split(","))
        if workload == "volume":
            cheap = n <= 5
        elif workload == "intersect":
            cheap = n == 6 and "Dmu" not in oracles._argv_value(argv, "--factors")
        elif workload == "blowup":
            cheap = n == 8 and argv[0] in ("boundary", "volume", "divisor")
        else:
            cheap = argv[0] in ("principal", "verify-family")
        if cheap:
            out.append(q)
    kinds = {}
    for q in out:  # spread the picks over check kinds
        kinds.setdefault(q["check"]["kind"], []).append(q)
    picked = [q for qs in kinds.values() for q in qs[:count]]
    assert picked
    return picked


@pytest.mark.parametrize("workload", Q.WORKLOADS)
def test_checks_accept_the_program_answers(workload):
    for q in _small(workload, 3):
        code, out, error = call(q["argv"])
        assert not error
        assert oracles.check(q, code, out) is None, q["argv"]


def test_wrong_answer_is_a_failure():
    q = next(q for q in _small("volume", 50) if q["check"]["oracle"] == "recorded")
    code, out, _ = call(q["argv"])
    payload = json.loads(out)
    payload["intersection_number"]["num"] = str(int(payload["intersection_number"]["num"]) + 1)
    assert "intersection number" in oracles.check(q, code, json.dumps(payload))
    q = next(q for q in _small("intersect", 5) if q["check"]["kind"] == "psi_monomial")
    code, out, _ = call(q["argv"])
    assert oracles.check(q, code, out.replace('"num": "', '"num": "9')) is not None
    # an answer in an unexpected shape fails instead of stopping the benchmark
    assert oracles.check(q, code, "{}").startswith("malformed answer")


def test_unexpected_exit_code_is_a_failure():
    q = _small("trees", 1)[0]
    assert oracles.check(q, 2, "") == "unexpected exit code 2"
    refused = next(q for q in _small("blowup", 5) if q["check"]["kind"] == "refused")
    assert oracles.check(refused, 0, "{}") == "expected exit 3, got 0"


def test_independent_oracles():
    assert oracles.psi_multinomial([2, 1, 0, 0, 0, 0]) == 3  # 3!/(2! 1!)
    assert oracles.n4_boundary_sum(2, [-1, -1, -1, -1]) == 1
    assert oracles.n4_boundary_sum(4, [1, -3, -3, -3]) == -1


def test_child_counts_failures_and_traces(tmp_path):
    good = _small("volume", 2)
    bad_exit = {"argv": ["volume", "--json", "--d", "2", "--kappa=1,1,1"],
                "check": {"kind": "volume", "oracle": "recorded", "value": "1"}}
    wrong_value = copy.deepcopy(good[0])
    wrong_value["check"]["oracle"], wrong_value["check"]["value"] = "recorded", "12345"
    qs = good + [bad_exit, wrong_value]
    plain = run.spawn({"queries": qs})
    assert len(plain["latencies"]) == len(qs) and plain["rss_kb"] > 0
    assert [f["query"] for f in plain["failures"]] == [2, 3]
    assert plain["failures"][0]["reason"] == "unexpected exit code 2"
    traced = run.spawn({"queries": qs, "trace": True, "spans_path": str(tmp_path / "s.jsonl")})
    layers = traced["layers"]
    assert layers["cli.main"]["calls"] == len(qs)
    assert layers["intersection.product_number"]["calls"] == 3
    assert layers["strata.validate_signature"]["calls"] == len(qs)
    metrics = run.per_layer(plain, traced)
    assert 0 < metrics["trace.uncovered_share"] < 1
    lines = (tmp_path / "s.jsonl").read_text().splitlines()
    assert len(lines) == 1 + sum(row["calls"] for row in layers.values())
