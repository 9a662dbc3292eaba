"""Run the checked-in mutants of the library against the tests that guard them.

Each mutant names a file, an exact text of it, the text that replaces it and
the tests that must fail once it is in.  For each mutant the tool copies
``src/``, ``tests/`` and ``pyproject.toml`` into a fresh temporary directory,
replaces the text there (it must occur exactly once) and runs the named
tests in that copy, with ``PYTHONPATH`` on the copy's ``src/``.  A mutant is
killed when a named test fails, and survives when they all pass.  Before the
mutants, the union of their tests runs once on an unchanged copy, so a test
that already fails cannot pass for a kill.

    python tools/mutants.py

The exit status is 0 when every mutant is killed, and 1 when one
survives, when its text no longer matches the file exactly once, when its
tests cannot be collected, or when the unchanged copy fails.  It runs one
pytest process at a time and is not part of the test suite: the whole list
takes minutes.  The suite only checks the list itself
(``tests/test_mutant_list.py``), so a change to a mutated line updates its
mutant in the same change.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


CLI, LF, STRATA = "src/strata0/cli.py", "src/strata0/local_family.py", "src/strata0/strata.py"
DIVISORS, INTERSECTION = "src/strata0/divisors.py", "src/strata0/intersection.py"
ROWS_TESTS = (
    "tests/test_cli.py::TestJson::test_rows_json_int_columns_match_json_dumps",
    "tests/test_cli.py::TestJson::test_rows_match_the_dict_oracle",
)
SPREAD_TESTS = (
    "tests/test_local_family.py::test_spread_matches_path_fold",
    "tests/test_local_family.py::test_integer_path_matches_fraction_oracle",
    "tests/test_local_family.py::TestIntegerPath",
    "tests/test_local_family.py::test_every_tree_against_fraction_oracle",
)
FOLD_TESTS = (
    "tests/test_tree_oracle.py::test_split_walk_fold_matches_oracle_on_every_small_signature",
)
SPREAD_STEP = "            num, den = u * c * diff + v * a * s * q, v * c * diff\n"

MUTANTS = (
    # the row writer and the tables
    Mutant("mask-texts-negative-slice", CLI,
           "head[:len(head) - len(self.closing)]", "head[:-len(self.closing)]",
           ("tests/test_cli.py::TestJson::test_mask_texts_build_each_text_from_its_prefix",
            "tests/test_cli.py::TestJson::test_tables_print_the_payload")),
    Mutant("order-key-without-bit-flip", CLI,
           "bin(mask ^ ((2 << mask.bit_length()) - 1))[:2:-1]",
           "bin(mask ^ (2 << mask.bit_length()))[:2:-1]",
           ("tests/test_cli.py::TestJson::test_marks_order_key_sorts_masks_as_their_markings",
            "tests/test_cli.py::TestJson::test_rows_match_the_dict_oracle")),
    Mutant("rational-column-without-gcd", CLI,
           "            g = math.gcd(num, den)\n            return fraction %",
           "            g = 1\n            return fraction %",
           ROWS_TESTS),
    Mutant("ints-column-writes-none-as-empty-list", CLI,
           '        if values is None:\n            return "null"',
           '        if values is None:\n            return "[]"',
           ROWS_TESTS),
    # the local model's integer pairs and its refusal
    Mutant("spread-negative-denominator", LF,
           "g = gcd(num, den) if diff > 0 else -gcd(num, den)", "g = gcd(num, den)",
           SPREAD_TESTS),
    Mutant("spread-unreduced-pair", LF,
           "g = gcd(num, den) if diff > 0 else -gcd(num, den)", "g = 1 if diff > 0 else -1",
           SPREAD_TESTS),
    Mutant("spread-sign-flip-past-the-first-node", LF, SPREAD_STEP,
           SPREAD_STEP.replace("+ v * a", "+ (1 if near == start else -1) * v * a"),
           SPREAD_TESTS),
    Mutant("spread-sign-flip-from-the-third-node", LF, SPREAD_STEP,
           SPREAD_STEP.replace(
               "+ v * a",
               "+ (1 if near == start or near in chart.node_coords[start] else -1) * v * a"),
           SPREAD_TESTS),
    Mutant("refusal-without-off-home-condition", LF,
           "if not q and i not in self.mark_coords[v]", "if not q",
           ("tests/test_local_family.py::TestDegenerateChart",
            "tests/test_local_family.py::test_degenerate_chart_refusal_matches_oracle")),
    Mutant("refusal-without-zero-parameter", LF,
           '        if 0 in self.node_params.values():\n'
           '            return "family verification needs nonzero node parameters"\n', "",
           ("tests/test_local_family.py::TestVerifyRatioIdentity::test_smooth_fiber_required",
            "tests/test_local_family.py::TestVerifyRatioIdentity"
            "::test_zero_parameter_refused_before_the_frames")),
    # a tree and a signature on different markings
    Mutant("markings-check-dropped", STRATA,
           "    if marks != (1 << sig.n) - 1:\n", "    if False:\n",
           ("tests/test_strata.py::test_tree_and_signature_on_different_markings_refused",)),
    # the --max-codim walk's fold of the principal-subcurve rule
    Mutant("fold-heavy-leaf-ignores-ruled-parent", STRATA,
           "c += out >> top[p] & 1", "c += 1", FOLD_TESTS),
    Mutant("fold-drops-the-parent-rule-out", STRATA,
           "                out |= 1 << top[p]\n", "", FOLD_TESTS),
    Mutant("fold-drops-the-light-leaf-rule-out", STRATA,
           "                out |= 1 << v\n", "                pass\n", FOLD_TESTS),
    # the principal-subcurve rule against the stars of P-hat
    Mutant("principal-swaps-the-ruled-out-group", STRATA,
           "top[parent[v]] if ks[v] < -d else top[v]", "top[v] if ks[v] < -d else top[parent[v]]",
           ("tests/test_tree_oracle.py::test_ideal_support_is_the_union_of_star_closures",)),
    # the engines: the P-hat window, McMullen's DP, W's restriction step and
    # product_number's vertex split
    Mutant("window-open-at-its-floor", STRATA,
           "            if lo <= k <= hi:\n", "            if lo < k <= hi:\n",
           ("tests/test_phat_oracle.py::test_enumerators_match_oracle",)),
    Mutant("mcmullen-without-the-zero-floor", DIVISORS,
           "weight.append(max(0, d + ks[mask]) **", "weight.append((d + ks[mask]) **",
           ("tests/test_divisors.py::TestPartitionSumEngine"
            "::test_matches_fold_on_the_whole_grid",)),
    Mutant("w-restriction-drops-the-parentheses", DIVISORS,
           "k_b, x = -2 * d - k_a, 2 * (d + k_a)", "k_b, x = -2 * d - k_a, 2 * d + k_a",
           ("tests/test_divisors.py::TestFormPsiNumber::test_matches_fold_on_the_whole_grid",)),
    Mutant("moves-tightens-the-split", INTERSECTION,
           "if dm <= size - 2 and", "if dm <= size - 3 and",
           ("tests/test_divisors.py::TestFormPsiNumber::test_matches_fold_on_the_whole_grid",)),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(copy: Path, tests: tuple[str, ...]) -> int:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run(mutant: Mutant) -> str:
    """``"killed"``, ``"survived"``, or why the mutant could not be run."""
    with tempfile.TemporaryDirectory(prefix="strata0-mutant-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        target = copy / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"stale: its text occurs {text.count(mutant.old)} times in {mutant.path}"
        target.write_text(text.replace(mutant.old, mutant.new))
        code = _pytest(copy, mutant.tests)
    return {0: "survived", 1: "killed"}.get(code, f"error: pytest exited {code}")


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="strata0-mutant-") as tmp:
        _copy(Path(tmp))
        code = _pytest(Path(tmp), tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests)))
    if code:
        print(f"the unchanged copy fails its tests (pytest exited {code})")
        return 1
    killed = 0
    for mutant in MUTANTS:
        verdict = run(mutant)
        killed += verdict == "killed"
        print(f"{verdict:<10} {mutant.name}", flush=True)
    print(f"{killed} of {len(MUTANTS)} killed in {time.perf_counter() - start:.0f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
