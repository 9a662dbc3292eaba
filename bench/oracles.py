"""Answer checks for benchmark queries.

``check(query, code, stdout)`` returns ``None`` for a correct answer and a
short reason otherwise.  Where an independent oracle exists it is used:

* psi monomials: ``(n-3)! / prod a_i!``;
* any mix of ``Dmu`` and ``Dmu_psi`` equals the pure ``Dmu`` power (the two
  forms are linearly equivalent);
* ``boundary`` lists ``2^(n-1) - n - 1`` splits;
* an n = 4 volume's self-intersection is the sum of the boundary-form
  coefficients, computed here from the formula in ``divisors``' docstring;
* the n = 8 flagship ``D_mu^5`` is 40;
* ``verify-family`` reports ``all_ok``;
* ``volume`` on an E-nontrivial signature exits with 3.

Everything else is compared with the answer recorded in ``answers.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

EXIT_OK = 0
EXIT_EXCEPTIONAL = 3

# keys that only echo the request back
_ECHO = {"command", "d", "kappa", "n", "tree", "chart", "factors"}


def rat(obj: dict) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def rat_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _canon(x):
    """Order-insensitive form: lists of rows compare as multisets."""
    if isinstance(x, dict):
        return {k: _canon(v) for k, v in x.items()}
    if isinstance(x, list):
        items = [_canon(v) for v in x]
        if items and all(isinstance(v, dict) for v in items):
            return sorted(items, key=lambda v: json.dumps(v, sort_keys=True))
        return items
    return x


def digest(payload: dict) -> str:
    """Digest of an answer, ignoring echoed inputs and row order."""
    core = {k: v for k, v in payload.items() if k not in _ECHO}
    text = json.dumps(_canon(core), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def psi_multinomial(exponents) -> Fraction:
    n = len(exponents)
    out = math.factorial(n - 3)
    for a in exponents:
        out //= math.factorial(a)
    return Fraction(out)


def n4_boundary_sum(d: int, kappa) -> Fraction:
    """``D_mu`` on M_{0,4} has degree equal to the sum of its boundary-form
    coefficients ``d/((n-2)(n-1)) (|I0|-1)(|I1|-1-(n-1) mu_S)``, each
    boundary point having degree 1."""
    n = len(kappa)
    if n != 4:
        raise ValueError("the boundary-sum oracle is for n = 4")
    mu = [Fraction(-k, d) for k in kappa]
    total = Fraction(0)
    for j in (1, 2, 3):  # the three splits {0, j} | rest, each once
        rest = [i for i in (1, 2, 3) if i != j]
        mu_s = 1 - min(mu[0] + mu[j], mu[rest[0]] + mu[rest[1]])  # 1 - mu(light block)
        total += Fraction(d, (n - 2) * (n - 1)) * (2 - 1) * (2 - 1 - (n - 1) * mu_s)
    return total


def volume_coefficient(d: int, n: int, inter: Fraction) -> Fraction:
    return Fraction((-1) ** (n - 3), d ** (n - 3) * math.factorial(n - 2)) * inter


def _argv_value(argv, flag):
    for i, tok in enumerate(argv):
        if tok == flag:
            return argv[i + 1]
        if tok.startswith(flag + "="):
            return tok[len(flag) + 1:]
    raise KeyError(flag)


def check(query: dict, code: int, stdout: str) -> str | None:
    try:
        return _check(query, code, stdout)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed answer ({type(exc).__name__}: {exc})"


def _check(query: dict, code: int, stdout: str) -> str | None:
    spec = query["check"]
    kind = spec["kind"]
    if kind == "refused":
        if code != EXIT_EXCEPTIONAL:
            return f"expected exit {EXIT_EXCEPTIONAL}, got {code}"
        return "unexpected output on refusal" if stdout else None
    if code != EXIT_OK:
        return f"unexpected exit code {code}"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    argv = query["argv"]
    if kind == "volume":
        d = int(_argv_value(argv, "--d"))
        kappa = [int(k) for k in _argv_value(argv, "--kappa").split(",")]
        n = len(kappa)
        if spec["oracle"] == "n4_boundary_sum":
            want = n4_boundary_sum(d, kappa)
        else:
            want = Fraction(spec["value"])
        got = rat(payload["intersection_number"])
        if got != want:
            return f"intersection number {got} != {want}"
        if rat(payload["coefficient"]) != volume_coefficient(d, n, want):
            return "volume coefficient inconsistent with the intersection number"
        if payload["pi_power"] != n - 2 or payload["e_trivial"] is not True:
            return "bad pi power or triviality flag"
        return None
    if kind == "psi_monomial":
        got, want = rat(payload["value"]), psi_multinomial(spec["exponents"])
        return None if got == want else f"psi monomial {got} != {want}"
    if kind == "value":
        got, want = rat(payload["value"]), Fraction(spec["value"])
        return None if got == want else f"value {got} != {want}"
    if kind == "boundary":
        n = spec["n"]
        want = 2 ** (n - 1) - n - 1
        if payload["count"] != want or len(payload["partitions"]) != want:
            return f"boundary count {payload['count']} != {want}"
        return None
    if kind == "phat" and payload["count"] != spec["count"]:
        return f"phat count {payload['count']} != {spec['count']}"
    if kind == "all_ok":
        return None if payload.get("all_ok") is True else "family verification not all_ok"
    if kind in ("phat", "exceptional", "divisor", "digest"):
        return None if digest(payload) == spec["digest"] else "answer differs from the recorded one"
    raise AssertionError(f"unknown check kind {kind!r}")
