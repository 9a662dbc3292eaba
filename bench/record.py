"""Record the answers the benchmark checks against where no independent
oracle exists, and fix each workload's universe.

Run from the repository root:

    python3 bench/record.py            # rewrites bench/answers.json

The recorded answers belong to the commit they were taken at; re-record only
when a change is meant to alter answers, and say so.
"""

import json
import sys
import time

from child import call
from oracles import digest, rat, rat_text
import queries as Q
from strata0 import blowup_is_trivial, validate_signature


def answer(argv: list[str]) -> dict:
    code, out, error = call(argv)
    if code != 0:
        raise RuntimeError(f"{argv}: exit {code} {error}")
    return json.loads(out)


def main() -> None:
    t0 = time.monotonic()
    out: dict = {"volume": {}, "dmu_power": {}, "intersect_mix": [], "blowup": {}, "principal": []}
    for n, ds in Q.VOLUME_SIZES:
        for d in ds:
            for kappa in Q.signatures(d, n):
                if blowup_is_trivial(validate_signature(d, kappa)):
                    p = answer(["volume", "--json", "--d", str(d), Q.kappa_arg(kappa)])
                    out["volume"][Q.sig_key(d, kappa)] = rat_text(rat(p["intersection_number"]))
    print(f"volume: {len(out['volume'])} signatures", file=sys.stderr)
    for n, ds in Q.INTERSECT_SIZES:
        for d in ds:
            for kappa in Q.signatures(d, n):
                p = answer(["intersect", "--json", "--d", str(d), Q.kappa_arg(kappa),
                            "--factors", ",".join(["Dmu"] * (n - 3))])
                out["dmu_power"][Q.sig_key(d, kappa)] = rat_text(rat(p["value"]))
    for item in Q.intersect_mix_universe():
        d, kappa = Q.parse_key(item["sig"])
        p = answer(["intersect", "--json", "--d", str(d), Q.kappa_arg(kappa),
                    "--factors", ",".join(item["factors"])])
        out["intersect_mix"].append({**item, "value": rat_text(rat(p["value"]))})
    print(f"intersect: {len(out['dmu_power'])} signatures, {len(out['intersect_mix'])} mixes",
          file=sys.stderr)
    blowup = [(d, k) for n, ds in Q.BLOWUP_SIZES for d in ds for k in Q.signatures(d, n)
              if not blowup_is_trivial(validate_signature(d, k))]
    for d, kappa in blowup + list(Q.BLOWUP_FIXED):
        row = {}
        for cmd in ("phat", "exceptional", "divisor"):
            p = answer([cmd, "--json", "--d", str(d), Q.kappa_arg(kappa)])
            row[cmd] = {"digest": digest(p)}
            if cmd == "phat":
                row[cmd]["count"] = p["count"]
        out["blowup"][Q.sig_key(d, kappa)] = row
    print(f"blowup: {len(out['blowup'])} signatures", file=sys.stderr)
    for item in Q.principal_universe():
        d, kappa = Q.parse_key(item["sig"])
        p = answer(["principal", "--json", "--d", str(d), Q.kappa_arg(kappa), "--tree", item["tree"]])
        out["principal"].append({**item, "digest": digest(p)})
    print(f"principal: {len(out['principal'])} trees", file=sys.stderr)
    with open(Q.ANSWERS_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded in {time.monotonic() - t0:.0f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
