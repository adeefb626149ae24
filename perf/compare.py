"""Compare two benchmark results files, metric by metric.

    python3 perf/compare.py A.json B.json

For every workload x end-to-end metric it prints A, B, the change and
whether the two agree within the bound ``BENCHMARK.json`` declares.
Results measured under a different ``BENCHMARK.json``, on another seed,
for another ``--seconds`` or with another ``--trace`` are refused (exit
2) instead of compared. Exit 1 if any pair disagrees.
"""

import argparse
import json
import sys

#: fingerprint fields that must match before two results are comparable
MUST_MATCH = ("benchmark_sha256", "seed")
#: top-level run settings that must match too: the run length changes op
#: counts and medians, and a traced file holds other metrics
RUN_MUST_MATCH = ("seconds", "trace")


def refusal(a: dict, b: dict) -> str:
    """Why ``a`` and ``b`` cannot be compared ('' if they can)."""
    pairs = [(key, a["fingerprint"].get(key), b["fingerprint"].get(key))
             for key in MUST_MATCH]
    pairs += [(key, a.get(key), b.get(key)) for key in RUN_MUST_MATCH]
    return "; ".join(f"{key}: {left!r} vs {right!r}"
                     for key, left, right in pairs if left != right)


def compare(a: dict, b: dict) -> list:
    """One row per workload x end-to-end metric present in ``a``."""
    rows = []
    for workload, result in sorted(a["workloads"].items()):
        other = b["workloads"].get(workload, {}).get("metrics", {})
        for metric in a["end_to_end"]:
            name = metric["name"]
            before = result["metrics"].get(name)
            after = other.get(name)
            if before is None or after is None or before == 0:
                rows.append((workload, name, before, after, None, False,
                             metric["bound"]))
                continue
            change = (after - before) / before
            rows.append((workload, name, before, after, change,
                         abs(change) <= metric["bound"], metric["bound"]))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="results JSON written by run.py --json")
    parser.add_argument("b", help="results JSON written by run.py --json")
    args = parser.parse_args(argv)
    with open(args.a) as handle:
        a = json.load(handle)
    with open(args.b) as handle:
        b = json.load(handle)
    why = refusal(a, b)
    if why:
        print(f"error: refusing to compare mismatched results ({why})",
              file=sys.stderr)
        return 2
    rows = compare(a, b)
    for workload, name, before, after, change, agree, bound in rows:
        if change is None:
            print(f"{workload:<16} {name:<14} missing in one of the files")
            continue
        print(f"{workload:<16} {name:<14} {before:>14.6g} {after:>14.6g} "
              f"{change:>+8.2%}  bound {bound:.0%}  "
              f"{'agree' if agree else 'DIFFER'}")
    return 0 if all(row[5] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
