#!/usr/bin/env python3
"""Compare two sets of benchmark runs by their per-metric medians.

    python3 perfbench/compare.py base1.log base2.log ... --head head1.log ...

Each log is the standard output of one run.py run; its ``record:`` line
holds the metrics and the environment.  Results measured with different
rational backends (Fraction against gmpy2.mpq, about 5x apart) are not
comparable, so the comparison is refused when the backends differ.
"""

import argparse
import json
import statistics
import sys


def load(paths):
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("record: "):
                    records.append(json.loads(line[len("record: "):]))
    return records


def medians(records):
    values = {}
    for rec in records:
        for name, value in rec["metrics"].items():
            values.setdefault((rec["workload"], rec["trace"], name), []).append(value)
    return {key: statistics.median(v) for key, v in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="+")
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, head = load(args.base), load(args.head)
    if not base or not head:
        sys.exit("error: no record lines in the given logs")
    backends = {rec["env"]["backend"] for rec in base + head}
    if len(backends) > 1:
        sys.exit(f"error: refusing to compare across rational backends {sorted(backends)}")
    base_m, head_m = medians(base), medians(head)
    print(f"{'workload':18} {'metric':26} {'base':>12} {'head':>12} {'change':>8}")
    for key in sorted(base_m.keys() & head_m.keys()):
        workload, _, name = key
        b, h = base_m[key], head_m[key]
        change = f"{h / b - 1:+.1%}" if b else "n/a"
        print(f"{workload:18} {name:26} {b:12.6g} {h:12.6g} {change:>8}")


if __name__ == "__main__":
    main()
