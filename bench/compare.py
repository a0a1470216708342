"""Compare two saved sets of benchmark runs.

    python3 bench/compare.py OLD.jsonl NEW.jsonl

Each file holds run records as ``bench/run.py`` appends them to
``.bench_out/runs.jsonl``. For every workload and metric measured in both,
prints both medians over the runs, the ratio new / old and the run counts,
then every (workload, seed) whose behaviour fingerprint changed.
"""

from __future__ import annotations

import json
import statistics
import sys


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def medians(records: list[dict]) -> dict[tuple, tuple[float, str, int]]:
    values: dict[tuple, list[float]] = {}
    units: dict[tuple, str] = {}
    for r in records:
        for name, (value, unit) in r["metrics"].items():
            key = (r["workload"], name)
            values.setdefault(key, []).append(value)
            units[key] = unit
    return {k: (statistics.median(v), units[k], len(v)) for k, v in values.items()}


def fingerprints(records: list[dict]) -> dict[tuple, set[str]]:
    out: dict[tuple, set[str]] = {}
    for r in records:
        out.setdefault((r["workload"], r["seed"]), set()).add(r["fingerprint"])
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    m_old, m_new = medians(old), medians(new)
    print(f"{'workload':<16} {'metric':<44} {'old':>12} {'new':>12} {'new/old':>8}  unit (runs old/new)")
    for key in sorted(m_old.keys() & m_new.keys()):
        (a, unit, na), (b, _, nb) = m_old[key], m_new[key]
        ratio = f"{b / a:8.3f}" if a else "       -"
        print(f"{key[0]:<16} {key[1]:<44} {a:12.6g} {b:12.6g} {ratio}  {unit} ({na}/{nb})")
    f_old, f_new = fingerprints(old), fingerprints(new)
    changed = [k for k in sorted(f_old.keys() & f_new.keys()) if f_old[k] != f_new[k]]
    for workload, seed in changed:
        print(f"fingerprint CHANGED: {workload} seed {seed}: "
              f"{','.join(sorted(f_old[(workload, seed)]))} -> {','.join(sorted(f_new[(workload, seed)]))}")
    shared = len(f_old.keys() & f_new.keys())
    print(f"fingerprints: {shared - len(changed)} of {shared} shared (workload, seed) pairs unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
