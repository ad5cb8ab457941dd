#!/usr/bin/env python3
"""Compare BENCH_*.json artifacts against committed baselines.

Every benchmark writes a ``repro-bench/v1`` artifact (see
``benchmarks/conftest.py:write_bench_artifact``) with a flat mapping of
metric name to number.  This script diffs a results directory against
``benchmarks/baselines/`` and fails (exit 1) when any metric drifts by
more than the tolerance.  The simulation is deterministic, so on an
unchanged tree every diff is exactly zero; the tolerance only absorbs
intentional small shifts (e.g. a cost-model tweak) without masking real
regressions.

Usage:

    python scripts/check_bench_regression.py \
        [--results benchmarks/results] \
        [--baselines benchmarks/baselines] \
        [--tolerance 0.2] \
        [--only 'BENCH_e11_*.json']

``--only`` restricts the gate to artifacts whose file name matches the
glob, for CI jobs that run a subset of the benchmark suite (the other
baselines would otherwise fail as "artifact missing").

A results artifact with no committed baseline also fails the gate, and
so does a metric its baseline lacks: a new benchmark or metric must
land together with its baseline, otherwise its counters are silently
ungated until someone notices.

Wall-clock timings (``*wall*``, ``*seconds*``, ``*speedup*``, ...) are
host-dependent and may only appear under ``meta``, never as gated
metrics.  And a committed baseline whose meta claims a parallel speedup
above 1x while ``meta.cpu_count`` is 1 (or absent) is rejected outright
— the curve could not have been measured on that host.

Exit codes: 0 ok, 1 regression or malformed artifact, 2 usage error
(e.g. no artifacts found where they were expected).
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from pathlib import Path

SCHEMA = "repro-bench/v1"
DEFAULT_TOLERANCE = 0.2

REPO_ROOT = Path(__file__).resolve().parent.parent


#: substrings that mark a field as a timing measurement — host-dependent
#: and nondeterministic, so it belongs in ``meta`` (informational), never
#: in ``metrics`` (gated with a drift tolerance)
WALL_CLOCK_MARKERS = ("wall", "elapsed", "seconds", "speedup")


def load_artifact(path: Path) -> dict:
    """Read one artifact, validating the schema tag and metric types."""
    document = json.loads(path.read_text())
    if document.get("schema") != SCHEMA:
        raise ValueError(
            f"{path.name}: expected schema {SCHEMA!r}, "
            f"got {document.get('schema')!r}"
        )
    metrics = document.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        raise ValueError(f"{path.name}: missing or empty 'metrics'")
    for key, value in metrics.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"{path.name}: metric {key!r} is not a number: {value!r}"
            )
        lowered = key.lower()
        for marker in WALL_CLOCK_MARKERS:
            if marker in lowered:
                raise ValueError(
                    f"{path.name}: metric {key!r} looks like a "
                    f"wall-clock measurement ({marker!r}) — timing is "
                    f"host-dependent and belongs in 'meta', not in the "
                    f"gated 'metrics'"
                )
    return document


def check_speedup_honesty(name: str, meta: dict) -> list[str]:
    """Refuse a committed baseline whose speedup claim cannot be real.

    A ``speedup`` > 1 recorded on a host with one CPU is by definition
    measurement noise or a copy-paste from another machine — parallel
    shards cannot beat serial without parallel hardware.  Requiring
    ``cpu_count`` alongside any speedup claim keeps the committed
    curves honest about what actually ran.
    """
    problems = []
    claims = {
        key: value
        for key, value in meta.items()
        if "speedup" in key.lower()
        and isinstance(value, (int, float))
        and not isinstance(value, bool)
    }
    for key, value in sorted(claims.items()):
        if value <= 1:
            continue
        cpu_count = meta.get("cpu_count")
        if cpu_count is None:
            problems.append(
                f"{name}: baseline claims meta.{key} = {value} but "
                f"records no meta.cpu_count — a speedup claim must say "
                f"what hardware measured it"
            )
        elif cpu_count == 1:
            problems.append(
                f"{name}: baseline claims meta.{key} = {value} with "
                f"meta.cpu_count = 1 — a single-core host cannot show "
                f"parallel speedup; regenerate on a multi-core runner"
            )
    return problems


#: meta keys that parameterise a run — a mismatch means the result came
#: from a *different experiment* than the one the baseline gates, and
#: any metric diff would be comparing apples to oranges
IDENTITY_META_KEYS = ("machines", "seed")


def compare_meta(
    name: str,
    current: dict,
    baseline: dict,
) -> list[str]:
    """Check the run-identity meta keys match before any metric diff.

    A mis-parameterised rerun (wrong machine count, wrong seed) must
    fail loudly as such, not surface as a pile of baffling metric
    drifts.  Keys absent from the baseline are noted but not failed, so
    pre-meta baselines keep working until they are regenerated.
    """
    problems = []
    for key in IDENTITY_META_KEYS:
        if key not in baseline:
            print(
                f"note: {name}: baseline meta lacks {key!r} "
                f"(regenerate the baseline to gate run identity)"
            )
            continue
        if key not in current:
            problems.append(
                f"{name}: result meta lacks {key!r} "
                f"(baseline pins {baseline[key]!r})"
            )
            continue
        if current[key] != baseline[key]:
            problems.append(
                f"{name}: meta.{key} mismatch — baseline ran with "
                f"{baseline[key]!r}, this result with {current[key]!r}; "
                f"refusing to diff metrics of different experiments"
            )
    return problems


def compare_metrics(
    name: str,
    current: dict[str, float],
    baseline: dict[str, float],
    tolerance: float,
) -> list[str]:
    """Return a list of human-readable problems (empty when clean)."""
    problems = []
    for key in sorted(baseline):
        if key not in current:
            problems.append(f"{name}: metric {key!r} disappeared")
            continue
        base, now = baseline[key], current[key]
        if base == 0:
            # No scale to be relative to: require an exact match.
            if now != 0:
                problems.append(
                    f"{name}: {key} was 0, now {now} (exact match "
                    f"required for zero baselines)"
                )
            continue
        drift = abs(now - base) / abs(base)
        if drift > tolerance:
            problems.append(
                f"{name}: {key} drifted {drift:+.1%} "
                f"({base} -> {now}, tolerance {tolerance:.0%})"
            )
    for key in sorted(set(current) - set(baseline)):
        # Ungated until someone notices: a new metric lands together
        # with its baseline value, like a new benchmark does.
        problems.append(
            f"{name}: metric {key!r} has no baseline — add it to the "
            f"committed baseline (after checking it is deterministic "
            f"across two runs)"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results", type=Path,
        default=REPO_ROOT / "benchmarks" / "results",
        help="directory holding freshly generated BENCH_*.json",
    )
    parser.add_argument(
        "--baselines", type=Path,
        default=REPO_ROOT / "benchmarks" / "baselines",
        help="directory holding committed baseline BENCH_*.json",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="max allowed relative drift per metric (default 0.2)",
    )
    parser.add_argument(
        "--only", metavar="GLOB", default=None,
        help="check only baselines whose file name matches this glob",
    )
    args = parser.parse_args(argv)

    if args.tolerance < 0:
        parser.error("tolerance must be non-negative")

    baseline_paths = sorted(args.baselines.glob("BENCH_*.json"))
    if args.only is not None:
        baseline_paths = [
            p for p in baseline_paths if fnmatch.fnmatch(p.name, args.only)
        ]
        if not baseline_paths:
            print(
                f"error: no baselines in {args.baselines} match "
                f"{args.only!r}",
                file=sys.stderr,
            )
            return 2
    if not baseline_paths:
        print(f"error: no baselines in {args.baselines}", file=sys.stderr)
        return 2
    if not args.results.is_dir():
        print(f"error: no results directory {args.results}",
              file=sys.stderr)
        return 2

    problems: list[str] = []
    compared = 0
    for baseline_path in baseline_paths:
        result_path = args.results / baseline_path.name
        if not result_path.exists():
            problems.append(
                f"{baseline_path.name}: artifact missing from "
                f"{args.results} (benchmark not run?)"
            )
            continue
        try:
            baseline = load_artifact(baseline_path)
            current = load_artifact(result_path)
        except (ValueError, json.JSONDecodeError) as exc:
            problems.append(str(exc))
            continue
        honesty_problems = check_speedup_honesty(
            baseline["name"], baseline.get("meta", {}),
        )
        if honesty_problems:
            problems.extend(honesty_problems)
            continue
        meta_problems = compare_meta(
            baseline["name"],
            current.get("meta", {}),
            baseline.get("meta", {}),
        )
        if meta_problems:
            problems.extend(meta_problems)
            continue
        problems.extend(compare_metrics(
            baseline["name"], current["metrics"], baseline["metrics"],
            args.tolerance,
        ))
        compared += 1

    baseline_names = {p.name for p in baseline_paths}
    unbaselined = sorted(
        p.name
        for p in args.results.glob("BENCH_*.json")
        if p.name not in baseline_names
        and (args.only is None or fnmatch.fnmatch(p.name, args.only))
    )
    for name in unbaselined:
        problems.append(
            f"{name}: no committed baseline — copy the artifact to "
            f"{args.baselines}/{name} (after checking its metrics are "
            f"deterministic across two runs)"
        )

    if problems:
        print(f"FAIL: {len(problems)} problem(s) across "
              f"{len(baseline_paths)} baseline(s):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"OK: {compared} artifact(s) within "
          f"{args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
