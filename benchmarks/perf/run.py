"""The repo's benchmark: one command, seven workloads, layer by layer.

    python benchmarks/perf/run.py [--seed N] [--smoke] [--label L]

runs every workload in fresh child processes with tracing off, prints
every end-to-end metric by name with its unit, checks the outputs, then
does one profiled run per workload plus the layer probes for the
per-layer numbers, and writes ``results/perf_<label>.json``.  It exits
non-zero if any correctness or determinism check fails.

    python benchmarks/perf/run.py compare A.json B.json

compares two such files metric by metric.  The benchmark driver calls

    python benchmarks/perf/run.py --workload W --seed N --seconds S --trace T

which measures one workload for S seconds and prints, as the last line
of its output, one JSON object: the end-to-end metrics with ``--trace
0``, every per-layer metric with ``--trace 1``.  README.md has the
metric and workload tables.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"run.py: no program to measure: {SRC}/repro is missing")
sys.path.insert(0, str(SRC))

import harness  # noqa: E402
import probes  # noqa: E402
import scenarios  # noqa: E402

RESULTS_DIR = HERE / "results"
SCHEMA = "repro-perf/v1"

#: every per-layer metric, name -> (unit, better)
PER_LAYER = {
    **harness.TRACED,
    **harness.WORK_RATIOS,
    **harness.TRIO,
    **probes.METRICS,
}


# ----------------------------------------------------------------------
# The driver's entry: one workload, one JSON line
# ----------------------------------------------------------------------


def driver_run(
    workload: str, seed: int, scale: str, seconds: float, trace: bool
) -> int:
    if trace:
        metrics, attempted, failed, failures = _traced_numbers(
            workload, seed, scale
        )
        units = PER_LAYER
    else:
        timed = harness.measure_timed(workload, seed, scale, seconds=seconds)
        metrics = {
            name: entry["value"] for name, entry in timed["end_to_end"].items()
        }
        attempted, failed = timed["attempted"], timed["failed"]
        failures = timed["failures"]
        units = harness.END_TO_END
        _print_timed(timed)
    for failure in failures:
        print(f"FAILED CHECK {workload}: {failure}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 1 if failures else 0


def _traced_numbers(workload: str, seed: int, scale: str):
    """Every per-layer metric for *workload*: two untraced children for
    the base of ``trace.overhead_ratio``, the traced child, one run of
    each arm of the torus trio when *workload* is a torus arm (the
    trio's and the forked workers' numbers read 0 elsewhere), and the
    layer probes."""
    untraced = [harness.run_child(workload, seed, scale) for _ in range(2)]
    base_wall = sum(c["host"]["wall_s"] for c in untraced) / 2
    traced = harness.measure_traced(workload, seed, scale, base_wall)
    failures = list(traced["failures"])
    if traced["digest"] != untraced[0]["digest"]:
        failures.append("the traced run's counter digest differs")
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(traced["metrics"])
    if workload in scenarios.TORUS_ARMS:
        arms = {
            name: (
                untraced[0] if name == workload
                else harness.run_child(name, seed, scale)
            )
            for name in {*harness.TORUS_TRIO, workload}
        }
        metrics.update(harness.worker_metrics(arms["torus_fork2"]))
        trio, trio_failures = harness.trio_metrics(
            arms, {name: arm["host"]["wall_s"] for name, arm in arms.items()}
        )
        metrics.update(trio)
        failures += trio_failures
    metrics.update(probes.run_all(seed))
    first = untraced[0]
    return (
        metrics, first["attempted"], first["attempted"] - first["ops"],
        failures,
    )


# ----------------------------------------------------------------------
# The full run
# ----------------------------------------------------------------------


def full_run(seed: int, scale: str, label: str) -> int:
    started = time.monotonic()
    meta = harness.run_meta(seed, scale)
    host = meta["host"]
    print(
        f"perf benchmark  seed={seed} scale={scale} "
        f"git={meta['git_sha'][:12]}"
    )
    print(
        f"host: {host['cpu_model']}, nproc={host['nproc']} "
        f"(affinity {host['affinity']}), Python {host['python']}, "
        f"{host['platform']}"
    )
    failures: list[str] = []
    workloads = harness.measure_interleaved(seed, scale)
    for workload, timed in workloads.items():
        _print_timed(timed)
        traced = harness.measure_traced(
            workload, seed, scale, timed["end_to_end"]["wall_s"]["value"]
        )
        if traced["digest"] != timed["digest"]:
            traced["failures"].append(
                "the traced run's counter digest differs"
            )
        _print_layers(workload, traced["metrics"])
        failures += [
            f"{workload}: {failure}"
            for failure in timed["failures"] + traced["failures"]
        ]
        timed["per_layer"] = traced["metrics"]
    walls = {
        name: workloads[name]["end_to_end"]["wall_s"]["value"]
        for name in harness.TORUS_TRIO
    }
    trio, trio_failures = harness.trio_metrics(
        {name: workloads[name] for name in scenarios.TORUS_ARMS}, walls
    )
    failures += trio_failures
    _print_trio(trio, walls, host["nproc"])
    print("\nlayer probes (host us per operation unless named otherwise)")
    probed = probes.run_all(seed)
    for name, value in probed.items():
        print(f"  {name:42s} {value:12.3f} {PER_LAYER[name][0]}")
    noisy = {
        workload: result["noisy"]
        for workload, result in workloads.items() if result["noisy"]
    }
    for workload, names in noisy.items():
        print(f"NOISY {workload}: resolution over its bound on {names}")
    for failure in failures:
        print(f"FAILED CHECK {failure}")
    document = {
        "schema": SCHEMA,
        "meta": {**meta, "label": label, "took_s": time.monotonic() - started},
        "workloads": workloads,
        "trio": trio,
        "probes": probed,
        "noisy": noisy,
        "failures": failures,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"perf_{label}.json"
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {path}  ({document['meta']['took_s']:.0f} s)")
    print("all checks passed" if not failures else "CHECKS FAILED")
    return 1 if failures else 0


def _print_timed(timed: dict) -> None:
    e2e = timed["end_to_end"]
    print(
        f"\n== {timed['workload']}  seed={timed['seed']} "
        f"load<={max(timed['loadavg']):.2f}  digest={timed['digest'][:16]}"
    )
    print(f"   {timed['why']}")
    print(
        f"   ops={timed['ops']} of {timed['attempted']} attempted, "
        f"fail_ratio={timed['fail_ratio']:.4f}; "
        f"rtt n={timed['rtt_n']}, freeze n={timed['freeze_n']} "
        "(p99 is the max below 100 samples)"
    )
    late = timed["counters"].get("generator_max_late_us")
    if late is not None:
        print(
            "   open loop: sends are pre-drawn in sim time, never late on "
            f"the host's account; latest send {late} sim_us after it was due"
        )
    for name, entry in e2e.items():
        unit = entry["unit"]
        if name in harness.HOST_METRICS:
            flag = "  NOISY" if entry.get("noisy") else ""
            print(
                f"   {name:22s} {entry['value']:12.4f} {unit:7s} "
                f"[min {entry['min']:.4f}  q1 {entry['q1']:.4f}  "
                f"q3 {entry['q3']:.4f}  max {entry['max']:.4f}  "
                f"n={entry['n']}  spread {entry['spread']:.1%}  "
                f"resolution {entry['resolution']:.1%}]{flag}"
            )
        else:
            print(f"   {name:22s} {entry['value']:12.4f} {unit:7s} exact")


def _print_layers(workload: str, metrics: dict[str, float]) -> None:
    print(f"   -- per layer ({workload}, traced run and counters)")
    shares = sorted(
        (
            (value, name) for name, value in metrics.items()
            if name.endswith(".self_share")
        ),
        reverse=True,
    )
    print(
        "   self-time share: "
        + "  ".join(
            f"{name[:-len('.self_share')]} {value:.0%}"
            for value, name in shares if value >= 0.005
        )
    )
    for name, value in metrics.items():
        if not name.endswith(".self_share"):
            print(f"   {name:44s} {value:14.4f} {PER_LAYER[name][0]}")


def _print_trio(trio: dict, walls: dict[str, float], nproc: int) -> None:
    print(f"\ntorus trio (host nproc={nproc})")
    print(
        f"  sim.barrier.shard1_tax     {trio['sim.barrier.shard1_tax']:+.1%}"
        f"  = torus_shard1 {walls['torus_shard1']:.3f} s"
        f" / torus_classic {walls['torus_classic']:.3f} s - 1"
    )
    print(
        f"  sim.barrier.fork2_speedup  "
        f"{trio['sim.barrier.fork2_speedup']:.2f}x"
        f"  = torus_shard1 {walls['torus_shard1']:.3f} s"
        f" / torus_fork2 {walls['torus_fork2']:.3f} s"
    )
    print(
        "  sim.barrier.classic_counter_diffs  "
        f"{trio['sim.barrier.classic_counter_diffs']:.0f} counters differ "
        "between torus_classic and torus_shard1"
    )


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """One row per workload x end-to-end metric of two result files."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for key in ("host", "seed", "scale"):
        if a["meta"][key] != b["meta"][key]:
            print(
                f"refusing to compare: {key} differs\n"
                f"  A: {a['meta'][key]}\n  B: {b['meta'][key]}"
            )
            return 2
    print(
        f"A = {path_a} (git {a['meta']['git_sha'][:12]})\n"
        f"B = {path_b} (git {b['meta']['git_sha'][:12]})\n"
        "ratio is B / A; a verdict needs the values to differ by more "
        "than the bound\nand both resolutions to be within it"
    )
    worse = 0
    for workload in scenarios.WORKLOADS:
        result_a = a["workloads"].get(workload)
        result_b = b["workloads"].get(workload)
        if result_a is None or result_b is None:
            continue
        same = result_a["digest"] == result_b["digest"]
        print(
            f"\n{workload}: digest "
            + ("equal" if same else "DIFFERS")
            + f" ({result_a['digest'][:12]} / {result_b['digest'][:12]})"
        )
        for name, (unit, better, _, _) in harness.END_TO_END.items():
            ea = result_a["end_to_end"][name]
            eb = result_b["end_to_end"][name]
            bound = harness.same_seed_bound(workload, name)
            verdict = _verdict(ea, eb, better, bound)
            worse += verdict == "worse"
            print(
                f"  {name:22s} A {_cell(ea)}  B {_cell(eb)}  "
                f"bound {bound:.0%}  B/A {_ratio_cell(ea, eb)}  {verdict}"
            )
    return 1 if worse else 0


def _cell(entry: dict) -> str:
    return (
        f"{entry['value']:.4g} (median {entry['median']:.4g}, quartiles "
        f"{entry['q1']:.4g}..{entry['q3']:.4g}, n={entry['n']})"
    )


def _ratio_cell(ea: dict, eb: dict) -> str:
    return f"{eb['value'] / ea['value']:.3f}" if ea["value"] else "n/a"


def _verdict(ea: dict, eb: dict, better: str, bound: float) -> str:
    if ea["resolution"] > bound or eb["resolution"] > bound:
        return "unresolved"
    va, vb = ea["value"], eb["value"]
    if abs(vb - va) <= bound * abs(va):
        return "same"
    improved = vb < va if better == "lower" else vb > va
    return "better" if improved else "worse"


# ----------------------------------------------------------------------


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json")
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    if argv[:1] == ["child"]:
        parser.add_argument("workload", choices=list(scenarios.BUILDERS))
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--scale", required=True)
        parser.add_argument("--spawned-at", type=float, required=True)
        parser.add_argument("--profile", action="store_true")
        args = parser.parse_args(argv[1:])
        result = harness.child_main(
            args.workload, args.seed, args.scale, args.spawned_at,
            args.profile,
        )
        print(json.dumps(result))
        return 0
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny workloads: checks the harness, measures nothing",
    )
    parser.add_argument("--label", help="results/perf_<label>.json")
    parser.add_argument("--workload", choices=list(scenarios.WORKLOADS))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    scale = "smoke" if args.smoke else "full"
    if args.workload is not None:
        return driver_run(
            args.workload, args.seed, scale, args.seconds, bool(args.trace)
        )
    label = args.label or f"{scale}_seed{args.seed}"
    return full_run(args.seed, scale, label)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
