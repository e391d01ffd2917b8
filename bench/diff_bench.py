#!/usr/bin/env python3
"""Compare a fresh BENCH_*.json artifact against its committed baseline.

Usage:
    diff_bench.py FRESH_JSON BASELINE_JSON

Every gated bench target declares its own pass/fail contract in its
artifact's `gates` block (bench::Gates in bench/bench_common.h):

    metric              per-row throughput field compared to the baseline
    max_regression_pct  tolerated drop of that metric, in percent
    floors              {field: minimum} for machine-independent ratios
    flags               top-level fields that must be true
    row_flags           fields that must be true in every row of `runs`
    zero                counters that must be exactly 0

The fresh artifact's gates are applied, after checking they are at least
as strict as the baseline's: the baseline's gates are the floor a bench
may not silently drop below.

Exits nonzero when
  * either artifact is missing or unreadable, or the fresh one declares
    no gates or no throughput metric,
  * a top-level field present in one artifact is missing from the other
    (field parity, both directions: a baseline field missing from the
    fresh artifact means the bench silently stopped emitting a
    measurement; a fresh field missing from the baseline means the
    committed baseline needs a refresh to pin the new coverage),
  * a baseline gate is missing from the fresh artifact's gates, or is
    declared there with a looser bound,
  * a floor, flag or zero-counter gate does not hold in the fresh
    artifact, or
  * a baseline (engine, threads) row is missing from the fresh artifact,
    either side of it lacks a positive numeric metric, or the metric
    regressed by more than max_regression_pct.

`stage_*` / `trace_*` fields (observability breakdowns) and `host` (the
build host's nproc, CPU model, compiler and build type) are informational:
exempt from field parity and printed, never gated. A baseline without a
host stamp prints as "unstamped".
"""

import json
import os
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        sys.exit(f"diff_bench: cannot read {path}: {error}")


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def informational(key):
    return key == "host" or key.startswith(("stage_", "trace_"))


def rows_by_key(artifact):
    rows = artifact.get("runs", [])
    if not isinstance(rows, list):
        sys.exit("diff_bench: 'runs' is not a list")
    return {(row.get("engine"), row.get("threads")): row for row in rows}


def host_stamp(artifact):
    host = artifact.get("host")
    if not isinstance(host, dict):
        return "unstamped"
    return (f"nproc={host.get('nproc')} cpu={host.get('cpu_model')!r} "
            f"compiler={host.get('compiler')!r} "
            f"build_type={host.get('build_type')}")


def gate_drift(fresh_gates, baseline_gates):
    """Failures for baseline gates the fresh artifact dropped or loosened."""
    failures = []
    metric = baseline_gates.get("metric", fresh_gates["metric"])
    if fresh_gates["metric"] != metric:
        failures.append(f"throughput gate on '{metric}' is missing from the "
                        "fresh artifact")
    bound = baseline_gates.get("max_regression_pct", float("inf"))
    if fresh_gates["max_regression_pct"] > bound:
        failures.append(f"max_regression_pct loosened from {bound} to "
                        f"{fresh_gates['max_regression_pct']}")
    fresh_floors = fresh_gates.get("floors", {})
    for field, floor in baseline_gates.get("floors", {}).items():
        fresh_floor = fresh_floors.get(field)
        if not (is_number(fresh_floor) and fresh_floor >= floor):
            failures.append(f"floor gate on '{field}' (>= {floor}) is "
                            f"missing or loosened (fresh: {fresh_floor})")
    for kind in ("flags", "row_flags", "zero"):
        for field in baseline_gates.get(kind, []):
            if field not in fresh_gates.get(kind, []):
                failures.append(f"{kind} gate on '{field}' is missing from "
                                "the fresh artifact")
    return failures


def main(argv):
    if len(argv) != 3:
        print("usage: diff_bench.py FRESH_JSON BASELINE_JSON",
              file=sys.stderr)
        return 2
    fresh_path, baseline_path = argv[1], argv[2]
    fresh = load(fresh_path)
    if not os.path.exists(baseline_path):
        print(f"FAIL: baseline {baseline_path} is missing; commit the fresh "
              "artifact as the baseline to gate this bench", file=sys.stderr)
        return 1
    baseline = load(baseline_path)
    gates = fresh.get("gates")
    if not (isinstance(gates, dict) and gates.get("metric") and
            is_number(gates.get("max_regression_pct"))):
        print(f"FAIL: {fresh_path} declares no throughput gate (gates with "
              "a metric and a max_regression_pct)", file=sys.stderr)
        return 1
    baseline_gates = baseline.get("gates", {})

    print(f"host (fresh):    {host_stamp(fresh)}")
    print(f"host (baseline): {host_stamp(baseline)}")
    stage_fields = sorted(key for key in fresh
                          if informational(key) and key != "host")
    if stage_fields:
        print("observability breakdown (informational, not gated):")
        for key in stage_fields:
            print(f"  {key} = {fresh[key]}")

    failures = []

    # Top-level field parity, both directions. Machine-dependent *values*
    # are fine (throughput gates have their own tolerance below); what may
    # never drift silently is which measurements exist at all.
    fresh_keys = {key for key in fresh if not informational(key)}
    baseline_keys = {key for key in baseline if not informational(key)}
    for key in sorted(baseline_keys - fresh_keys):
        failures.append(
            f"top-level field '{key}' exists in the baseline "
            f"({baseline_path}) but is missing from the fresh artifact "
            f"({fresh_path}): the bench stopped emitting it, or the wrong "
            "artifact was diffed")
    for key in sorted(fresh_keys - baseline_keys):
        failures.append(
            f"top-level field '{key}' is emitted by the bench but absent "
            f"from the baseline ({baseline_path}): refresh the committed "
            "baseline to pin the new measurement")

    failures += gate_drift(gates, baseline_gates)

    # Floors are machine-independent ratios: both numbers come from the
    # same process on the same instance.
    for field, floor in gates.get("floors", {}).items():
        value = fresh.get(field)
        if not is_number(value) or value < floor:
            failures.append(f"fresh artifact reports {field}={value}; the "
                            f"gate requires >= {floor}")
        else:
            print(f"floor: {field} {value:.2f} (limit {floor})")
    for field in gates.get("flags", []):
        if fresh.get(field) is not True:
            failures.append(f"fresh artifact reports {field}="
                            f"{fresh.get(field)}; the gate requires true")
    # The default bench run arms no fault injector and reuses one pool, so
    # these counters must be exactly zero: nonzero means fault machinery
    # leaked into the no-fault path, or a run spawned its own threads.
    for field in gates.get("zero", []):
        value = fresh.get(field)
        if not is_number(value) or value != 0:
            failures.append(f"fresh artifact reports {field}={value}; the "
                            "gate requires 0 (the fault-free, pool-reusing "
                            "hot path)")

    fresh_rows = rows_by_key(fresh)
    baseline_rows = rows_by_key(baseline)
    for key, row in fresh_rows.items():
        for flag in gates.get("row_flags", []):
            if row.get(flag) is not True:
                failures.append(f"row ({key[0]}, threads={key[1]}) reports "
                                f"{flag}={row.get(flag)}; the gate requires "
                                "true")

    metric = gates["metric"]
    bound = gates["max_regression_pct"]
    if not baseline_rows:
        failures.append(f"baseline ({baseline_path}) has no rows to gate "
                        f"'{metric}' against")
    print(f"{'engine':<20}{'threads':>8}{'baseline':>14}{'fresh':>14}"
          f"{'delta':>9}")
    for key in sorted(baseline_rows, key=lambda k: (str(k[0]), str(k[1]))):
        engine, threads = key
        base_value = baseline_rows[key].get(metric)
        fresh_row = fresh_rows.get(key)
        if fresh_row is None:
            failures.append(f"row ({engine}, threads={threads}) missing "
                            "from fresh artifact")
            continue
        if not is_number(base_value) or base_value <= 0:
            failures.append(f"baseline row ({engine}, threads={threads}) has "
                            f"no positive numeric '{metric}' to gate against")
            continue
        fresh_value = fresh_row.get(metric)
        if not is_number(fresh_value):
            failures.append(f"row ({engine}, threads={threads}) has no "
                            f"numeric '{metric}'")
            continue
        delta_pct = 100.0 * (fresh_value - base_value) / base_value
        print(f"{engine:<20}{threads:>8}{base_value:>14.3e}"
              f"{fresh_value:>14.3e}{delta_pct:>+8.1f}%")
        if -delta_pct > bound:
            failures.append(
                f"row ({engine}, threads={threads}): {metric} "
                f"regressed {-delta_pct:.1f}% (limit {bound:.1f}%)")

    if failures:
        print()
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"\nOK: {metric} within {bound:.1f}% of the baseline and every "
          "declared gate holds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
