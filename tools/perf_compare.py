#!/usr/bin/env python3
"""perf_compare: diff two perfsuite BENCH_*.json files and gate regressions.

Usage:
    tools/perf_compare.py OLD NEW [options]
    tools/perf_compare.py --selftest

OLD and NEW are files written by `build/bench/perfsuite`. OLD may also be a
directory (typically `bench/baselines/`): the file named by its `LATEST`
pointer is used, and a missing pointer exits 77 so a ctest gate registered
with SKIP_RETURN_CODE 77 reports "skipped" instead of failing on a branch
that predates the first committed baseline. A second pointer line
`wall-baseline: BENCH_<x>.json` names an older snapshot whose wall times
keep gating (host check and wall gate below) while the first file's costs
gate: an intentional cost change re-anchors the costs without moving the
speed floor to whatever host happened to record them.

Checks, in order:

  schema      Both files must parse as JSON and carry the dbs-bench-v1
              schema with the expected keys. Violations exit 2.
  coverage    Every config in OLD must exist in NEW (same `name`) with the
              same workload parameters. Missing configs fail unless
              --subset is given (used by `perfsuite --gate`, which skips
              heavy configs); parameter drift always fails because numbers
              measured on different workloads are not comparable.
  cost        Per-trial costs, waiting times and lb_gap (cost ÷ the KSY
              lower bound) are seeded, hence deterministic: they are
              compared element-wise over the common trial prefix with
              relative tolerance 1e-9. A metric either file lacks is not
              gated, so snapshots written before it existed still parse.
              Any drift fails — an intentional algorithm change must
              regenerate the baseline (see docs/BENCHMARKING.md).
  time        Median wall time per config: NEW > OLD * (1 + --max-regression)
              fails, OLD being the wall baseline (the cost baseline unless
              LATEST names another; configs it lacks are not gated). Only
              runs when both files report the same host
              fingerprint (cpu_model + build_flavor) or --force-time is
              given — cross-host or sanitizer-build wall times are not
              comparable. Configs whose OLD median is below --min-ms are
              treated as noise and never gated. When both files carry
              per-trial calibration spins (`calib_ms`, written by current
              perfsuite builds), the gated quantity is the *minimum*
              wall/calibration ratio over the common trial prefix instead
              of the raw wall median: the spin does fixed work, so
              host-wide clock swings (shared/burstable machines vary 2x
              minute to minute) cancel out of the ratio, and the minimum
              discards one-sided scheduling noise that hits a trial
              without hitting its bracketing spins.

Exit status: 0 clean (or time-gate skipped), 1 regression found,
2 malformed input, 77 no baseline available.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SCHEMA = "dbs-bench-v1"
PARAM_KEYS = ("algorithm", "items", "channels", "skewness", "diversity",
              "bandwidth", "base_seed")
COST_TOLERANCE = 1e-9


class Malformed(Exception):
    pass


def load_bench(path: Path) -> dict:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        raise Malformed(f"{path}: not readable JSON: {err}") from err
    if not isinstance(data, dict) or data.get("schema") != SCHEMA:
        raise Malformed(f"{path}: missing or unexpected schema "
                        f"(want {SCHEMA!r}, got {data.get('schema')!r})")
    configs = data.get("configs")
    if not isinstance(configs, list) or not configs:
        raise Malformed(f"{path}: no configs recorded")
    for config in configs:
        for key in ("name", "wall_ms", "cost", *PARAM_KEYS):
            if key not in config:
                raise Malformed(
                    f"{path}: config {config.get('name', '?')!r} lacks {key!r}")
        for metric in ("wall_ms", "cost"):
            block = config[metric]
            if not isinstance(block, dict) or "median" not in block \
                    or not isinstance(block.get("per_trial"), list) \
                    or not block["per_trial"]:
                raise Malformed(f"{path}: config {config['name']!r} has a "
                                f"malformed {metric!r} block")
    return data


WALL_BASELINE_KEY = "wall-baseline:"


def resolve_baseline(arg: Path) -> tuple[Path, Path | None]:
    """A directory argument is resolved through its LATEST pointer file into
    (cost baseline, wall baseline or None when it is the same file)."""
    if not arg.is_dir():
        return arg, None
    pointer = arg / "LATEST"
    if not pointer.is_file():
        print(f"perf_compare: no {pointer} — no baseline to gate against; "
              "skipping", file=sys.stderr)
        sys.exit(77)
    lines = pointer.read_text(encoding="utf-8").split("\n")
    names = [lines[0].strip()]
    for line in filter(None, (l.strip() for l in lines[1:])):
        if not line.startswith(WALL_BASELINE_KEY) or len(names) > 1:
            raise Malformed(f"{pointer}: unexpected line {line!r}")
        names.append(line[len(WALL_BASELINE_KEY):].strip())
    paths = [arg / name for name in names]
    for name, path in zip(names, paths):
        if not path.is_file():
            raise Malformed(f"{pointer} names {name!r} but {path} is missing")
    return paths[0], paths[1] if len(paths) > 1 else None


def host_fingerprint(data: dict) -> tuple:
    host = data.get("host", {})
    return (host.get("cpu_model", "?"), host.get("build_flavor", "?"))


def normalized_wall_floor(config: dict, trials: int):
    """Minimum wall/calibration ratio over the first `trials` trials, or
    None when the config has no usable `calib_ms` block.

    The minimum, not the median: timing noise is one-sided (preemptions and
    slow windows only ever add time), so the smallest observed ratio is the
    best estimate of the config's intrinsic cost in spin units. The prefix
    restriction matters because trials are distinct seeded workloads with
    different intrinsic work — a 3-trial gate file and a 9-trial baseline
    are only comparable over the trials they share, exactly like the cost
    determinism check.

    Files written before calibration existed (or hand-built fixtures) lack
    `calib_ms`; returning None falls back to raw wall medians so old
    baselines keep gating.
    """
    calib = config.get("calib_ms")
    if not isinstance(calib, dict):
        return None
    walls = config["wall_ms"]["per_trial"]
    spins = calib.get("per_trial")
    if not isinstance(spins, list) or len(spins) != len(walls) \
            or any(not isinstance(s, (int, float)) or s <= 0 for s in spins):
        return None
    return min(w / s for w, s in zip(walls[:trials], spins[:trials]))


def relative_delta(old: float, new: float) -> float:
    if old == new:
        return 0.0
    scale = max(abs(old), abs(new), 1e-300)
    return abs(new - old) / scale


def compare(old: dict, new: dict, *, max_regression: float, min_ms: float,
            subset: bool, force_time: bool, wall: dict | None = None,
            out=sys.stdout) -> int:
    """Gates NEW's costs against OLD and its wall times against `wall`
    (OLD itself when None)."""
    failures = 0
    new_by_name = {c["name"]: c for c in new["configs"]}
    wall = old if wall is None else wall
    wall_by_name = {c["name"]: c for c in wall["configs"]}

    time_comparable = force_time or host_fingerprint(wall) == host_fingerprint(new)
    if not time_comparable:
        print(f"perf_compare: host fingerprints differ "
              f"({host_fingerprint(wall)} vs {host_fingerprint(new)}); "
              "wall-time gate skipped, cost gate still enforced", file=out)

    for old_config in old["configs"]:
        name = old_config["name"]
        new_config = new_by_name.get(name)
        if new_config is None:
            if subset:
                print(f"  {name}: absent in NEW (allowed by --subset)", file=out)
                continue
            print(f"FAIL {name}: config missing from NEW", file=out)
            failures += 1
            continue

        drifted = [k for k in PARAM_KEYS if old_config[k] != new_config[k]]
        if drifted:
            print(f"FAIL {name}: workload parameters drifted ({', '.join(drifted)})"
                  " — numbers are not comparable", file=out)
            failures += 1
            continue

        # Determinism gate: seeded costs must match trial-for-trial.
        config_ok = True
        for metric in ("cost", "wait", "lb_gap"):
            if metric not in old_config or metric not in new_config:
                continue
            old_trials = old_config[metric]["per_trial"]
            new_trials = new_config[metric]["per_trial"]
            shared = min(len(old_trials), len(new_trials))
            for t in range(shared):
                delta = relative_delta(old_trials[t], new_trials[t])
                if delta > COST_TOLERANCE:
                    print(f"FAIL {name}: {metric} drifted at trial {t} "
                          f"({old_trials[t]:.17g} -> {new_trials[t]:.17g}, "
                          f"rel {delta:.2e}) — same seed must give the same "
                          "result; regenerate the baseline if intentional",
                          file=out)
                    failures += 1
                    config_ok = False
                    break
            if not config_ok:
                break
        if not config_ok:
            continue

        wall_config = wall_by_name.get(name)
        if wall_config is None or any(wall_config[k] != new_config[k]
                                      for k in PARAM_KEYS):
            print(f"  ok {name}: cost deterministic (no wall baseline for "
                  "this config, wall not gated)", file=out)
            continue
        old_median = float(wall_config["wall_ms"]["median"])
        new_median = float(new_config["wall_ms"]["median"])
        if not time_comparable:
            print(f"  ok {name}: cost deterministic "
                  f"(wall {old_median:.3f} -> {new_median:.3f} ms, not gated)",
                  file=out)
            continue
        if old_median < min_ms:
            print(f"  ok {name}: below noise floor "
                  f"({old_median:.3f} ms < {min_ms:.3f} ms, wall not gated)",
                  file=out)
            continue
        shared_trials = min(len(wall_config["wall_ms"]["per_trial"]),
                            len(new_config["wall_ms"]["per_trial"]))
        old_norm = normalized_wall_floor(wall_config, shared_trials)
        new_norm = normalized_wall_floor(new_config, shared_trials)
        if old_norm is not None and new_norm is not None:
            # Clock-normalized gate: the ratio of work to a fixed spin is
            # immune to host-wide speed swings between the two runs.
            ratio = new_norm / old_norm if old_norm > 0 else float("inf")
            shown = (f"{old_norm:.2f} -> {new_norm:.2f} x calib "
                     f"(raw {old_median:.3f} -> {new_median:.3f} ms)")
        else:
            ratio = new_median / old_median if old_median > 0 else float("inf")
            shown = f"{old_median:.3f} -> {new_median:.3f} ms"
        if ratio > 1.0 + max_regression:
            print(f"FAIL {name}: wall-time regression {shown} "
                  f"(+{(ratio - 1.0) * 100.0:.1f}% > {max_regression * 100.0:.0f}%)",
                  file=out)
            failures += 1
        elif ratio < 1.0 - max_regression:
            print(f"  ok {name}: improvement {shown} "
                  f"({(1.0 - ratio) * 100.0:.1f}% faster — "
                  "consider refreshing the baseline)", file=out)
        else:
            print(f"  ok {name}: {shown} "
                  f"({(ratio - 1.0) * 100.0:+.1f}%)", file=out)

    if failures:
        print(f"perf_compare: {failures} regression(s)", file=out)
        return 1
    print("perf_compare: clean", file=out)
    return 0


# ---------------------------------------------------------------------------
# Golden-file selftest (fixtures under tools/perf_cases/)
# ---------------------------------------------------------------------------

def selftest() -> int:
    """Exercises the comparator on the golden files in tools/perf_cases/ and
    checks each scenario produces the expected exit code."""
    cases_dir = Path(__file__).resolve().parent / "perf_cases"
    if not cases_dir.is_dir():
        print(f"selftest: missing {cases_dir}", file=sys.stderr)
        return 2

    def run(old_name: str, new_name: str, expect: int, *, subset=False,
            wall_name=None, label: str) -> bool:
        try:
            old = load_bench(cases_dir / old_name)
            new = load_bench(cases_dir / new_name)
            wall = load_bench(cases_dir / wall_name) if wall_name else None
        except Malformed as err:
            got = 2
            detail = str(err)
        else:
            import io
            sink = io.StringIO()
            got = compare(old, new, max_regression=0.15, min_ms=1.0,
                          subset=subset, force_time=False, wall=wall, out=sink)
            detail = sink.getvalue().strip().splitlines()[-1]
        ok = got == expect
        print(f"selftest {'ok  ' if ok else 'FAIL'} {label}: "
              f"expected exit {expect}, got {got} ({detail})")
        return ok

    checks = [
        run("base.json", "pass.json", 0, label="pass (within threshold)"),
        run("base.json", "regress.json", 1, label="regress (>15% wall time)"),
        run("base.json", "cost_drift.json", 1, label="cost drift (determinism)"),
        run("base.json", "malformed.json", 2, label="malformed JSON"),
        run("base.json", "subset.json", 1, label="missing config w/o --subset"),
        run("base.json", "subset.json", 0, subset=True,
            label="missing config with --subset"),
        run("base.json", "other_host.json", 0,
            label="foreign host (time gate auto-skips)"),
        run("base.json", "param_drift.json", 1, label="workload param drift"),
        run("calib_base.json", "clock_pass.json", 0,
            label="host clock swing (wall 2x, calib 2x — normalized pass)"),
        run("calib_base.json", "clock_regress.json", 1,
            label="real regression under calibration (wall 2x, calib flat)"),
        run("calib_base.json", "pass.json", 0,
            label="one-sided calib falls back to raw wall medians"),
        run("base.json", "regress.json", 0, wall_name="other_host.json",
            label="foreign wall baseline (time gate auto-skips)"),
        run("base.json", "cost_drift.json", 1, wall_name="other_host.json",
            label="cost drift with a separate wall baseline"),
        run("other_host.json", "regress.json", 1, wall_name="base.json",
            label="wall baseline gates wall time, not the cost baseline"),
        run("base.json", "gap_base.json", 0,
            label="lb_gap absent from OLD is not gated"),
        run("gap_base.json", "gap_drift.json", 1,
            label="lb_gap drift (determinism)"),
    ]
    if all(checks):
        print("selftest: all golden cases behave")
        return 0
    print("selftest: failure(s) above", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", nargs="?", type=Path,
                        help="baseline BENCH json, or a directory with a "
                             "LATEST pointer (e.g. bench/baselines)")
    parser.add_argument("new", nargs="?", type=Path,
                        help="freshly measured BENCH json")
    parser.add_argument("--max-regression", type=float, default=0.15,
                        help="allowed median wall-time growth (default 0.15)")
    parser.add_argument("--min-ms", type=float, default=1.0,
                        help="noise floor: skip wall gating below this old "
                             "median (default 1.0 ms)")
    parser.add_argument("--subset", action="store_true",
                        help="allow NEW to cover a subset of OLD's configs "
                             "(gate-mode files skip heavy configs)")
    parser.add_argument("--force-time", action="store_true",
                        help="gate wall time even across host fingerprints")
    parser.add_argument("--selftest", action="store_true",
                        help="run the golden cases in tools/perf_cases/")
    args = parser.parse_args(argv)

    if args.selftest:
        return selftest()
    if args.old is None or args.new is None:
        parser.error("OLD and NEW are required unless --selftest is given")
    try:
        old_path, wall_path = resolve_baseline(args.old)
        old = load_bench(old_path)
        wall = load_bench(wall_path) if wall_path else None
        new = load_bench(args.new)
    except Malformed as err:
        print(f"perf_compare: {err}", file=sys.stderr)
        return 2
    return compare(old, new, max_regression=args.max_regression,
                   min_ms=args.min_ms, subset=args.subset,
                   force_time=args.force_time, wall=wall)


if __name__ == "__main__":
    sys.exit(main())
