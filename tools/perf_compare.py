#!/usr/bin/env python3
"""perf_compare: diff two perfsuite BENCH_*.json files and gate regressions.

Usage:
    tools/perf_compare.py OLD NEW [--subset]
    tools/perf_compare.py --selftest

OLD and NEW are files written by `build/bench/perfsuite`. OLD may also be a
directory (typically `bench/baselines/`): the file named by its one-line
`LATEST` pointer is used, and a missing pointer exits 77 so a ctest gate
registered with SKIP_RETURN_CODE 77 reports "skipped" instead of failing on
a branch that predates the first committed baseline.

Every gated number is seeded, so it is the same on every host and build
flavour, and every check is exact. Checks, in order:

  schema      Both files must parse as JSON and carry the dbs-bench-v1
              schema with the expected keys, and LATEST must hold exactly
              one line. Violations exit 2.
  coverage    Every config in OLD must exist in NEW (same `name`) with the
              same workload parameters. Missing configs fail unless
              --subset is given (used by `perfsuite --gate`, which skips
              heavy configs); parameter drift always fails because numbers
              measured on different workloads are not comparable.
  results     Per-trial cost, waiting time, lb_gap (cost ÷ the KSY lower
              bound) and churn are compared element-wise over the common
              trial prefix with relative tolerance 1e-9. A metric either
              file lacks is not gated, so snapshots written before it
              existed still parse. Any drift fails — an intentional
              algorithm change must regenerate the baseline (see
              docs/BENCHMARKING.md).
  work        The `work` block holds per-trial counts of the library's work
              counters (CDS moves, gains evaluated, index repairs, span ranks
              walked, split points priced, radix passes). A count above OLD's
              on a shared trial fails; a count below it passes and is
              reported. A config without work in OLD is not gated. A NEW file
              built with DBS_OBS=OFF says so (`"obs": false`) and counted
              nothing, so its work is not gated and the output says why; any
              other NEW config that lacks a counter OLD has fails.

Wall times (`wall_ms`) are printed for every config but never gated: on a
shared host they move with co-tenant load, and the counts of work do not.

Exit status: 0 clean, 1 regression found, 2 malformed input, 77 no
baseline available.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

SCHEMA = "dbs-bench-v1"
PARAM_KEYS = ("algorithm", "items", "channels", "skewness", "diversity",
              "bandwidth", "base_seed")
RESULT_METRICS = ("cost", "wait", "lb_gap", "churn")
RESULT_TOLERANCE = 1e-9


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
        work = config.get("work", {})
        if not isinstance(work, dict) or not all(
                isinstance(counts, list)
                and all(isinstance(n, int) and n >= 0 for n in counts)
                for counts in work.values()):
            raise Malformed(f"{path}: config {config['name']!r} has a "
                            "malformed 'work' block")
    return data


def resolve_baseline(arg: Path) -> Path:
    """A directory argument is resolved through its one-line LATEST pointer."""
    if not arg.is_dir():
        return arg
    pointer = arg / "LATEST"
    if not pointer.is_file():
        print(f"perf_compare: no {pointer} — no baseline to gate against; "
              "skipping", file=sys.stderr)
        sys.exit(77)
    names = [line.strip() for line in
             pointer.read_text(encoding="utf-8").splitlines() if line.strip()]
    if len(names) != 1:
        raise Malformed(f"{pointer}: must name exactly one snapshot, "
                        f"found {len(names)} lines")
    path = arg / names[0]
    if not path.is_file():
        raise Malformed(f"{pointer} names {names[0]!r} but {path} is missing")
    return path


def relative_delta(old: float, new: float) -> float:
    if old == new:
        return 0.0
    scale = max(abs(old), abs(new), 1e-300)
    return abs(new - old) / scale


def result_drift(old_config: dict, new_config: dict) -> str | None:
    """The first per-trial result that differs, or None."""
    for metric in RESULT_METRICS:
        if metric not in old_config or metric not in new_config:
            continue
        old_trials = old_config[metric]["per_trial"]
        new_trials = new_config[metric]["per_trial"]
        for t, (old, new) in enumerate(zip(old_trials, new_trials)):
            delta = relative_delta(old, new)
            if delta > RESULT_TOLERANCE:
                return (f"{metric} drifted at trial {t} ({old:.17g} -> "
                        f"{new:.17g}, rel {delta:.2e}) — same seed must give "
                        "the same result; regenerate the baseline if "
                        "intentional")
    return None


def work_change(old_config: dict, new_config: dict) -> tuple[list, list]:
    """(rises, drops): one message per counter that rose above OLD on some
    shared trial or that NEW lacks, and one per counter that fell on some
    trial and rose on none."""
    if "work" not in new_config:
        return ["NEW lacks the work block OLD has"], []
    rises, drops = [], []
    for counter, old_counts in old_config["work"].items():
        new_counts = new_config["work"].get(counter)
        if new_counts is None:
            rises.append(f"NEW lacks the {counter} counts OLD has")
            continue
        shared = list(zip(old_counts, new_counts))
        old_sum = sum(old for old, _ in shared)
        new_sum = sum(new for _, new in shared)
        total = (f"{old_sum} -> {new_sum} over {len(shared)} trials, "
                 f"{(new_sum - old_sum) / max(old_sum, 1) * 100.0:+.2f}%")
        risen = [t for t, (old, new) in enumerate(shared) if new > old]
        if risen:
            old, new = shared[risen[0]]
            rises.append(f"work rose: {counter} at trial {risen[0]} "
                         f"({old} -> {new}; {total})")
        elif new_sum < old_sum:
            drops.append(f"{counter} {total}")
    return rises, drops


def compare(old: dict, new: dict, *, subset: bool, out=sys.stdout) -> int:
    """Gates NEW's results and work against OLD's."""
    failures = 0
    new_by_name = {c["name"]: c for c in new["configs"]}
    counted = new.get("obs", True)
    if not counted:
        print("perf_compare: work not gated — NEW was built with "
              "DBS_OBS=OFF, so the library counted nothing; results still "
              "gated", file=out)

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

        drift = result_drift(old_config, new_config)
        if drift is not None:
            print(f"FAIL {name}: {drift}", file=out)
            failures += 1
            continue

        wall = (f"wall {float(old_config['wall_ms']['median']):.3f} -> "
                f"{float(new_config['wall_ms']['median']):.3f} ms, not gated")
        if "work" not in old_config:
            print(f"  ok {name}: results deterministic, no work baseline "
                  f"({wall})", file=out)
            continue
        if not counted:
            print(f"  ok {name}: results deterministic ({wall})", file=out)
            continue
        rises, drops = work_change(old_config, new_config)
        if rises:
            for rise in rises:
                print(f"FAIL {name}: {rise}", file=out)
            failures += 1
        elif drops:
            print(f"  ok {name}: results deterministic, work dropped: "
                  f"{'; '.join(drops)} — refresh the baseline to keep the "
                  f"gain ({wall})", file=out)
        else:
            print(f"  ok {name}: results deterministic, work equal ({wall})",
                  file=out)

    if failures:
        print(f"perf_compare: {failures} regression(s)", file=out)
        return 1
    print("perf_compare: clean", file=out)
    return 0


def gate(old_arg: Path, new_arg: Path, *, subset: bool, out=sys.stdout,
         err=sys.stderr) -> int:
    try:
        old = load_bench(resolve_baseline(old_arg))
        new = load_bench(new_arg)
    except Malformed as error:
        print(f"perf_compare: {error}", file=err)
        return 2
    return compare(old, new, subset=subset, out=out)


# ---------------------------------------------------------------------------
# Golden-file selftest (fixtures under tools/perf_cases/)
# ---------------------------------------------------------------------------

def selftest() -> int:
    """Exercises the comparator on the golden files in tools/perf_cases/ and
    checks each scenario's exit code and, where given, a phrase its output
    must contain."""
    cases_dir = Path(__file__).resolve().parent / "perf_cases"
    if not cases_dir.is_dir():
        print(f"selftest: missing {cases_dir}", file=sys.stderr)
        return 2

    def run(old_name: str, new_name: str, expect: int, *, subset=False,
            says: str | None = None, label: str) -> bool:
        sink = io.StringIO()
        got = gate(cases_dir / old_name, cases_dir / new_name, subset=subset,
                   out=sink, err=sink)
        output = sink.getvalue()
        ok = got == expect and (says is None or says in output)
        detail = output.strip().splitlines()[-1]
        print(f"selftest {'ok  ' if ok else 'FAIL'} {label}: "
              f"expected exit {expect}, got {got} ({detail})")
        if not ok and says is not None:
            print(f"  expected the output to contain {says!r}:\n{output}")
        return ok

    checks = [
        run("base.json", "pass.json", 0, says="not gated",
            label="same results, slower wall (wall is not gated)"),
        run("base.json", "cost_drift.json", 1, label="cost drift (determinism)"),
        run("base.json", "malformed.json", 2, label="malformed JSON"),
        run("base.json", "subset.json", 1, label="missing config w/o --subset"),
        run("base.json", "subset.json", 0, subset=True,
            label="missing config with --subset"),
        run("base.json", "param_drift.json", 1, label="workload param drift"),
        run("base.json", "gap_base.json", 0,
            label="lb_gap absent from OLD is not gated"),
        run("gap_base.json", "gap_drift.json", 1,
            label="lb_gap drift (determinism)"),
        run("work_base.json", "churn_drift.json", 1, says="churn drifted",
            label="churn drift (determinism)"),
        run("work_base.json", "work_equal.json", 0, says="work equal",
            label="equal work passes"),
        run("work_base.json", "work_rise.json", 1,
            says="FAIL serve/rotate: work rose: core.cds.moves_evaluated",
            label="a work rise fails, naming the row and the counter"),
        run("work_base.json", "work_drop.json", 0,
            says="work dropped: core.partition.split_candidates",
            label="a work drop passes and is reported"),
        run("work_absent.json", "work_rise.json", 0, says="no work baseline",
            label="work missing from OLD is not gated"),
        run("work_base.json", "work_obs_off.json", 0, says="DBS_OBS=OFF",
            label="NEW from a DBS_OBS=OFF build: work not gated, and said so"),
        run("work_base.json", "work_absent.json", 1, says="lacks the work block",
            label="NEW from a DBS_OBS=ON build without OLD's work fails"),
        run("two_line_latest", "work_equal.json", 2, says="exactly one",
            label="a second line in LATEST is malformed"),
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
    parser.add_argument("--subset", action="store_true",
                        help="allow NEW to cover a subset of OLD's configs "
                             "(gate-mode files skip heavy configs)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the golden cases in tools/perf_cases/")
    args = parser.parse_args(argv)

    if args.selftest:
        return selftest()
    if args.old is None or args.new is None:
        parser.error("OLD and NEW are required unless --selftest is given")
    return gate(args.old, args.new, subset=args.subset)


if __name__ == "__main__":
    sys.exit(main())
