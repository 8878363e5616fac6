"""Benchmark of the ``brokerfee`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload is a real ``brokerfee <mode>``
run on the fixed config ``perfbench/workloads/NAME.cfg``, with the workload
seed passed as ``--seed``. Every CLI run gets a fresh interpreter and a fresh
output directory, which is sized, checked and deleted. ``--workload all``
runs every workload in turn.

With ``--trace 0`` the CLI run is repeated, untraced, until ``--seconds``
have passed, and the end-to-end metrics are medians over the repeats.
With ``--trace 1`` one untraced and one traced run are made; the traced run
wraps the package's public functions (see tracing.py) and the per-layer
metrics are reported with the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A record of each benchmark run, the spans of a traced run included, is
kept in ``.perfbench-out/``. See perfbench/README.md for the workloads.
"""

import argparse
import csv
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")
CHILD = os.path.join(HERE, "child.py")

sys.path.insert(0, HERE)
import tracing  # noqa: E402

DEADLINE_S = 170.0      # a benchmark run must end within 180 s
SETUP_PROBES = 5
SEED_STRIDE = 1_000_003  # CLI seed of repeat k is seed + k * SEED_STRIDE
# closed-form client value at zero fee, T^4 / (48 phi_a), for the default
# horizon 1 and phi_a 0.5 that every workload config keeps
ZERO_FEE_VALUE = 1.0 / 24.0
EXTRACTION_TOL = 1e-8   # acceptance criterion 8


def _read_quantities(path):
    with open(path, newline="") as fh:
        return {row["quantity"]: row["value"] for row in csv.DictReader(fh)}


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# Output checks. Each returns (accuracy figures, problems, notes); a run
# with any problem counts as failed.

VERIFY_ROWS = ("girsanov_normalization", "entropy_identity",
               "constraint_moments", "oracle_value_equality",
               "oracle_collapse")


def _numbers(detail):
    return [float(x) for x in re.findall(r"= ([-+.0-9eE]+)", detail)]


def check_verify(out):
    # The three Monte Carlo rows are 3-standard-error tests, so they fail by
    # chance: constraint_moments failed on 2 of 40 seeds at 20k paths and
    # sigma 1. A chance miss is a note. A miss beyond twice the row's own
    # tolerance (6 se), which chance does not produce, is a failure, as is
    # any miss of the exact oracle rows. constraint_moments prints no
    # standard error, so its misses are only noted.
    rows = {r["check"]: r for r in _read_rows(os.path.join(out, "verify.csv"))}
    problems, notes = [], []
    if tuple(rows) != VERIFY_ROWS:
        problems.append(f"verify.csv rows {list(rows)}, expected "
                        f"{list(VERIFY_ROWS)}")
    for name, row in rows.items():
        if row["status"] == "pass":
            continue
        miss = f"verify {name}: {row['status']} ({row['detail']})"
        if name in ("girsanov_normalization", "entropy_identity"):
            value, tol = _numbers(row["detail"])
            if abs(value) > 2.0 * tol:
                problems.append(miss)
            else:
                notes.append(f"chance miss within 6 se, not a failure: "
                             f"{miss}")
        elif name == "constraint_moments":
            notes.append(f"chance miss, not a failure: {miss}")
        else:
            problems.append(miss)
    _, three_se = _numbers(rows["girsanov_normalization"]["detail"])
    # verify prints the standard error to 3 digits
    return {"mc_se": three_se / 3.0}, problems, notes


def check_agent(out):
    q = _read_quantities(os.path.join(out, "agent.csv"))
    value, mc_value, mc_se = (float(q[k]) for k in
                              ("value", "mc_value", "mc_se"))
    tol = max(0.01 * abs(value), 3.0 * mc_se)
    problems = []
    if abs(value - mc_value) > tol:
        problems.append(f"|value - mc_value| = {abs(value - mc_value):.3g} "
                        f"exceeds max(1% of value, 3 se) = {tol:.3g}")
    notes = [f"agent value {value!r}, Monte Carlo {mc_value!r} "
             f"(se {mc_se!r})"]
    return {"hjb_err": abs(value - ZERO_FEE_VALUE)}, problems, notes


def check_optimize(out):
    rows = _read_rows(os.path.join(out, "sequence.csv"))
    problems = []
    if len(rows) != 2:
        problems.append(f"sequence.csv has {len(rows)} records, expected 2")
    trail = [float(r["best_so_far"]) for r in rows]
    if any(b < a for a, b in zip(trail, trail[1:])):
        problems.append(f"best-so-far trail decreases: {trail}")
    zero = [r for r in rows if float(r["coef_0"]) == 0.0]
    accuracy = {}
    if zero:
        accuracy["hjb_err"] = abs(float(zero[0]["v_a"]) - ZERO_FEE_VALUE)
    else:
        problems.append("no zero-coefficient evaluation to compare with 1/24")
    notes = ["unchecked: v_a of a price-dependent fee is the grid value "
             "only; the returned policy does not earn it (ROADMAP item 2)"]
    return accuracy, problems, notes


def check_oracle(out):
    q = _read_quantities(os.path.join(out, "oracle.csv"))
    gap = float(q["value_gap"])
    counterexamples = int(q["collapse_counterexamples"])
    violation = float(q["max_constraint_violation"])
    problems = []
    if gap > 1e-8:
        problems.append(f"value_gap {gap:.3g} exceeds 1e-8")
    if counterexamples:
        problems.append(f"{counterexamples} collapse counterexamples")
    notes = [f"observed: relaxed_is_dirac = {q['relaxed_is_dirac']}, "
             f"max_constraint_violation = {violation!r}"
             + (f" (known defect: above criterion 8's {EXTRACTION_TOL:g})"
                if violation > EXTRACTION_TOL else "")]
    return {"oracle_violation": violation}, problems, notes


# name -> (CLI mode, output check, accuracy figure reported as accuracy_err)
WORKLOADS = {
    "mc-verify": ("verify", check_verify, "mc_se"),
    "search-poly": ("optimize", check_optimize, "hjb_err"),
    "oracle-tree": ("oracle", check_oracle, "oracle_violation"),
    "agent-grid": ("agent", check_agent, "hjb_err"),
}

# name -> (unit, better, bound); the bound is the share of the parent's
# median by which a metric may worsen
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "bytes_written": ("B", "lower", 0.05),
    "ok_rate": ("ratio", "higher", 0.05),
    "accuracy_err": ("1", "lower", 0.25),
}
# per-layer metrics beyond tracing.LAYER_METRICS: name -> (unit, better)
TRACE_METRICS = {
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


@dataclass
class Run:
    """One CLI run: its measurements, accuracy figures and problems."""

    wall_s: float
    record: dict          # what child.py wrote: status, peak RSS, spans
    bytes_written: int
    accuracy: dict
    problems: list
    notes: list

    @property
    def failed(self):
        return bool(self.problems)


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _check_manifest(out):
    with open(os.path.join(out, "manifest.json")) as fh:
        listed = json.load(fh)["outputs"]
    return [f"manifest lists missing output {name}" for name in listed
            if not os.path.isfile(os.path.join(out, name))]


def cli_run(workload, seed, config, work_dir, index, traced, deadline):
    """Run ``brokerfee`` once in a fresh interpreter and check its outputs."""
    mode, check, _ = WORKLOADS[workload]
    out = os.path.join(work_dir, f"out{index}")
    result_path = os.path.join(work_dir, f"result{index}.json")
    argv = [sys.executable, CHILD, "--src", SRC, "--result", result_path,
            "--run-id", f"{workload}-{seed}-{os.getpid()}-{index}"]
    if traced:
        argv.append("--trace")
    argv += ["--", mode, "--config", config, "--seed", str(seed),
             "--out", out]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        shutil.rmtree(out, ignore_errors=True)
        return Run(time.perf_counter() - start, {}, 0, {},
                   ["timed out"], [])
    wall_s = time.perf_counter() - start

    record, problems, accuracy, notes = {}, [], {}, []
    if proc.returncode != 0 or not os.path.isfile(result_path):
        problems.append(f"exit status {proc.returncode}: "
                        f"{proc.stderr.strip()[-400:]}")
    else:
        with open(result_path) as fh:
            record = json.load(fh)
        if record["status"] != 0:
            problems.append(f"brokerfee exited {record['status']}: "
                            f"{proc.stderr.strip()[-400:]}")
    bytes_written = _dir_bytes(out) if os.path.isdir(out) else 0
    if not problems:
        try:
            problems += _check_manifest(out)
            accuracy, check_problems, notes = check(out)
            problems += check_problems
        except (OSError, KeyError, ValueError, StopIteration) as exc:
            problems.append(f"unreadable output: {exc!r}")
    shutil.rmtree(out, ignore_errors=True)
    return Run(wall_s, record, bytes_written, accuracy, problems, notes)


def setup_times(config):
    """Wall times of fresh interpreters that import brokerfee.cli and parse
    the workload config. An untimed first probe fills the file cache, which
    a user's repeated runs find warm."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, CHILD, "--src", SRC,
                               "--setup", config], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return times[1:]


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns (result dict, notes, record to keep)."""
    deadline = time.monotonic() + DEADLINE_S
    config = os.path.join(HERE, "workloads", f"{workload}.cfg")
    work_dir = os.path.join(OUT_ROOT, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        setup_probes = setup_times(config)
        runs = []
        if trace:
            runs.append(cli_run(workload, seed, config, work_dir, 0, False,
                                deadline))
            runs.append(cli_run(workload, seed, config, work_dir, 1, True,
                                deadline))
        else:
            # repeat until --seconds have passed; each repeat draws fresh
            # paths so that the median also steadies the Monte Carlo figures
            measure_end = time.monotonic() + seconds
            while True:
                runs.append(cli_run(workload, seed + SEED_STRIDE * len(runs),
                                    config, work_dir, len(runs), False,
                                    deadline))
                typical = statistics.median(r.wall_s for r in runs)
                now = time.monotonic()
                if (runs[-1].problems == ["timed out"] or now >= measure_end
                        or now + typical > deadline):
                    break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(r.failed for r in runs)
    notes = []
    for k, r in enumerate(runs):
        notes += [f"run {k}: {line}" for line in r.notes]
        notes += [f"run {k} FAILED: {p}" for p in r.problems]
    good = [r for r in runs if not r.failed]
    _, _, accuracy_name = WORKLOADS[workload]

    metrics = {}
    if trace:
        untraced, traced = runs
        spans = traced.record.get("spans", [])
        counters = traced.record.get("counters", {})
        for name, value in tracing.layer_metrics(spans, counters).items():
            unit = tracing.LAYER_METRICS[name][0]
            metrics[name] = {"value": value, "unit": unit}
        for name, value in (("trace.overhead_s",
                              traced.wall_s - untraced.wall_s),
                             ("trace.spans", len(spans))):
            metrics[name] = {"value": value, "unit": TRACE_METRICS[name][0]}
        notes.append(f"untraced wall {untraced.wall_s!r} s, traced wall "
                     f"{traced.wall_s!r} s")
        for name in tracing.EXACT_COUNTS:
            notes.append(f"count {name} = {counters.get(name, 0)}")
        notes.append(f"count bytes_written = {traced.bytes_written}")
    else:
        values = {
            "wall_s": statistics.median(r.wall_s for r in runs),
            "setup_s": statistics.median(setup_probes),
            "peak_rss_mb": max(r.record.get("peak_rss_mb", 0.0)
                               for r in runs),
            "bytes_written": statistics.median(r.bytes_written
                                               for r in runs),
            "ok_rate": (len(runs) - failed) / len(runs),
            "accuracy_err": (statistics.median(r.accuracy[accuracy_name]
                                               for r in good)
                             if good else None),
        }
        for name, (unit, _, _) in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
        notes.append(f"accuracy_err is {accuracy_name} on this workload")
        if good:
            notes.append(f"metric {accuracy_name} = "
                         f"{values['accuracy_err']!r} 1")
        notes.append(f"metric fail_rate = {failed / len(runs)!r} ratio "
                     f"({failed} of {len(runs)} runs)")

    versions = next((r.record["versions"] for r in runs if r.record), {})
    environment = {"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "nproc": os.cpu_count(),
                   "cpus_usable": len(os.sched_getaffinity(0)), **versions}
    result = {"correct": failed == 0, "attempted": len(runs),
              "failed": failed, "metrics": metrics}
    keep = {"environment": environment, "notes": notes, "result": result,
            "setup_probes_s": setup_probes,
            "run_walls_s": [r.wall_s for r in runs],
            "run_cpu_s": [r.record.get("cpu_s") for r in runs],
            "run_accuracy": [r.accuracy for r in runs]}
    if trace:
        keep["spans"] = runs[1].record.get("spans", [])
        keep["span_fields"] = ["id", "name", "start", "end", "parent"]
        keep["run_id"] = runs[1].record.get("run_id")
    return result, [f"environment {json.dumps(environment)}"] + notes, keep


def _print_result(workload, result, notes):
    for line in notes:
        print(f"[{workload}] {line}")
    for name, metric in result["metrics"].items():
        print(f"[{workload}] metric {name} = {metric['value']!r} "
              f"{metric['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "brokerfee", "cli.py")):
        print(f"no brokerfee source under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_ROOT, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        result, notes, keep = run_workload(workload, args.seed,
                                           args.seconds, args.trace)
        with open(os.path.join(OUT_ROOT, f"{workload}-seed{args.seed}"
                               f"-trace{args.trace}.json"), "w") as fh:
            json.dump(keep, fh)
        _print_result(workload, result, notes)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}/{k}": v for k, v in
                                    result["metrics"].items()})
    print(json.dumps(result if len(names) == 1 else combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
