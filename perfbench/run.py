"""Benchmark of the canonmat CLI: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload {census,canonize,stream} --seed N \
        --seconds S --trace {0,1}

Run from any directory; the program is imported from `src/` of the checkout
this file sits in.  Set-up runs `prepare.py` eleven times and keeps the median.
The workload's operation list then runs in whole rounds until the next
round would pass S seconds (at least two rounds).  Each operation is one
fresh `python3 perfbench/launch.py -- <canonmat args>` process in its own
process group, except on batched plans (canonize), where a round is one
`launch.py --batch` process that times each command in itself.  Every
output is checked by oracles.py, not by canonmat.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates untraced
and traced rounds and prints the per-layer metrics of the traced ones, plus
the tracing overhead (traced minus untraced round time).  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  Each run
also appends a record with the git revision, Python version and core count
to perfbench/out/results.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import layers
import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# name -> (unit, better); the end-to-end metrics of an untraced run.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "op_p50_s": ("s", "lower"),
    "op_max_s": ("s", "lower"),
    "first_output_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

SETUP_REPEATS = 11
MIN_ROUNDS = 2
RUN_LIMIT_S = 170      # the whole run, set-up and checks included, ends by then
CHECK_RESERVE_S = 30   # time kept back for the checks after the last round


class LeftoverProcess(RuntimeError):
    """A process the benchmark started outlived its command."""


@dataclass
class Result:
    code: int | None      # None: killed at the deadline
    out: bytes
    err: bytes
    wall_s: float
    first_output_s: float | None


def group_gone(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return True
    return False


def reap_group(proc: subprocess.Popen):
    """Kill what is left of the command's process group and wait for it."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
    # A helper such as multiprocessing's resource tracker may take a moment
    # to notice that its parent ended.
    for _ in range(200):
        if group_gone(proc.pid):
            return
        time.sleep(0.025)
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    raise LeftoverProcess(f"processes of group {proc.pid} ({' '.join(proc.args)}) "
                          "were still alive after it ended; killed them")


def run_command(cmd: list[str], err_path: str, deadline: float) -> Result:
    """Run cmd in a new process group; time its exit and its first stdout byte."""
    with open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err, start_new_session=True)
    out = bytearray()
    first = None
    code = None
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while time.perf_counter() < deadline:
                if not sel.select(deadline - time.perf_counter()):
                    continue
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    code = proc.wait(timeout=max(deadline - time.perf_counter(), 0.001))
                    break
                if first is None:
                    first = time.perf_counter() - started
                out += chunk
    except subprocess.TimeoutExpired:
        pass
    finally:
        ended = time.perf_counter()
        reap_group(proc)
    with open(err_path, "rb") as fh:
        err_bytes = fh.read()
    return Result(code, bytes(out), err_bytes, ended - started, first)


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def expected_code(op) -> int:
    return 2 if op["check"]["kind"] == "usage_error" else 0


def failure(op, result: Result) -> str | None:
    """Why the command did not complete as documented, or None."""
    if result.code is None:
        return "killed at the run's time limit"
    if result.code != expected_code(op):
        tail = result.err.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit {result.code}, expected {expected_code(op)}: {' '.join(tail)}"
    if b"Traceback" in result.err:
        return "printed a traceback"
    return None


# Operations whose outputs must agree: a stream at 1 and at 2 workers, and
# canonize on a matrix and on its permuted copy.
SIBLING_KEYS = {"stream": ("shape", "filter"), "canonize": ("pair",)}


def sibling_of(op, ops):
    """The other operation of the plan whose output must agree with op's."""
    kind = op["check"]["kind"]
    if kind not in SIBLING_KEYS:
        return None
    key = [op["check"][k] for k in SIBLING_KEYS[kind]]
    for other in ops:
        if other is not op and other["check"]["kind"] == kind \
                and [other["check"][k] for k in SIBLING_KEYS[kind]] == key:
            return other
    return None


def batch_results(ops, result: Result) -> dict[str, Result]:
    """Per-command results of a `launch.py --batch` process.  If it printed
    none, every command gets the process's own status and stderr."""
    try:
        found = json.loads(result.out.decode().splitlines()[-1]) if result.code == 0 else None
    except (ValueError, IndexError):
        found = None
    if not isinstance(found, list) or len(found) != len(ops):
        return {op["id"]: Result(result.code if result.code != 0 else 1, b"", result.err,
                                 result.wall_s, None) for op in ops}
    return {op["id"]: Result(r["code"], r["out"].encode(), r["err"].encode(),
                             r["wall_s"], r["first_output_s"])
            for op, r in zip(ops, found)}


def run_round(ops, batch, workdir, trace_root, deadline):
    """One pass over the operation list: a process per operation, or one
    process for all of them when the plan is batched.  Returns the round's
    wall time, each operation's result, and the operations of each process
    in the order of its trace directory."""
    groups = [ops] if batch else [[op] for op in ops]
    results = {}
    started = time.perf_counter()
    for k, group in enumerate(groups):
        cmd = [sys.executable, os.path.join(HERE, "launch.py")]
        if trace_root is not None:
            trace_dir = os.path.join(trace_root, str(k))
            os.makedirs(trace_dir)
            cmd += ["--trace-dir", trace_dir]
        err_path = os.path.join(workdir, "stderr.txt")
        if batch:
            batch_path = os.path.join(workdir, "batch.json")
            with open(batch_path, "w") as fh:
                json.dump([op["argv"] for op in group], fh)
            results.update(batch_results(group, run_command(cmd + ["--batch", batch_path],
                                                            err_path, deadline)))
        else:
            results[group[0]["id"]] = run_command(cmd + ["--", *group[0]["argv"]],
                                                  err_path, deadline)
    return time.perf_counter() - started, results, groups


def traced_figures(trace_root, groups):
    """Layer figures of one traced round, the wrapped names that were
    missing, and how many processes left span files for each operation.
    Files are read one at a time: a stream round holds ~350,000 spans."""
    missing = set()
    files = [0] * len(groups)

    def records():
        for k in range(len(groups)):
            group_dir = os.path.join(trace_root, str(k))
            for name in sorted(os.listdir(group_dir)):
                with open(os.path.join(group_dir, name)) as fh:
                    rec = json.load(fh)
                files[k] += 1
                missing.update(rec["missing"])
                yield rec

    figures = layers.round_figures(records())
    return figures, missing, {op["id"]: n for group, n in zip(groups, files) for op in group}


def measure(workload, ops, batch, seconds, tracing, workdir, run_deadline):
    """Whole rounds until the next would pass `seconds`; traced runs
    alternate untraced and traced rounds and end on a traced one."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        traced = tracing and len(rounds) % 2 == 1
        trace_root = os.path.join(workdir, f"trace{len(rounds)}") if traced else None
        wall, results, groups = run_round(ops, batch, workdir, trace_root, run_deadline)
        trace = None
        if traced:
            trace = traced_figures(trace_root, groups)
            kept = os.path.join(OUT, f"trace-{workload}")
            if not any(r["traced"] for r in rounds):
                shutil.rmtree(kept, ignore_errors=True)
                shutil.move(trace_root, kept)
            else:
                shutil.rmtree(trace_root)
        rounds.append({"traced": traced, "wall": wall, "results": results, "trace": trace})
        elapsed = time.perf_counter() - t0
        per_round = elapsed / len(rounds)
        if time.perf_counter() + per_round > run_deadline - CHECK_RESERVE_S:
            break
        if tracing and len(rounds) % 2 == 1:
            continue
        if len(rounds) >= MIN_ROUNDS and elapsed + per_round * (2 if tracing else 1) > seconds:
            break
    return rounds


def verify(ops, rounds):
    """({failed operation: why}, problems with the outputs of the others)."""
    failed = {}
    problems = []
    reference = {}
    failures = 0
    for rnd in rounds:
        for op in ops:
            result = rnd["results"][op["id"]]
            why = failure(op, result)
            if why is not None:
                failures += 1
                failed[op["id"]] = why
                continue
            if op["id"] in reference and reference[op["id"]] != result.out:
                problems.append(f"{op['id']}: output differs between rounds")
            reference.setdefault(op["id"], result.out)
    for op in ops:
        kind = op["check"]["kind"]
        if kind == "usage_error" or op["id"] not in reference:
            continue
        sibling = sibling_of(op, ops)
        sibling_out = reference.get(sibling["id"]) if sibling else None
        found = oracles.CHECKS[kind](op["check"], reference[op["id"]].decode(),
                                     sibling_out.decode() if sibling_out is not None else None)
        problems += [f"{op['id']}: {p}" for p in found]
    return failures, failed, problems


def end_to_end(ops, rounds, setup_times, failed_ids):
    plain = [r for r in rounds if not r["traced"]]
    headline = [op for op in ops if op["headline"] and op["id"] not in failed_ids]
    latency = [statistics.median(r["results"][op["id"]].wall_s for r in plain)
               for op in headline]
    first = [statistics.median(r["results"][op["id"]].first_output_s or r["results"][op["id"]].wall_s
                               for r in plain)
             for op in headline]
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(r["wall"] for r in plain),
        "op_p50_s": statistics.median(latency),
        "op_max_s": max(latency),
        "first_output_s": statistics.median(first),
        "peak_rss_mb": peak_kb / 1024,
    }


def per_layer(ops, rounds, problems):
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    figures = [r["trace"][0] for r in traced]
    nodes = {f["enumeration.nodes"] for f in figures}
    if len(nodes) > 1:
        problems.append(f"enumeration.nodes differs between traced rounds: {sorted(nodes)}")
    metrics = {name: (statistics.median_low if layers.METRICS[name][0] == "count"
                      else statistics.median)(f[name] for f in figures)
               for name in figures[0]}

    speedups = []
    for op in ops:
        sibling = sibling_of(op, ops)
        if sibling and op["check"].get("workers") == 1:
            speedups = [r["results"][op["id"]].wall_s / r["results"][sibling["id"]].wall_s
                        for r in plain]
    metrics["cli.parallel_speedup"] = statistics.median(speedups) if speedups else 0.0
    untraced_s = statistics.median(r["wall"] for r in plain)
    overhead = statistics.median(r["wall"] for r in traced) - untraced_s
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_pct"] = 100 * overhead / untraced_s

    gone = layers.absent(set().union(*(r["trace"][1] for r in traced)))
    files = traced[0]["trace"][2]
    for op in ops:
        if "--workers" in op["argv"] and int(op["argv"][op["argv"].index("--workers") + 1]) > 1 \
                and files[op["id"]] < 2:
            # pool workers left no spans: work done there would read as saved
            gone |= {n for n in layers.METRICS if n.startswith(
                ("matrices.format", "equivalence.", "enumeration.", "hadamard."))}
    return {name: metrics[name] for name in layers.METRICS if name not in gone}, sorted(gone)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("census", "canonize", "stream"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "canonmat", "cli.py")):
        print(f"error: no canonmat source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    for sig in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, lambda signum, _frame: sys.exit(128 + signum))

    run_deadline = time.perf_counter() + RUN_LIMIT_S
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            res = run_command([sys.executable, os.path.join(HERE, "prepare.py"),
                               "--workload", args.workload, "--seed", str(args.seed),
                               "--dir", workdir],
                              os.path.join(workdir, "stderr.txt"), run_deadline)
            if res.code != 0:
                sys.stderr.write(res.err.decode(errors="replace"))
                print("error: set-up failed", file=sys.stderr)
                return 2
            setup_times.append(res.wall_s)
        with open(os.path.join(workdir, "plan.json")) as fh:
            plan = json.load(fh)
        ops = plan["ops"]

        rounds = measure(args.workload, ops, plan["batch"], args.seconds, bool(args.trace),
                         workdir, run_deadline)
        if args.trace and not any(r["traced"] for r in rounds):
            print("error: the time limit came before the first traced round", file=sys.stderr)
            return 4
        failures, failed, problems = verify(ops, rounds)
        absent = []
        if args.trace:
            metrics, absent = per_layer(ops, rounds, problems)
            units = layers.METRICS
        else:
            metrics = end_to_end(ops, rounds, setup_times, failed)
            units = END_TO_END
    except LeftoverProcess as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(ops) * len(rounds)
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "revision": git_revision(), "python": platform.python_version(),
        "cores": os.cpu_count(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "rounds": len(rounds),
        "correct": not problems, "attempted": attempted, "failed": failures,
        "failures": failed, "problems": problems, "absent": absent,
        "metrics": metrics,
        "round_wall_s": [r["wall"] for r in rounds if not r["traced"]],
        "op_wall_s": {op["id"]: [r["results"][op["id"]].wall_s for r in rounds if not r["traced"]]
                      for op in ops},
        "setup_samples_s": setup_times,
    }
    with open(os.path.join(OUT, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")

    for line in [f"{op_id}: {why}" for op_id, why in failed.items()] + problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} rounds={len(rounds)} "
          f"revision={record['revision']} python={record['python']} cores={record['cores']}")
    for name in absent:
        print(f"{name} absent")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name][0]}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failures,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
