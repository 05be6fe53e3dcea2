"""ndcheck benchmark: end-to-end metrics (untraced) or per-layer metrics
(traced) for one workload, checked by a verdict oracle.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 35 --trace 0

Run from the root of a checkout that holds ``src/ndcheck``.  Each round is a
fresh worker process (set-up, one cold pass, warm reruns); rounds run one
after another, and untraced timings are scaled by a reference loop timed
between them.  The last line of stdout is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170            # a run must end within 180 s
HASH_SEED = "0"             # fixed for every worker, stamped in the output
REF_S = 0.1                 # timings are scaled to a machine that runs reference() in REF_S
REF_SAMPLES = 2             # reference() calls before, between and after the rounds


class Workload(NamedTuple):
    name: str
    rounds: int             # worker processes, one ndcheck seed each
    warm: int               # warm reruns per round, after the cold pass
    max_tests: int = 0      # --maxtests of the timed rounds (cli workloads)
    verify_tests: int = 0   # corpus: --maxtests of the untimed oracle pass


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus", rounds=7, warm=1, max_tests=40, verify_tests=100),
        Workload("int_lists", rounds=7, warm=1),
        Workload("structured", rounds=18, warm=2, max_tests=500),
    )
}

EXACT_COUNTS = (
    "searchtree.input_nodes",
    "searchtree.prop_nodes",
    "values.canonical_calls",
    "runner.cases",
)


class BenchError(Exception):
    pass


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from files (no git call)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "PYTHONHASHSEED": HASH_SEED,
    }


def _key(v):
    return ("t",) + tuple(_key(x) for x in v) if isinstance(v, tuple) else v


def reference(n: int = 4000, heap: int = 20_000) -> float:
    """Time a fixed piece of interpreter work that does not touch ndcheck.
    It keys small nested tuples into a dict and a set, as ndcheck's value
    layer does, then links a heap of small lists at scattered positions and
    collects it, as ndcheck's memoised trees are walked and scanned by the
    GC.  Its times just before and just after a round measure how fast the
    shared machine ran during that round."""
    started = time.perf_counter()
    seen, keys = {}, set()
    for i in range(n):
        tree = (i % 7, (i % 5, (i % 3, i % 11)), [i, i + 1][i % 2])
        key = _key((tree, (tree, i % 13)))
        seen[key] = seen.get(key, 0) + 1
        keys.add(key)
    nodes = [[i, None, {}] for i in range(heap)]
    for i, node in enumerate(nodes):
        node[1] = nodes[(i * 7919) % heap]
        node[2][node[1][0] % 97] = node[1]
    del nodes
    gc.collect()
    return time.perf_counter() - started


def run_worker(wl: Workload, ndseed: int, max_tests: int, passes: int, trace: bool,
               env: dict, deadline: float) -> dict:
    """Run one round; returns the worker's figures plus its set-up time,
    measured from process start until the worker reports ``ready``."""
    cmd = [sys.executable, str(HERE / "worker.py"), wl.name, str(ndseed),
           str(max_tests), str(passes), str(int(trace))]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        if ready.strip() != "ready":
            raise BenchError(f"worker failed during set-up (output {ready!r})")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker ran past the benchmark's deadline") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def end_to_end(rounds: list[dict], scales: list[float]) -> dict:
    """Medians over the rounds (``warm_s``: over every warm pass), each
    round's timings multiplied by its scale."""
    return {
        "setup_s": statistics.median(r["setup_s"] * k for r, k in zip(rounds, scales)),
        "cold_s": statistics.median(r["passes"][0]["s"] * k for r, k in zip(rounds, scales)),
        "warm_s": statistics.median(p["s"] * k for r, k in zip(rounds, scales) for p in r["passes"][1:]),
        "tests_per_s": statistics.median(r["passes"][0]["tests"] / (r["passes"][0]["s"] * k)
                                         for r, k in zip(rounds, scales)),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
    }


def untraced(wl: Workload, seed: int, env: dict, deadline: float):
    """Rounds on the seed batch seed*rounds .. seed*rounds+rounds-1.  The
    reference samples taken just before and just after a round scale its
    timings to a machine that runs ``reference()`` in ``REF_S``."""
    rounds, ref = [], [[reference() for _ in range(REF_SAMPLES)]]
    for k in range(wl.rounds):
        rounds.append(run_worker(wl, seed * wl.rounds + k, wl.max_tests, 1 + wl.warm, False, env, deadline))
        ref.append([reference() for _ in range(REF_SAMPLES)])
    scales = [REF_S / statistics.median(before + after) for before, after in zip(ref, ref[1:])]
    metrics = end_to_end(rounds, scales)
    notes = {"scales": scales, "unscaled": end_to_end(rounds, [1.0] * len(rounds))}
    if wl.verify_tests:
        rounds.append(run_worker(wl, seed, wl.verify_tests, 1, False, env, deadline))
    return metrics, rounds, notes


def traced(wl: Workload, seed: int, env: dict, deadline: float):
    """Two traced rounds and one untraced round on the same ndcheck seed."""
    ndseed = seed * wl.rounds
    first = run_worker(wl, ndseed, wl.max_tests, 2, True, env, deadline)
    second = run_worker(wl, ndseed, wl.max_tests, 1, True, env, deadline)
    plain = run_worker(wl, ndseed, wl.max_tests, 1, False, env, deadline)
    cold, warm = first["passes"][0], first["passes"][1]
    metrics = dict(cold["layers"])
    metrics["gc.warm_pause_s"] = warm["layers"]["gc.pause_s"]
    metrics["registry.import_s"] = first["import_s"]
    metrics["registry.specs"] = first["specs"]
    overhead = cold["s"] - plain["passes"][0]["s"]
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / plain["passes"][0]["s"]
    mismatches = [
        f"{name}: cold {cold['layers'][name]}, warm {warm['layers'][name]},"
        f" second run {second['passes'][0]['layers'][name]}"
        for name in EXACT_COUNTS
        if not cold["layers"][name] == warm["layers"][name] == second["passes"][0]["layers"][name]
    ]
    return metrics, [first, second, plain], {"count_mismatches": mismatches}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35,
                        help="nominal measuring time; a run's work is fixed by its rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    if not (ROOT / "src" / "ndcheck" / "__init__.py").is_file():
        print(f"run.py: no ndcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[opts.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if opts.trace else "end_to_end"]}
    tmp = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    env = {k: v for k, v in os.environ.items() if k != "NDCHECK_SEED"}
    env.update(PYTHONHASHSEED=HASH_SEED, TMPDIR=tmp)
    deadline = time.monotonic() + DEADLINE_S
    try:
        metrics, rounds, notes = (traced if opts.trace else untraced)(wl, opts.seed, env, deadline)
        if set(metrics) != set(units):
            raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(r["tally"]["attempted"] for r in rounds)
    failed = sum(r["tally"]["failed"] for r in rounds)
    wrong = sum(r["tally"]["wrong"] for r in rounds)
    problems = [p for r in rounds for p in r["tally"]["problems"]]
    mismatches = notes.get("count_mismatches", [])
    detail = {
        "workload": wl.name,
        "env": environment(opts.seed),
        "ndcheck_seeds": sorted({r["ndseed"] for r in rounds}),
        "failed_share": failed / attempted,
        "missed_broken": sum(r["tally"]["missed_broken"] for r in rounds),
        "problems": sorted(set(problems)),
        **notes,
        "rounds": [
            {"ndseed": r["ndseed"], "setup_s": r["setup_s"], "rss_mb": r["rss_mb"],
             "pass_s": [p["s"] for p in r["passes"]]}
            for r in rounds
        ],
    }
    for name, value in metrics.items():
        print(f"{wl.name} {name} = {value:.6g} {units[name]}")
    print(f"{wl.name} failed_share = {detail['failed_share']:.4g} ({failed}/{attempted})")
    print(json.dumps(detail))
    correct = wrong == 0 and not mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
