"""End-to-end benchmark of the paper's Table-5 flows.

    python3 e2ebench/run.py --workload global-cls1v1 --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload all

Every repetition runs in a fresh process (``rep.py``): set-up, one flow
through the public API, then the correctness checks.

``--trace 0`` repeats the workload until ``--seconds`` have passed (at
least once) and reports the median of every end-to-end metric.  Times
are scaled to a reference machine speed by ``SpeedProbe``: CPU seconds
of a serial workload, pinned to the probe's CPU, and wall seconds of a
pooled one, probed on every CPU.  The measured wall and CPU seconds are
printed beside them.
``--trace 1`` runs the workload once untraced and once with the layer
wrappers of ``layers.py`` installed, and reports the traced run's
per-layer self times and counts together with the wrapper overhead.
``--workload all`` does both for every workload.

A repetition fails when it raises, when its result fails a check in
``rep.check``, or when its committed trajectory, result tree or
``variation_norm`` differ from the first repetition this checkout ran of
the workload on the same sources (kept in ``out/digests.json``, keyed by
a hash of the program's and the benchmark's sources, so a changed
program is compared only with itself).  ``--seed`` is recorded but
changes no input; ``workloads.py`` says why.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: A run must end within 180 s; this is its budget for repetitions.
RUN_BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "flow_s": "s",
    "peak_rss_mb": "MB",
    "variation_norm": "ratio",
    "power_mw": "mW",
}
#: Layer metrics left out of the self-time sum: inclusive times and the
#: run-level figures.
NOT_SELF_TIMES = (
    "framework.global_total_s",
    "framework.local_total_s",
    "trace.wall_s",
    "trace.untraced_wall_s",
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_rate"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    return "count"


class RepFailed(RuntimeError):
    """A repetition raised, timed out or printed no result."""


#: The speed probe's unit of work, and its median CPU time on the
#: reference machine (2-CPU Xeon VM, Python 3.11).  A loop that also
#: streamed numpy arrays tracked the flows' speed no better.
PROBE_LOOP = 400_000
PROBE_REF_S = 0.0452
#: The probe idles this many times as long as each chunk ran (10% duty).
PROBE_IDLE = 9
#: When the host slows, the flows slow more than the probe loop: their
#: CPU time goes as the probe's to the power 1.2.  Fitted on ten runs of
#: each workload while the probe's speed varied 1.6-fold; the best power
#: was 1.2 on all three, and it cut the spread of ``flow_s`` from
#: 0.072-0.096 to 0.042-0.068 of the median.
PROBE_POWER = 1.2


def _probe_chunk() -> int:
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i % 7
    return total


class SpeedProbe:
    """Speed of the CPUs a repetition runs on, sampled over time.

    The host is shared: the speed a CPU delivers drifts by up to +-25%
    within seconds, which swamps the changes the benchmark is meant to
    see, and this machine's two CPUs do not always drift together.  So
    one thread per probed CPU, pinned to it, runs :func:`_probe_chunk`
    at a 10% duty cycle and records the chunk's CPU time.  A time the
    repetition measured over an interval is scaled by (``PROBE_REF_S`` /
    the chunks' mean CPU time over that interval) ** ``PROBE_POWER``:
    seconds at the reference speed.  A serial repetition is pinned to the one probed
    CPU and its CPU time is scaled, because it shares that CPU with the
    probe; a pooled one spreads over all CPUs, each probed, and its wall
    time is scaled.
    """

    def __init__(self, cpus) -> None:
        self.samples: list = []
        self._done = threading.Event()
        self._threads = [
            threading.Thread(target=self._run, args=(cpu,), daemon=True) for cpu in sorted(cpus)
        ]

    def __enter__(self) -> "SpeedProbe":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._done.set()
        for thread in self._threads:
            thread.join()

    def _run(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        while not self._done.is_set():
            start = time.monotonic()
            cpu_start = time.thread_time()
            _probe_chunk()
            used = time.thread_time() - cpu_start
            self.samples.append((start, time.monotonic(), used))
            self._done.wait(PROBE_IDLE * used)

    def scaled(self, seconds: float, interval: list) -> float:
        start, end = interval
        inside = [used for a, b, used in self.samples if a >= start and b <= end]
        if not inside:
            return seconds
        return seconds * (PROBE_REF_S / statistics.fmean(inside)) ** PROBE_POWER


def spawn(workload: str, trace: int, deadline: float) -> dict:
    """Run one repetition in a fresh process and return its JSON result.

    ``setup_s``, ``flow_s`` and ``wall_s`` come back scaled to the
    reference speed (see :class:`SpeedProbe`); the measured wall seconds
    are kept under ``*_raw_s`` and the CPU seconds under ``*_cpu_s``.
    """
    cmd = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload", workload,
        "--trace", str(trace),
    ]
    # String hashing is randomized per process and so is the order sets
    # are walked in.  With a random hash seed, local-cls1v2 runs with the
    # same trajectory took 11.6-16.2 s (speed-scaled); with the seed
    # pinned, 14.5-15.3 s.  The pinned seed changes no result.
    env = dict(os.environ, PYTHONHASHSEED="0")
    serial = WORKLOADS[workload].workers == 1
    cpus = os.sched_getaffinity(0)
    probe = SpeedProbe({min(cpus)} if serial else cpus)
    if serial:
        env["E2EBENCH_CPU"] = str(min(cpus))
    timeout = max(1.0, deadline - time.monotonic())
    # A session of its own, so its pool workers are killed with it.
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        with probe:
            stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed(f"repetition still running after {timeout:.0f}s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        tail = " | ".join(stderr.strip().splitlines()[-3:])
        raise RepFailed(f"repetition exited {proc.returncode}: {tail}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RepFailed("repetition printed no result")
    rep = json.loads(lines[-1])
    for name in ("setup", "flow", "wall"):
        rep[f"{name}_raw_s"] = rep[f"{name}_s"]
        measured = rep[f"{name}_cpu_s"] if serial else rep[f"{name}_s"]
        rep[f"{name}_s"] = probe.scaled(measured, rep[f"{name}_at"])
    return rep


def source_hash() -> str:
    """sha256 of the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    files = sorted([*(ROOT / "src" / "repro").rglob("*.py"), *HERE.glob("*.py")])
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def check_digests(workload: str, reps: list) -> None:
    """Fail every repetition whose result differs from the first one seen.

    The reference is kept per workload and per source hash: only reruns
    of the same code are compared, so a change that alters the result is
    not mistaken for nondeterminism.
    """
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{workload} {source_hash()}"
    reference = known.get(key, reps[0]["digest"])
    for rep in reps:
        if rep["digest"] != reference:
            rep["failures"].append(
                f"not deterministic: digest {rep['digest'][:12]} != {reference[:12]}"
            )
    if key not in known:
        known[key] = reference
        OUT.mkdir(exist_ok=True)
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, store)


def git_sha() -> str:
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def record(workload: str, seed: int, rep: dict) -> dict:
    """What ran where: the stamp every result file carries.

    CPU counts are taken here: a probed repetition is pinned to one CPU.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from repro.parallel.pool import effective_cpu_count

    return {
        "workload": workload,
        "seed": seed,
        "seed_used": False,
        "git_sha": git_sha(),
        "effective_cpu_count": effective_cpu_count(),
        "os_cpu_count": os.cpu_count(),
        "repetition_pinned_to_cpu": WORKLOADS[workload].workers == 1,
        **rep["machine"],
    }


def measure(workload: str, seconds: float) -> tuple:
    """Untraced repetitions: the end-to-end metrics."""
    deadline = time.monotonic() + RUN_BUDGET_S
    reps, errors = [], []
    started = time.monotonic()
    attempted = 0
    while attempted == 0 or time.monotonic() - started < seconds:
        attempted += 1
        try:
            reps.append(spawn(workload, 0, deadline))
        except RepFailed as exc:
            errors.append(str(exc))
    if not reps:
        raise RepFailed("; ".join(errors))
    check_digests(workload, reps)
    failed = len(errors) + sum(1 for rep in reps if rep["failures"])
    metrics = {name: statistics.median(rep[name] for rep in reps) for name in END_TO_END}
    measured = {
        key: statistics.median(rep[key] for rep in reps)
        for key in ("setup_raw_s", "setup_cpu_s", "flow_raw_s", "flow_cpu_s")
    }
    info = {"reps": reps, "errors": errors, "problems": [], "measured": measured}
    return attempted, failed, metrics, info


def trace(workload: str) -> tuple:
    """One untraced and one traced repetition: the per-layer metrics."""
    deadline = time.monotonic() + RUN_BUDGET_S
    plain = spawn(workload, 0, deadline)
    traced = spawn(workload, 1, deadline)
    reps = [plain, traced]
    check_digests(workload, reps)
    # Self times are measured seconds, so they reconcile with the
    # measured wall; the overhead compares speed-scaled walls.
    layers = dict(traced["layers"])
    layers["trace.wall_s"] = traced["wall_raw_s"]
    layers["trace.untraced_wall_s"] = plain["wall_raw_s"]
    layers["trace.overhead_pct"] = 100.0 * (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    problems = traced["span_problems"] + reconcile(workload, layers)
    failed = sum(1 for rep in reps if rep["failures"]) + (1 if problems else 0)
    info = {"reps": reps, "errors": [], "problems": problems}
    return len(reps), min(failed, len(reps)), layers, info


def reconcile(workload: str, layers: dict) -> list:
    """Ways the traced table fails to add up (empty when it does).

    ``rep.py`` has already checked that the spans nest (see
    ``SpanRecorder.nesting_problems``); given that, the self times plus
    ``unattributed_s`` equal the traced wall, so a mismatch here means a
    layer metric is counted twice or missed.
    """
    problems = []
    wall = layers["trace.wall_s"]
    self_total = sum(
        value for name, value in layers.items()
        if name.endswith("_s") and name not in NOT_SELF_TIMES
    )
    if abs(self_total - wall) > 0.01 * wall:
        problems.append(f"self times add up to {self_total:.3f} s, traced wall is {wall:.3f} s")
    if WORKLOADS[workload].workers == 1:
        busy = [n for n, v in layers.items() if n.startswith("parallel.") and v != 0]
        if busy:
            problems.append(f"serial workload shows pool activity: {', '.join(busy)}")
    return problems


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_failures(info: dict) -> None:
    for rep in info["reps"]:
        for failure in rep["failures"]:
            print(f"  FAIL: {failure}")
    for error in info["errors"] + info["problems"]:
        print(f"  FAIL: {error}")


def print_measure(workload, attempted, failed, metrics, info) -> None:
    print(f"== {workload}: {len(info['reps'])} repetition(s), medians ==")
    for name, unit in END_TO_END.items():
        print(f"  {name:<16} {metrics[name]:>12.4f} {unit}")
    m = info["measured"]
    print(f"  (times scaled to the reference speed; measured wall: setup "
          f"{m['setup_raw_s']:.4f} s, flow {m['flow_raw_s']:.4f} s; CPU incl. pool "
          f"workers: setup {m['setup_cpu_s']:.4f} s, flow {m['flow_cpu_s']:.4f} s)")
    print_failures(info)
    verdict = "PASS" if failed == 0 else "FAIL"
    print(f"  correctness: {verdict} ({failed} of {attempted} repetitions failed, "
          f"failed_frac {failed / attempted:.3f})")


def print_trace(workload, layers, info) -> None:
    wall = layers["trace.wall_s"]
    print(f"== {workload}: traced per-layer self time ==")
    rows = sorted(
        ((n, v) for n, v in layers.items()
         if n.endswith("_s") and n not in NOT_SELF_TIMES and v),
        key=lambda row: -row[1],
    )
    for name, value in rows:
        print(f"  {name:<26} {value:>9.3f} s {100.0 * value / wall:>6.1f}%")
    print(f"  {'traced wall':<26} {wall:>9.3f} s")
    for name in ("framework.global_total_s", "framework.local_total_s"):
        if layers[name]:
            print(f"  {name:<26} {layers[name]:>9.3f} s (inclusive)")
    counts = [(n, v) for n, v in layers.items() if layer_unit(n) in ("count", "ratio")]
    print("  counts: " + ", ".join(f"{n}={v:.4g}" for n, v in counts))
    print(f"  wrapper overhead: {layers['trace.overhead_pct']:+.2f}% of the untraced wall "
          f"(speed-scaled; measured {wall - layers['trace.untraced_wall_s']:+.3f} s)")
    print_failures(info)
    verdict = "PASS" if not info["problems"] else "FAIL"
    print(f"  reconciliation: {verdict}")


def result_line(correct, attempted, failed, metrics, unit) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit(name)} for name, v in metrics.items()},
    })


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> tuple:
    if traced:
        attempted, failed, metrics, info = trace(workload)
        print_trace(workload, metrics, info)
    else:
        attempted, failed, metrics, info = measure(workload, seconds)
        print_measure(workload, attempted, failed, metrics, info)
    stamp = record(workload, seed, info["reps"][0])
    print("record: " + json.dumps(stamp, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    kind = "trace" if traced else "e2e"
    (OUT / f"{kind}-{workload}-seed{seed}.json").write_text(json.dumps(
        {"record": stamp, "attempted": attempted, "failed": failed, "metrics": metrics,
         "measured": info.get("measured")},
        indent=1, sort_keys=True,
    ) + "\n")
    return attempted, failed, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    try:
        if args.workload != "all":
            attempted, failed, metrics = run_one(
                args.workload, args.seed, args.seconds, bool(args.trace)
            )
            unit = layer_unit if args.trace else END_TO_END.get
            print(result_line(failed == 0, attempted, failed, metrics, unit))
            return 0
        total_attempted = total_failed = 0
        combined = {}
        for workload in WORKLOADS:
            for traced in (False, True):
                attempted, failed, metrics = run_one(workload, args.seed, args.seconds, traced)
                total_attempted += attempted
                total_failed += failed
                if not traced:
                    combined.update({f"{workload}.{n}": v for n, v in metrics.items()})
        print(result_line(
            total_failed == 0, total_attempted, total_failed, combined,
            lambda name: END_TO_END[name.rsplit(".", 1)[1]],
        ))
        return 0
    except RepFailed as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
