"""zecap benchmark: one workload per run, checked outputs, named metrics.

Run from the repository root:

    python3 perfbench/run.py --workload alpha_exact --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py):

* cli_analyze  - a fresh `python -m zecap.cli analyze` process per operation;
* alpha_exact  - strong products and random graphs through independence_number;
* theta_sdp    - lovasz_theta at the defaults capacity_bounds uses;
* code_certify - build_code -> build_decoder -> verify_zero_error.

Load is one closed loop in this process: one operation at a time, the next
only after the previous one has been checked.  A run sets up (timed in fresh
processes), makes one unmeasured warm-up pass over the corpus (none for
cli_analyze, whose operations are fresh processes), then makes passes until
``--seconds`` have elapsed, each pass with freshly labelled inputs.  The
run and its children stay on one core, and after each operation a fixed
reference computation is timed there; the gated pass time, ``wall_ref``, is
in units of that reference, so the shared host's changes of speed cancel.

With ``--trace 0`` the metrics are end to end; with ``--trace 1`` the run
alternates untraced and traced passes and reports per-layer metrics from the
traced ones.  The last line of stdout is the JSON result; the lines before
it are a readable table and the machine facts.  The exit code is 1 if any
output was wrong, 2 if the repository's sources are not found.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Callable

DEFAULT_SEED = 1
# One BLAS thread for this process and its children: the load is one
# operation at a time on a 2-core machine, and a second BLAS thread competes
# with whatever runs on the other core (see README.md).
BLAS_THREADS = "1"
SETUP_REPS = 5
IMPORTTIME_REPS = 3
MIN_PASSES = 2  # cli_analyze compares each spec's report with its first one
# After each operation the reference computation runs for this share of the
# operation's time: enough samples that their mean follows the host's speed.
REFERENCE_SHARE = 0.1

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("cli_analyze", "alpha_exact", "theta_sdp", "code_certify")


# The reference computation each workload is measured against: the kind of
# work its operations spend their time on.  A CLI operation is mostly a new
# interpreter importing compiled packages; the clique search runs Python
# bytecode; theta and the Kronecker path of verify run LAPACK and BLAS.
REFERENCE_KIND = {
    "cli_analyze": "process",
    "alpha_exact": "python",
    "theta_sdp": "lapack",
    "code_certify": "lapack",
}


def make_reference(kind: str, env: dict) -> Callable[[float], list[float]]:
    """Return ``reference(budget)``, which times a fixed computation.

    ``reference`` repeats the computation until ``budget`` seconds have gone
    (at least once) and returns the time of each repetition.  It runs after
    every operation, on the same core, so that a stretch in which the shared
    host runs this core slower slows both (see README.md).  The computations
    take about 4 ms, or 160 ms for "process".
    """
    import numpy as np

    a = np.random.default_rng(0).standard_normal((96, 96))
    a = a + a.T

    def process() -> None:
        subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True)

    def python() -> None:
        x = 0
        for i in range(20000):
            x ^= (i * 2654435761) & 0xFFFFFFFF
            x += (x >> 3).bit_count()

    def lapack() -> None:
        for _ in range(4):
            np.linalg.eigh(a)

    work = {"process": process, "python": python, "lapack": lapack}[kind]

    def reference(budget: float) -> list[float]:
        times: list[float] = []
        while not times or sum(times) < budget:
            t0 = time.perf_counter()
            work()
            times.append(time.perf_counter() - t0)
        return times

    return reference


def median_time(cmd: list[str], env: dict, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_times(env: dict) -> dict[str, float]:
    """Median over fresh processes of `-X importtime` figures, in seconds.

    total is the cumulative time of `import zecap`; numpy and scipy are the
    cumulative times of their outermost imports, which is what dropping the
    package would save.  The numpy submodules scipy pulls in count for scipy.
    """
    runs = []
    for _ in range(IMPORTTIME_REPS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import zecap"],
            env=env, check=True, capture_output=True, text=True,
        )
        sums = {"total": 0.0, "numpy": 0.0, "scipy": 0.0}
        ancestors: list[str] = []
        # A module's line comes after the lines of the imports it caused, one
        # indent level deeper, so walking backwards meets parents first.
        for line in reversed(proc.stderr.splitlines()):
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            try:
                cum_us = int(parts[1])
            except ValueError:
                continue  # the header line
            depth = (len(parts[2]) - len(parts[2].lstrip()) - 1) // 2
            top = parts[2].strip().split(".")[0]
            ancestors = ancestors[:depth]
            if parts[2].strip() == "zecap":
                sums["total"] = cum_us / 1e6
            elif top in ("numpy", "scipy") and not {"numpy", "scipy"} & set(ancestors):
                sums[top] += cum_us / 1e6
            ancestors.append(top)
        runs.append(sums)
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def blas_facts() -> dict:
    import numpy

    facts = {"blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")}
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is None:
                    continue
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if cfg is not None:
                    cfg.restype = ctypes.c_char_p
                    facts["blas_config"] = cfg().decode()
                return facts
    facts["blas_threads"] = None
    return facts


def source_facts() -> dict:
    """Git commit when the checkout is a repository, and a digest of src/zecap."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "zecap", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return {"git_commit": commit, "src_sha256": h.hexdigest()[:16]}


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **blas_facts(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        **source_facts(),
        "default_seed": DEFAULT_SEED,
        "child_env_unset": ["ZECAP_SEED", "ZECAP_THREADS"],
    }


class Runner:
    """Runs passes over a workload and counts what failed."""

    def __init__(self, make_cases, seed: int, tracer, in_process: bool):
        self.make_cases = make_cases
        self.seed = seed
        self.tracer = tracer
        self.in_process = in_process
        self.attempted = 0
        self.failed = 0
        self.not_converged = 0
        self.wrong: list[str] = []

    def one_pass(
        self, k: int, traced: bool, reference: Callable[[float], list[float]] | None = None
    ) -> tuple[float, list[float], list[float]]:
        """Run and check pass k; return its wall time, operation times and reference times.

        ``reference`` runs after each operation, outside the pass's wall time.
        """
        import workloads
        import zecap

        cases = self.make_cases(self.seed, k)
        tracer = self.tracer if traced else None
        install = tracer is not None and self.in_process
        op_times = []
        ref_times = []
        if install:
            tracer.install()
        t_pass = time.perf_counter()
        try:
            for case in cases:
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    res = case.run(tracer)
                    op_times.append(time.perf_counter() - t0)
                    case.check(res)
                except (zecap.NotConvergedError, workloads.Unconverged):
                    op_times.append(time.perf_counter() - t0)
                    self.failed += 1
                    self.not_converged += 1
                except workloads.WrongAnswer as exc:
                    self.failed += 1
                    self.wrong.append(str(exc))
                except Exception as exc:  # any other error is a wrong answer too
                    self.failed += 1
                    self.wrong.append(f"{case.label}: {exc!r}")
                if reference is not None:
                    ref_times += reference(REFERENCE_SHARE * (time.perf_counter() - t0))
            wall = time.perf_counter() - t_pass - sum(ref_times)
        finally:
            if install:
                tracer.uninstall()
        return wall, op_times, ref_times


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile with ten samples beyond it."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def layer_metrics(spans: list, walls: list[float], untraced: list[float], imports: dict) -> dict:
    import tracing

    agg = tracing.aggregate(spans)
    p = len(walls)

    def get(layer, key="self_s", per_pass=True):
        v = agg.get(layer, {}).get(key, 0)
        return v / p if per_pass else v

    def rate(layer, key):
        n = agg.get(layer, {}).get(key, 0)
        return agg[layer]["total_s"] / n * 1e6 if n else 0.0

    top_level = sum(t1 - t0 for _, t0, t1, parent, _ in spans if parent < 0)
    return {
        "import.total_s": (imports["total"], "s"),
        "import.scipy_s": (imports["scipy"], "s"),
        "import.numpy_s": (imports["numpy"], "s"),
        "import.op_s": (get("import"), "s"),
        "cli.self_s": (get("cli"), "s"),
        "formats.parse_s": (get("formats.parse"), "s"),
        "formats.report_s": (get("formats.report"), "s"),
        "formats.report_bytes": (get("formats.report", "report_bytes"), "bytes"),
        "search.calls": (get("search", "calls"), "count"),
        "search.s": (get("search"), "s"),
        "search.proposals": (get("search", "proposals"), "count"),
        "search.us_per_proposal": (rate("search", "proposals"), "us"),
        "search.pair_count": (get("search", "pair_count"), "count"),
        "confusability.s": (get("confusability"), "s"),
        "confusability.fragile": (get("confusability", "fragile"), "count"),
        "quantum.outcome_probabilities.calls": (get("quantum.outcome_probabilities", "calls"), "count"),
        "quantum.outcome_probabilities.s": (get("quantum.outcome_probabilities"), "s"),
        "graphs.strong_power.s": (get("graphs.strong_power"), "s"),
        "graphs.alpha.calls": (get("graphs.alpha", "calls"), "count"),
        "graphs.alpha.s": (get("graphs.alpha"), "s"),
        "graphs.alpha.vertices_max": (get("graphs.alpha", "vertices_max", False), "count"),
        "theta.calls": (get("theta", "calls"), "count"),
        "theta.s": (get("theta"), "s"),
        "theta.iterations": (get("theta", "iterations"), "count"),
        "theta.us_per_iteration": (rate("theta", "iterations"), "us"),
        "theta.not_converged": (get("theta", "not_converged"), "count"),
        "theta.gap_max": (get("theta", "gap_max", False), "1"),
        "capacity.self_s": (get("capacity"), "s"),
        "blockcode.build_code.s": (get("blockcode.build_code"), "s"),
        "blockcode.build_decoder.s": (get("blockcode.build_decoder"), "s"),
        "blockcode.decoder_words": (get("blockcode.build_decoder", "decoder_words"), "count"),
        "blockcode.verify.s": (get("blockcode.verify"), "s"),
        "blockcode.verify.tensor_checked": (get("blockcode.verify", "tensor_checked"), "count"),
        "blockcode.verify.tensor_flops_computed": (
            get("blockcode.verify", "tensor_flops_computed"), "flop"),
        # Per-pass means, so that the layers' self times plus the
        # unattributed time add up to trace.wall_s.
        "trace.wall_s": (sum(walls) / p, "s"),
        "trace.unattributed_s": ((sum(walls) - top_level) / p, "s"),
        "trace.overhead_frac": (statistics.mean(walls) / statistics.mean(untraced) - 1.0, "ratio"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "zecap", "__init__.py")):
        print(f"error: {SRC}/zecap not found; run from the repository root", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, SRC)
    import tracing
    import workloads

    env = workloads.child_env(SRC)
    facts = machine_facts()
    # This process and its children run on one core, the one the reference
    # computation is timed on: the cores of a shared host slow down apart.
    facts["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {facts["pinned_cpu"]})
    name = args.workload

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as work:
        if name == "cli_analyze":
            cli = workloads.CliAnalyze(SRC, work, os.path.join(HERE, "cli_child.py"))
            make_cases = cli.cases
            setup_cmd = [sys.executable, "-c", "import zecap"]
        else:
            make_cases = workloads.WORKLOADS[name]
            setup_cmd = [sys.executable, os.path.join(HERE, "workloads.py"), name, str(args.seed)]

        # A second seed must give a different corpus of the same sizes.
        a = [make_cases(args.seed, k) for k in range(3)]
        b = [make_cases(args.seed + 1, k) for k in range(3)]
        sizes = lambda corpus: [sorted(repr(c.size) for c in p) for p in corpus]  # noqa: E731
        keys = lambda corpus: [[c.key for c in p] for p in corpus]  # noqa: E731
        corpus_ok = sizes(a) == sizes(b) and keys(a) != keys(b)

        if args.trace:
            imports = import_times(env)
        else:
            setup_s = median_time(setup_cmd, env, SETUP_REPS)

        tracer = tracing.Tracer() if args.trace else None
        runner = Runner(make_cases, args.seed, tracer, name != "cli_analyze")
        reference = make_reference(REFERENCE_KIND[name], env)
        reference(0.0)
        if name != "cli_analyze":
            runner.one_pass(0, False)  # warm-up: lazy imports, BLAS threads, caches

        # A traced pass reruns the inputs of the untraced pass before it, so
        # that the two differ only by the tracing.
        walls: list[float] = []
        refs: list[list[float]] = []
        traced_walls: list[float] = []
        ops: list[float] = []
        deadline = time.perf_counter() + args.seconds
        k = 1
        while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
            wall, op_times, ref_times = runner.one_pass(k, False, reference)
            walls.append(wall)
            refs.append(ref_times)
            ops.extend(op_times)
            if args.trace:
                traced_walls.append(runner.one_pass(k, True)[0])
            k += 1

    if name == "cli_analyze":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if not corpus_ok:
        runner.wrong.append("seed and seed+1 did not give different corpora of the same sizes")
    correct = not runner.wrong

    if args.trace:
        metrics = layer_metrics(tracer.spans, traced_walls, walls, imports)
        table = dict(metrics)
    else:
        tail_value, tail_pct, n_ops = tail(ops)
        ref_times = [r for per_pass in refs for r in per_pass]
        metrics = {
            "setup_s": (setup_s, "s"),
            # The mean pass time over the mean reference time of the whole
            # run: the host's slowdowns, which last seconds to minutes, slow
            # both alike, so the ratio keeps what the program costs.
            "wall_ref": (statistics.mean(walls) / statistics.mean(ref_times), "ref"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
        # Printed, not gated: see README.md.
        table = dict(metrics)
        table["wall_s"] = (statistics.mean(walls), "s")
        table["reference_s"] = (statistics.mean(ref_times), "s")
        table["op_p50_s"] = (statistics.median(ops), "s")
        table["op_tail_s"] = (tail_value, f"s (p{tail_pct:.1f} of {n_ops} ops)")
        table["failed_frac"] = (runner.failed / runner.attempted, "ratio")
        table["passes"] = (len(walls), "count")

    print(f"workload {name}  seed {args.seed}  trace {args.trace}  "
          f"attempted {runner.attempted}  failed {runner.failed} "
          f"(not converged {runner.not_converged}, wrong {len(runner.wrong)})")
    for key, (value, unit) in table.items():
        print(f"  {key:<40} {value:>14.6g} {unit}")
    print("  pass walls (s): " + " ".join(f"{w:.3f}" for w in walls))
    print("  pass refs (ms): " + " ".join(f"{1e3 * statistics.mean(r):.3f}" for r in refs))
    for msg in runner.wrong[:20]:
        print(f"  WRONG: {msg}")
    print("facts: " + json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
