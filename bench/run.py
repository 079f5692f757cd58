"""gelbrisk benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {backtest,conic,risk_report,cli} \
        --seed N --seconds S --trace {0,1}
    python3 bench/run.py --self-check

A run repeats rounds of its workload, each round on inputs drawn from
``(seed, round index)``, for about ``--seconds`` of timed ops: it stops
before a round that would overrun, but always plays one.  Output checks
run after each round, outside the timed section.  With ``--trace 0`` the run
prints the end-to-end metrics; with ``--trace 1`` it alternates plain and
traced rounds on the same inputs and prints the per-layer metrics.  The
last line of standard output is the result object; the line before it
records the machine, the seed and the extra statistics.  See
``bench/README.md`` for what each number means.
"""

import os

# BLAS threads are pinned before NumPy loads, and the backtest's
# thread-pool switch is cleared so it runs sequentially.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GELBRICH_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
SETUP_PROBES = 7
SELF_CHECK_TIMEOUT_S = 170.0

# The machine this was tuned on is shared, and contention for its cores
# slowed everything in a process by up to 1.8x for seconds to minutes
# (CPU time moved with wall time).  Every timed op is therefore scaled by
# the machine's momentary speed: a fixed reference kernel is timed at the
# start of each round and after every REF_EVERY_S of timed work, and an
# op counts as raw * REF_NOMINAL_S / ref, with ref the median of the six
# samples around it (Round.rescale).  REF_NOMINAL_S is about the kernel's
# median time on the development machine (2 vCPUs of a 2.1 GHz Xeon), so
# scaled figures read as seconds on that machine.  The record line keeps
# the raw figures.
REF_NOMINAL_S = 0.004
REF_EVERY_S = 0.1

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


class OpFailed(Exception):
    """An op raised; the rest of its round depends on it and is skipped."""


def import_gelbrisk():
    """Import gelbrisk from this checkout's ``src`` and nowhere else."""
    package = SRC / "gelbrisk" / "__init__.py"
    if not package.is_file():
        sys.exit(f"bench: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import gelbrisk

    if Path(gelbrisk.__file__).resolve() != package.resolve():
        sys.exit(f"bench: imported gelbrisk from {gelbrisk.__file__}, not from {SRC}")
    return gelbrisk


class SpeedProbe:
    """Times a fixed mix of interpreter loops and small LAPACK calls.

    The mix (integer and float loops, 200 3x3 and 20 24x24 ``eigh``) was
    picked from candidates by how closely it followed a backtest cell and
    a conic solve through the machine's speed swings; dict updates and
    length-8 array arithmetic swung more than either and were left out.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        small = rng.standard_normal((3, 3))
        large = rng.standard_normal((24, 24))
        self._eigh = np.linalg.eigh
        self._small = small + small.T
        self._large = large + large.T

    def _kernel(self) -> None:
        acc = 0
        for i in range(3000):
            acc += i * i % 7
        x = 1.7
        for _ in range(2000):
            x -= 0.5 * (x * x * x - 2.0 * x - 5.0) / (3.0 * x * x - 2.0)
        for _ in range(200):
            self._eigh(self._small)
        for _ in range(20):
            self._eigh(self._large)

    def sample(self) -> float:
        """Median of five timed runs of the kernel, in seconds."""
        times = []
        for _ in range(5):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


class Round:
    """Times one round's ops and queues their outputs for checking."""

    def __init__(self, tracer, first_op: int, probe: SpeedProbe) -> None:
        self.tracer = tracer
        self.next_op = first_op
        self.probe = probe
        self.latencies: list[tuple[str, float]] = []
        self.scaled: list[float] = []
        self.items = 0
        self.attempted = 0
        self.pending: list[tuple] = []
        self.failures: list[str] = []
        self.refs = [probe.sample()]
        self._bounds: list[int] = []  # op count at each later reference sample
        self._since_ref = 0.0

    def issue(self, name, call, check, items=1):
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.op = self.next_op
            span = tracer.open("op." + name)
        self.next_op += 1
        start = time.perf_counter()
        try:
            out = call()
        except Exception:
            self.failures.append(f"{name}: raised\n{traceback.format_exc()}")
            raise OpFailed(name) from None
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.close(span)
        self.latencies.append((name, elapsed))
        self.items += items
        self.pending.append((name, check, out))
        self._since_ref += elapsed
        if self._since_ref >= REF_EVERY_S:
            self.sample_speed()
        return out

    def sample_speed(self) -> None:
        if len(self.latencies) > (self._bounds[-1] if self._bounds else 0):
            self.refs.append(self.probe.sample())
            self._bounds.append(len(self.latencies))
            self._since_ref = 0.0

    def rescale(self) -> None:
        """Scale each op by the median of the six reference samples around it.

        Ops between samples ``g`` and ``g + 1`` use samples ``g - 2 .. g + 3``:
        one sample is too noisy for a single op, and the speed drifts over
        seconds, not within a few samples.
        """
        self.sample_speed()
        self.scaled = []
        start = 0
        for g, end in enumerate(self._bounds):
            ref = statistics.median(self.refs[max(0, g - 2) : g + 4])
            self.scaled.extend(t * REF_NOMINAL_S / ref for _, t in self.latencies[start:end])
            start = end

    @property
    def wall(self) -> float:
        return sum(t for _, t in self.latencies)

    @property
    def scaled_wall(self) -> float:
        return sum(self.scaled)

    def check(self) -> None:
        for name, check, out in self.pending:
            try:
                reason = check(out)
            except Exception:
                reason = "check raised\n" + traceback.format_exc()
            if reason is not None:
                self.failures.append(f"{name}: {reason}")
        self.pending.clear()


def play(workload, inputs, tracer, first_op: int, probe: SpeedProbe) -> Round:
    rnd = Round(tracer, first_op, probe)
    if tracer is not None:
        tracer.install()
    try:
        workload.ops(inputs, rnd.issue)
    except OpFailed:
        pass
    finally:
        if tracer is not None:
            tracer.uninstall()
    rnd.rescale()
    rnd.check()
    for failure in rnd.failures:
        print(f"bench: {workload.name}: {failure}", file=sys.stderr)
    return rnd


def measure(workload, seconds: float, traced: bool):
    """Play rounds until ``seconds`` of timed ops; with tracing, plain/traced pairs."""
    from spans import Tracer

    tracer = Tracer() if traced else None
    probe = SpeedProbe()
    plain: list[Round] = []
    paired: list[Round] = []
    cli_samples: dict[str, list] = {}
    spent = 0.0
    k = 0
    # Stop before a round that would overrun the budget, so a run lasts
    # about ``seconds`` whatever its round length; there is always one round.
    while k == 0 or spent + spent / k <= seconds:
        inputs = workload.inputs(k)
        if k == 0 and hasattr(workload, "warm_up"):
            workload.warm_up(inputs)
        rnd = play(workload, inputs, None, 0, probe)
        plain.append(rnd)
        spent += rnd.wall
        if tracer is not None:
            rnd = play(workload, inputs, tracer, len(tracer.spans), probe)
            paired.append(rnd)
            spent += rnd.wall
            if hasattr(workload, "interpreter_samples"):
                for name, elapsed in rnd.latencies:
                    cli_samples.setdefault(f"{name}.ms", []).append(1e3 * elapsed)
                for key, value in workload.interpreter_samples().items():
                    cli_samples.setdefault(key, []).append(value)
        k += 1
    return plain, paired, tracer, cli_samples


def setup_seconds(workload: str, seed: int, probes: int, tiny: bool) -> tuple[list, list]:
    """Spawn-to-ready time of fresh processes that import gelbrisk and make round-0 inputs.

    Returns the raw samples and the samples scaled by the machine's speed.
    """
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-probe"] + (["--tiny"] if tiny else [])
    speed = SpeedProbe()
    samples = []
    scaled = []
    for _ in range(probes):
        before = speed.sample()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            sys.exit(f"bench: setup probe for {workload} failed (exit code {code})")
        scaled.append(samples[-1] * REF_NOMINAL_S / (0.5 * (before + speed.sample())))
    return samples, scaled


def environment(seed: int, gelbrisk) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # NumPy < 1.25 has no dict mode
        blas = {}
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "GELBRICH_THREADS": os.environ.get("GELBRICH_THREADS"),
        "gelbrisk": gelbrisk.__version__,
        "seed": seed,
    }


def timings(plain: list[Round], setup: list[float], latencies: list[float], wall: str) -> dict:
    """The timed end-to-end metrics, from raw or speed-scaled figures."""
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(getattr(r, wall) for r in plain),
        "items_per_s": statistics.median(r.items / getattr(r, wall) for r in plain),
        "op_ms_p50": 1e3 * statistics.median(latencies),
    }


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run(args) -> int:
    gelbrisk = import_gelbrisk()
    from spans import per_layer
    from workloads import WORKLOADS

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        if args.setup_probe:
            workload.inputs(0)
            print("ready", flush=True)
            return 0
        setup, setup_scaled = ([], []) if args.trace else setup_seconds(
            args.workload, args.seed, 1 if args.tiny else SETUP_PROBES, args.tiny
        )
        cpu0 = os.times()
        plain, paired, tracer, cli_samples = measure(workload, args.seconds, bool(args.trace))
        cpu1 = os.times()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = plain + paired
    attempted = sum(r.attempted for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    op_ms = [1e3 * t for r in plain for t in r.scaled]
    names = [n for r in plain for n, _ in r.latencies]
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed, gelbrisk),
        "rounds": len(plain),
        "ops": len(op_ms),
        "items": sum(r.items for r in plain),
        "fail_rate": failed / max(attempted, 1),
        "op_ms_p90": quantile(op_ms, 0.9) if op_ms else None,
        "ops_beyond_p90": len(op_ms) - 1 - int(0.9 * len(op_ms)) if op_ms else 0,
        "op_ms_by_name": {
            name: statistics.median(t for n, t in zip(names, op_ms) if n == name)
            for name in dict.fromkeys(names)
        },
        "setup_samples_s": setup,
    }
    if args.trace:
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
        overhead = sum(r.scaled_wall for r in paired) / sum(r.scaled_wall for r in plain)
        cpu_s = sum(cpu1[:4]) - sum(cpu0[:4])
        if hasattr(workload, "exit_codes"):
            cli_samples["nonzero_exit"] = sum(1 for code in workload.exit_codes if code != 0)
        metrics = per_layer(tracer, len(paired), cli_samples, cpu_s, overhead)
    else:
        rss_mb = getattr(workload, "peak_rss_mb", None)
        if rss_mb is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        raw = timings(plain, setup, [t for r in plain for _, t in r.latencies], "wall")
        record["raw"] = raw
        record["ref_ms_median"] = 1e3 * statistics.median(x for r in plain for x in r.refs)
        record["speed_factor"] = statistics.median(
            s / t for r in plain for s, (_, t) in zip(r.scaled, r.latencies) if t > 0
        )
        values = timings(plain, setup_scaled, [t for r in plain for t in r.scaled], "scaled_wall")
        values["peak_rss_mb"] = rss_mb
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def self_check() -> int:
    """Run every workload at minimal size, plain and traced; fail on any gap."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
                    "--seconds", "0", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=SELF_CHECK_TIMEOUT_S)
            label = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{label}: metrics {sorted(got.items())} != {sorted(expected[trace].items())}")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} ops failed")
            print(f"self-check {label}: {result['attempted']} ops, {result['failed']} failed", flush=True)
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    print("self-check: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("backtest", "conic", "risk_report", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="tiny run of every workload")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.self_check:
        import_gelbrisk()
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
