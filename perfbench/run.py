#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``prodform`` command line.

Runs one workload in this process through ``prodform.cli.main(argv)``, one
call at a time (a closed loop with a single caller), each call writing its
report to a file that is then checked for a correct verdict::

    python3 perfbench/run.py --workload dense-cycle --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it times every call over repeated passes of the workload
and prints the end-to-end metrics. With ``--trace 1`` it alternates untraced
and traced passes and prints the per-layer metrics, the solve sweep and the
tracing overhead, and writes the recorded spans under ``.perfbench/``. Every metric is
printed as ``name = value unit``; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
1 when any verdict is wrong. See ``perfbench/README.md`` for the workloads and
what each metric should move.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from layertrace import Tracer
from workloads import COMMANDS, VERIFY_SEEDS, WORKLOADS, check, make_chains, sweep_chains, wants_fault

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Set-up runs this often before the first pass and again after every pass, so that
# its samples span the whole run rather than one moment of it.
SETUP_REPEATS = 2

END_TO_END = {"analyze_s": "s", "pass_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics read from the tracer, per traced pass. Times are kept only for
# functions that run on every workload; the others are reported as call counts.
LAYER_TIMES = (
    "cli.parse_document.s",
    "cli.document_to_chain.s",
    "product_form.cut_graph.s",
    "product_form.sourced_cut.s",
    "product_form.s_factors.s",
    "higher_level.higher_level_cut_graph.s",
    "graph_core.connectivity_witness.s",
    "factors.relation_to_json.s",
    "numeric.stationary.s",
    "numeric.random_rates.s",
    "cli.self_s",
    "product_form.self_s",
    "graph_core.self_s",
    "higher_level.self_s",
    "factors.self_s",
    "numeric.self_s",
)
LAYER_COUNTS = (
    "product_form.cut_graph.calls",
    "product_form.sourced_cut.calls",
    "product_form.s_factors.calls",
    "higher_level.higher_level_cut_graph.calls",
    "higher_level.sps_relation.calls",
    "graph_core.ancestors_avoiding.calls",
    "factors.relation_to_json.calls",
    "factors.evaluate.calls",
    "numeric.stationary.calls",
    "numeric.cut_equation_check.calls",
    "numeric.verify_relation.calls",
    "numeric.enumerate_sourced_cuts.calls",
)
PER_LAYER = (
    {name: "s" for name in LAYER_TIMES}
    | {name: "count" for name in LAYER_COUNTS}
    | {"numeric.solve_fail_ratio": "ratio", "numeric.worst_balance_residual": "ratio", "trace_overhead": "ratio"}
)


def _pin_threads() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _import_program():
    """Import ``prodform`` from this checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    # Drop any earlier import, so that every set-up pays for the program's own import.
    for name in [m for m in sys.modules if m == "prodform" or m.startswith("prodform.")]:
        del sys.modules[name]
    try:
        cli = importlib.import_module("prodform.cli")
    except ModuleNotFoundError as exc:
        raise SystemExit(f"cannot import prodform from {src}: {exc}") from None
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"prodform was imported from {cli.__file__}, not from {src}")
    return cli


_WARMUP_DOCUMENT = json.dumps(
    {
        "name": "warmup",
        "kind": "ctmc",
        "nodes": ["a", "b", "c"],
        "edges": [{"from": "a", "to": "b"}, {"from": "b", "to": "c"}, {"from": "c", "to": "a"}],
    }
)


class Run:
    """One workload's chains, written as documents, and the calls made on them."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.out = workdir / "report.json"
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def setup(self) -> float:
        """Import, generate the chains, write the documents and make one warm-up call."""
        start = perf_counter()
        self.cli = _import_program()
        self.chains = make_chains(self.workload, self.seed)
        self.paths = []
        for k, chain in enumerate(self.chains):
            path = self.workdir / f"chain{k}.json"
            path.write_text(chain.document, encoding="utf-8")
            self.paths.append(str(path))
        warm = self.workdir / "warmup.json"
        warm.write_text(_WARMUP_DOCUMENT, encoding="utf-8")
        # The first solve in a process pays for the lazy BLAS start-up.
        self.call(["verify", str(warm), "--seeds", "1"])
        return perf_counter() - start

    def call(self, argv: list[str]) -> tuple[int, str | None, float]:
        """One command, its report going to a fresh file: (exit code, report text, seconds)."""
        self.out.unlink(missing_ok=True)
        with contextlib.redirect_stderr(io.StringIO()):
            start = perf_counter()
            try:
                rc = self.cli.main([*argv, "--out", str(self.out)])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            seconds = perf_counter() - start
        text = self.out.read_text(encoding="utf-8") if self.out.exists() else None
        return rc, text, seconds

    def one_pass(self) -> dict[tuple[int, str], float]:
        """Every command on every chain; returns each call's time, keyed by (chain index, command kind).

        A pass makes the same calls every time: whether a chain gets a fault control
        is known from its ``analyze`` report, which comes first.
        """
        times: dict[tuple[int, str], float] = {}
        for k, (chain, path) in enumerate(zip(self.chains, self.paths)):
            for kind, argv in COMMANDS[self.workload]:
                if kind == "fault" and not wants_fault(chain):
                    continue
                rc, text, seconds = self.call([argv[0], path, *argv[1:]])
                times[k, kind] = seconds
                self.attempted += 1
                outcome = check(chain, kind, rc, text)
                if outcome.failed:
                    self.failed += 1
                if outcome.wrong is not None:
                    self.wrong.append(f"{chain.name} {kind}: {outcome.wrong}")
        return times


# ---- solve sweep ----


def _balance_residual(pi, rates) -> float:
    """Worst relative gap between a node's outflow and inflow, as ``stationary`` checks it."""
    import numpy as np

    out_flow = np.zeros(len(pi))
    in_flow = np.zeros(len(pi))
    for (u, v), q in rates.values.items():
        out_flow[u] += pi[u] * q
        in_flow[v] += pi[u] * q
    return float((np.abs(out_flow - in_flow) / (out_flow + in_flow)).max())


def solve_sweep(chains: list, parsed: list) -> dict:
    """Solve every chain under every verify seed, not stopping at a failure.

    A failed solve's residual is read from its error message (0 when the message
    gives none, as for non-positive entries).
    """
    numeric = importlib.import_module("prodform.numeric")
    errors = importlib.import_module("prodform.errors")
    solves = fails = 0
    worst = (0.0, "", -1)
    for chain, c in zip(chains, parsed):
        for seed in range(VERIFY_SEEDS):
            rates = numeric.random_rates(c, seed)
            solves += 1
            try:
                pi = numeric.stationary(c, rates)
            except errors.NumericError as exc:
                fails += 1
                found = re.search(r"balance residual (\S+) exceeds", str(exc))
                residual = float(found.group(1)) if found else 0.0
            else:
                residual = _balance_residual(pi.pi, rates)
            if residual > worst[0]:
                worst = (residual, chain.name, seed)
    return {"solves": solves, "fails": fails, "worst": worst}


# ---- measurement ----


def _room_for_another(start: float, seconds: float, took: float) -> bool:
    """Whether a repeat of the step that just took ``took`` seconds still ends within ``seconds``."""
    return perf_counter() - start + took <= seconds


def _setup_again(run: Run) -> float:
    """Set up a throwaway copy of the run, for one more set-up time sample."""
    probe = run.workdir / "probe"
    probe.mkdir(exist_ok=True)
    return Run(run.workload, run.seed, probe).setup()


def _upper(values: list[float]) -> float:
    """The third quartile of a run's samples of one timing.

    On a shared host the process runs in fast bursts while neighbouring tenants
    idle, and slow spells while they are busy; how much of a run either covers
    swings from minute to minute. The third quartile stays put while fast bursts
    cover less than three quarters of the run and slow spells less than a quarter.
    """
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def pass_time(passes: list[dict[tuple[int, str], float]], kinds: tuple[str, ...] | None = None) -> float:
    """Time of one pass, as the sum over its calls of each call's third-quartile time.

    Only calls of the given command kinds count (all calls when ``kinds`` is None).
    """
    calls = [key for key in passes[0] if kinds is None or key[1] in kinds]
    return sum(_upper([p[key] for p in passes]) for key in calls)


def measure(run: Run, seconds: float, setups: list[float]) -> dict[str, float]:
    passes = []
    start = perf_counter()
    while True:
        began = perf_counter()
        passes.append(run.one_pass())
        setups.extend(_setup_again(run) for _ in range(SETUP_REPEATS))
        if not _room_for_another(start, seconds, perf_counter() - began):
            break
    return {
        "analyze_s": pass_time(passes, ("analyze",)),
        "pass_s": pass_time(passes),
        "setup_s": _upper(setups),
        "passes": len(passes),
        "median_pass_s": statistics.median(sum(p.values()) for p in passes),
    }


def measure_traced(run: Run, seconds: float, trace_path: Path) -> tuple[dict[str, float], dict]:
    cli = run.cli
    swept = sweep_chains(run.workload, run.seed)
    parsed = [cli.document_to_chain(cli.parse_document(chain.document))[0] for chain in swept]
    tracer = Tracer()
    # Chain generation is the part of set-up that runs program code (the models layer).
    tracer.install()
    try:
        make_chains(run.workload, run.seed)
    finally:
        tracer.uninstall()
    generation = tracer.snapshot()
    plain: list[float] = []
    traced: list[float] = []
    deltas: list[dict[str, float]] = []
    sweep: dict = {}
    start = perf_counter()
    while True:
        began = perf_counter()
        plain.append(sum(run.one_pass().values()))
        tracer.install()
        try:
            before = tracer.snapshot()
            traced.append(sum(run.one_pass().values()))
            sweep = solve_sweep(swept, parsed)
            after = tracer.snapshot()
        finally:
            tracer.uninstall()
        deltas.append({k: after[k] - before[k] for k in after})
        # Spans of the first traced pass are enough to see where a call spends its time.
        tracer.record_spans = False
        if not _room_for_another(start, seconds, perf_counter() - began):
            break
    metrics: dict[str, float] = {}
    for name in LAYER_TIMES + LAYER_COUNTS:
        values = [d[name] for d in deltas if name in d]
        # median_low keeps a count a whole number.
        metrics[name] = (statistics.median if name in LAYER_TIMES else statistics.median_low)(values or [0])
    metrics["numeric.solve_fail_ratio"] = sweep["fails"] / sweep["solves"]
    metrics["numeric.worst_balance_residual"] = sweep["worst"][0]
    metrics["trace_overhead"] = statistics.median(traced) / statistics.median(plain)
    absent = [name for name in LAYER_TIMES + LAYER_COUNTS if name not in deltas[0]]
    levels = hyperedges = 0
    for chain in run.chains:
        report = json.loads(chain.reports["analyze"])
        levels += len(report["levels"])
        hyperedges += sum(len(level["hyperedges"]) for level in report["levels"])
    extra = {
        "generation": {k: generation[k] for k in ("models.generate.calls", "models.generate.s") if k in generation},
        "passes": len(traced),
        "absent": absent,
        "higher_level.levels": levels,
        "higher_level.hyperedges": hyperedges,
        "sweep": sweep,
    }
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    dump = tracer.dump()
    dump.update(
        workload=run.workload,
        seed=run.seed,
        generation=generation,
        passes=len(traced),
        per_pass=deltas,
        environment=_environment(),
    )
    trace_path.write_text(json.dumps(dump), encoding="utf-8")
    return metrics, extra


def _environment() -> dict:
    import numpy as np

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def main(argv: list[str] | None = None) -> int:
    _pin_threads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import numpy  # noqa: F401  (imported before timing so set-up measures only the program)

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=SCRATCH))
    try:
        run = Run(args.workload, args.seed, workdir)
        setups = [run.setup() for _ in range(SETUP_REPEATS)]
        env = _environment()
        print(
            f"# workload={args.workload} seed={args.seed} trace={args.trace} "
            f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']} blas_threads=1"
        )
        if args.trace:
            trace_path = SCRATCH / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, extra = measure_traced(run, args.seconds, trace_path)
            units = PER_LAYER
            worst, chain, seed = extra["sweep"]["worst"]
            print(f"# traced passes={extra['passes']} trace written to {trace_path.relative_to(ROOT)}")
            print(f"# worst balance residual {worst:.3g} on {chain or '-'} with rate seed {seed}")
            print(f"# higher_level.levels = {extra['higher_level.levels']} count")
            print(f"# higher_level.hyperedges = {extra['higher_level.hyperedges']} count")
            for name, value in extra["generation"].items():
                print(f"# set-up {name} = {value:.6g} {'count' if name.endswith('calls') else 's'}")
            if extra["absent"]:
                print(f"# absent from the program: {', '.join(extra['absent'])}")
        else:
            timed = measure(run, args.seconds, setups)
            metrics = {
                "analyze_s": timed["analyze_s"],
                "pass_s": timed["pass_s"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": timed["setup_s"],
            }
            units = END_TO_END
            print(f"# passes={timed['passes']} median pass = {timed['median_pass_s']:.6g} s")
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
        print(f"# calls attempted={run.attempted} failed={run.failed} wrong verdicts={len(run.wrong)}")
        for line in run.wrong[:20]:
            print(f"wrong verdict: {line}", file=sys.stderr)
        result = {
            "correct": not run.wrong,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        print(json.dumps(result))
        return 0 if not run.wrong else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
