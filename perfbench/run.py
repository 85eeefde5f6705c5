"""Planner benchmark: one workload per process, single-threaded.

    python3 perfbench/run.py --workload dp-1d --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout and imports the planners from its
``src``.  The run generates the workload's round of operations from the
seed, measures set-up, repeats whole rounds for about ``--seconds``
seconds, checks every plan with the benchmark's own code and prints one
JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` each operation
is also replayed stage by stage and the metrics are the per-layer ones.
Per-configuration details go to standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description="latticeswap planner benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help="set up, run the warm-up operation and exit")
    return p.parse_args(argv)


def import_program():
    """Put the checkout's sources first on the path, or stop."""
    if not (SRC / "latticeswap" / "__init__.py").is_file():
        sys.exit(f"perfbench: no latticeswap sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import latticeswap

    if not Path(latticeswap.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported latticeswap from {latticeswap.__file__}, not from {SRC}")


def run_op(op):
    """One timed operation: plan, price, validate."""
    from latticeswap import CostParams, evaluate_cost, simulate
    import workloads

    t0 = perf_counter()
    plan = workloads.plan(op)
    report = evaluate_cost(plan, op.arrangement.lattice, CostParams(op.cp, op.ct))
    valid = simulate(plan, op.arrangement, op.k).valid
    return plan, report, valid, perf_counter() - t0


def measure_setup(args) -> float:
    """Median wall time of fresh processes that import, generate and warm up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Run:
    """Operation outcomes and check results of one run."""

    def __init__(self, ops, trace: bool):
        import checks
        import stages

        self.ops = ops
        self.refs = {}
        for op in ops:
            if op.instance not in self.refs:
                self.refs[op.instance] = checks.reference(op.arrangement.placement, op.arrangement.lattice.dims)
        self.trace = stages.Tracer() if trace else None
        self.times: list[float] = []
        self.traced_times: list[float] = []
        self.travel_ratios: list[float] = []
        self.cost_ratios: list[float] = []
        self.travel: dict[tuple, float] = {}  # (instance, algo, k) -> travel, first round
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.counted_ops = 0  # operations whose Lattice.distance calls were counted

    def error(self, op, text: str) -> None:
        self.errors.append(f"{op.label} instance {op.instance}: {text}")

    def round(self, first: bool) -> None:
        import checks
        import stages

        for op in self.ops:
            self.attempted += 1
            try:
                plan, report, valid, dt = run_op(op)
            except Exception:
                self.failed += 1
                traceback.print_exc()
                continue
            self.times.append(dt)
            for text in checks.check_plan(op, plan, report, valid):
                self.error(op, text)
            ref_swaps, ref_travel = self.refs[op.instance]
            self.travel_ratios.append(report.travel / ref_travel if ref_travel else 1.0)
            ref_cost = op.cp * ref_swaps + op.ct * ref_travel
            self.cost_ratios.append(report.total / ref_cost if ref_cost else 1.0)
            if first:
                self.travel[(op.instance, op.algo, op.k)] = report.travel
            if self.trace is not None:
                t0 = perf_counter()
                replayed, _, _ = stages.traced_op(self.trace, op)
                self.traced_times.append(perf_counter() - t0)
                if (replayed.actions, replayed.buffer_of, replayed.fallback) != (
                    plan.actions, plan.buffer_of, plan.fallback
                ):
                    self.error(op, "stage-wise replay differs from the one-call plan")
                if first:
                    self.trace.count["lattice.distance"] += stages.count_distance_calls(op)
                    self.counted_ops += 1


def check_properties(run: Run) -> None:
    """Orderings the methods must respect on each instance of the round."""
    from latticeswap import plan_cycle_switching
    import checks

    t = run.travel
    tol = checks.TRAVEL_RTOL
    for op in run.ops:
        key = (op.instance, op.algo, op.k)
        if key not in t:
            continue
        if op.algo == "exact":
            switch = checks.tour_length(
                op.arrangement.lattice.dims, [a.cell for a in plan_cycle_switching(op.arrangement).actions]
            )
            if t[key] > switch * (1 + tol):
                run.error(op, f"exact travel {t[key]} exceeds switch travel {switch}")
        elif op.algo == "opt":
            prev = (op.instance, "exact", 1) if op.k == 2 else (op.instance, "opt", op.k - 1)
            if prev in t and t[key] > t[prev] * (1 + tol):
                run.error(op, f"travel {t[key]} exceeds {prev[1]} k={prev[2]} travel {t[prev]}")


def paper_ratios(run: Run) -> dict[str, float]:
    """Mean travel of each dp configuration over the one-buffer greedy
    baseline of the paper (switch in 1D, 2d-greedy in 2D)."""
    from latticeswap import plan_cycle_switching, plan_single_buffer_2d
    import checks

    base = {}
    groups: dict[str, list[float]] = {}
    for op in run.ops:
        if op.algo != "dp" or (op.instance, "dp", op.k) not in run.travel:
            continue
        if op.instance not in base:
            arr = op.arrangement
            planner = plan_cycle_switching if arr.lattice.ndim == 1 else plan_single_buffer_2d
            base[op.instance] = checks.tour_length(arr.lattice.dims, [a.cell for a in planner(arr).actions])
        groups.setdefault(op.label, []).append(run.travel[(op.instance, "dp", op.k)] / base[op.instance])
    return {label: statistics.fmean(r) for label, r in groups.items()}


def report_details(run: Run) -> None:
    """Per-configuration medians and ratios, to standard error."""
    by_label: dict[str, list[int]] = {}
    for i, op in enumerate(run.ops):
        by_label.setdefault(op.label, []).append(i)
    n = len(run.ops)
    rounds = len(run.times) // n if n and len(run.times) % n == 0 else 0
    for label, idxs in by_label.items():
        if rounds:
            times = [run.times[r * n + i] for r in range(rounds) for i in idxs]
            travel = statistics.fmean(run.travel_ratios[i] for i in idxs)
            print(f"  {label}: {len(idxs)} ops/round, median {1e3 * statistics.median(times):.2f} ms, "
                  f"travel/follow {travel:.4f}", file=sys.stderr)
    for label, ratio in paper_ratios(run).items():
        print(f"  {label}: travel / one-buffer greedy {ratio:.4f}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import checks
    import stages
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    ops = workloads.round_ops(args.workload, args.seed)
    run_op(workloads.warmup_op(args.workload))
    if args.probe:
        return 0

    setup_s = None if args.trace else measure_setup(args)
    run = Run(ops, bool(args.trace))
    for failure in checks.self_test():
        run.errors.append(f"checker self-test: {failure}")

    start = perf_counter()
    rounds = 0
    while True:
        began = perf_counter()
        run.round(first=rounds == 0)
        rounds += 1
        if rounds == 1:
            check_properties(run)
        now = perf_counter()
        # Start another round only if it should end within the run length.
        if now - start + (now - began) > args.seconds:
            break

    print(f"{args.workload} seed {args.seed}: {rounds} round(s) of {len(ops)} operations", file=sys.stderr)
    report_details(run)
    for text in run.errors[:20]:
        print(f"CHECK FAILED: {text}", file=sys.stderr)

    done = len(run.times)
    if args.trace:
        metrics = stages.per_layer_metrics(
            run.trace, done, run.counted_ops, sum(run.times), sum(run.traced_times)
        )
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "plans_per_s": {"value": done / sum(run.times), "unit": "1/s"},
            "plan_ms_p50": {"value": 1e3 * statistics.median(run.times), "unit": "ms"},
            "travel_ratio": {"value": statistics.fmean(run.travel_ratios), "unit": "ratio"},
            "cost_ratio": {"value": statistics.fmean(run.cost_ratios), "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    result = {"correct": not run.errors, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
