"""chiralring benchmark: times the package's verdict workloads end to end
and, in a separate traced run, per layer.

    python3 perfbench/run.py --workload hat-expansion --seed 1 --seconds 30 --trace 0

Everything runs in this one process on one thread, against the package
source in ../src.  A pass imports the package afresh (dropping its module
caches), builds a workspace per algebra (that is one set-up), then runs
every operation of the workload once, algebra by algebra in an order drawn
from the seed, and checks each answer against workloads.EXPECTED.  The seed
also picks the two primes of modular mode.  An untimed warm-up pass in the
workload's listed order comes first; timed passes repeat while another one
fits in --seconds.

--trace 0 reports the end-to-end metrics: wall_s (median over passes of
the time from the first operation to the last verdict, not counting the
extra set-ups timed between operations), setup_s (median over all set-ups)
and peak_rss_mb.  Both times are read from refclock.ReferenceClock, which
rescales the time the work took to a fixed reference speed of the host, so
that the neighbours' load on a shared host does not move them; the plain
wall-clock seconds are kept in the run record and printed beside them.
--trace 1 runs one untraced pass and then one pass with the public
functions of every layer wrapped in memory (tracer.py), and reports the
per-layer metrics in plain seconds.  The last line of standard
output is one JSON object; a full record of the run, with the trace, is
written under perfbench/out/.  The exit status is 0 when every answer was
right, 1 when an operation failed and 2 when the package cannot be found.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from refclock import ReferenceClock
from tracer import Tracer
from workloads import EXPECTED, WORKLOADS, algebras

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Set-up takes 0.05-0.3 s, short next to the host's swings of speed, so
# besides the set-up of each pass the run times another one between
# operations whenever this long has passed since the last, and reports the
# median of them all.
SETUP_EVERY_S = 2.0

API = {
    "chiralring.rootsystem": ("build_root_system", "chevalley_data"),
    "chiralring.cdsw": ("Workspace", "check_S_power", "check_part_i",
                        "check_conj_c2_c3", "hat_trace", "check_sln_remark"),
    "chiralring.cdsw.hats": ("trace_z_power", "d_trace"),
    "chiralring.exactla": ("FieldMode",),
    "chiralring.liemodule": ("invariant_basis_elements",),
}

clock = time.perf_counter


class PackageMissing(RuntimeError):
    pass


def _package_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "chiralring" or name.startswith("chiralring.")}


def load_api(tracer=None):
    """Import chiralring afresh from SRC and return its public functions,
    wrapped by the tracer when one is given."""
    for name in _package_modules():
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        package = importlib.import_module("chiralring")
    except ImportError as exc:
        raise PackageMissing("cannot import chiralring from %s: %s"
                             % (SRC, exc)) from exc
    if Path(package.__file__).resolve().parent != SRC / "chiralring":
        raise PackageMissing("chiralring imported from %s, not from %s"
                             % (package.__file__, SRC))
    modules = {name: importlib.import_module(name) for name in API}
    if tracer is not None:
        tracer.install()
    return SimpleNamespace(**{attr: getattr(modules[name], attr)
                              for name, attrs in API.items()
                              for attr in attrs})


def elapsed(refclock, start, end):
    """Seconds from start to end: reference seconds when a reference clock
    runs, else plain wall-clock seconds."""
    if refclock is None:
        return end - start
    return refclock.reference_seconds(start, end)


def set_up(ops, tracer=None, refclock=None):
    """Import, root systems, Chevalley data and one Workspace per algebra;
    returns (api, workspaces, seconds)."""
    start = clock()
    api = load_api(tracer)
    workspaces = {
        key: api.Workspace(api.chevalley_data(api.build_root_system(t, r)))
        for key, t, r in algebras(ops)}
    return api, workspaces, elapsed(refclock, start, clock())


def sample_set_up(ops, refclock):
    """Time one set-up, then restore the modules the running pass uses, so
    imports made inside its operations still find them."""
    saved = _package_modules()
    seconds = set_up(ops, refclock=refclock)[2]
    for name in _package_modules():
        del sys.modules[name]
    sys.modules.update(saved)
    return seconds


def pass_order(ops, rng):
    """Operations grouped by algebra: the algebras in an order drawn from
    rng, and each algebra's operations in an order drawn from rng; in the
    workload's listed order when rng is None."""
    groups = {}
    for op in ops:
        groups.setdefault(op.algebra, []).append(op)
    keys = list(groups)
    if rng is not None:
        rng.shuffle(keys)
        for key in keys:
            rng.shuffle(groups[key])
    return [groups[key] for key in keys]


def run_pass(ops, api, workspaces, seed, rng, tracer=None, between=None,
             refclock=None):
    """Run every operation once, in pass_order, calling between() after
    each; returns the pass wall time (the operations' total time, see
    elapsed) and one record per operation.  An algebra's workspace is
    dropped once its operations are done, as when checking one algebra
    after another, so the peak memory does not depend on how the algebras
    interleave."""
    exact, modular = api.FieldMode.exact(), api.FieldMode.modular(seed)
    records = []
    start = clock()
    for group in pass_order(ops, rng):
        for op in group:
            records.append(_run_op(op, api, workspaces, exact, modular,
                                   start, tracer, refclock))
            if between is not None:
                between()
        workspaces.pop(group[0].algebra, None)
    return sum(r["s"] for r in records), records


def _run_op(op, api, workspaces, exact, modular, start, tracer, refclock):
    """Time one operation and check its answer; returns its record."""
    before = tracer.layer_self_s() if tracer else None
    t0 = clock()
    try:
        answer = op.call(api, workspaces.get(op.algebra),
                         modular if op.modular else exact)
        error = None
    except Exception as exc:  # a raising operation is a failed one
        answer, error = None, "%s: %s" % (type(exc).__name__, exc)
    t1 = clock()
    record = {"op": op.name, "start_s": t0 - start, "end_s": t1 - start,
              "s": elapsed(refclock, t0, t1),
              "ok": error is None and answer == EXPECTED.get(op.key),
              "answer": answer}
    if error is not None:
        record["error"] = error
    if tracer:
        after = tracer.layer_self_s()
        record["layer_self_s"] = {k: after[k] - before[k] for k in after}
    return record


def measure(ops, seed, seconds, trace):
    """Run the workload; returns the run record (metrics included)."""
    rng = random.Random(seed)
    if trace:
        passes, setups, primes = _passes(ops, seed, rng, seconds, None, True)
    else:
        with ReferenceClock() as refclock:
            passes, setups, primes = _passes(ops, seed, rng, seconds,
                                             refclock, False)
    run = {"seed": seed, "primes": primes, "passes": passes,
           "setup_samples_s": setups}
    if trace:
        tracer = Tracer()
        api, workspaces, setup_s = set_up(ops, tracer)
        wall, records = run_pass(ops, api, workspaces, seed, rng, tracer)
        del api, workspaces
        passes.append({"setup_s": setup_s, "wall_s": wall, "ops": records,
                       "traced": True})
        window = setup_s + wall
        layers = tracer.layer_self_s()
        run["trace"] = {
            "self_s": dict(tracer.self_s), "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
            "layer_share": {k: v / window for k, v in layers.items()},
            "untraced_share": 1 - sum(layers.values()) / window,
        }
        metrics = tracer.metrics(wall / passes[0]["wall_s"])
    else:
        run["reference_clock"] = refclock.probe_stats()
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": (statistics.median(p["wall_s"] for p in passes
                                         if "wall_s" in p), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
    run["metrics"] = {k: {"value": v, "unit": u}
                      for k, (v, u) in metrics.items()}
    run["attempted"] = sum(len(p["ops"]) for p in passes)
    run["failed"] = sum(not r["ok"] for p in passes for r in p["ops"])
    return run


def _passes(ops, seed, rng, seconds, refclock, once):
    """A warm-up pass, then timed untraced passes while another one fits in
    seconds (one pass and no warm-up when once); returns (passes, set-up
    seconds, the modular primes)."""
    setups = []
    last_setup = clock()

    def between():
        nonlocal last_setup
        if not once and clock() - last_setup >= SETUP_EVERY_S:
            setups.append(sample_set_up(ops, refclock))
            last_setup = clock()

    passes = []
    begin = clock()
    if not once:
        # An untimed warm-up pass in the listed order, where the operations
        # that fill a workspace's caches (z powers, say) come before those
        # that reuse them.  Peak memory depends on that order, so this pass
        # sets the run's peak whatever order the seed draws for the rest.
        api, workspaces, _ = set_up(ops)
        _, records = run_pass(ops, api, workspaces, seed, None)
        passes.append({"warm_up": True, "ops": records})
        del api, workspaces
        gc.collect()
    while True:
        t0 = clock()
        api, workspaces, setup_s = set_up(ops, refclock=refclock)
        setups.append(setup_s)
        last_setup = clock()
        wall, records = run_pass(ops, api, workspaces, seed, rng,
                                 between=between, refclock=refclock)
        passes.append({"setup_s": setup_s, "wall_s": wall,
                       "clock_s": clock() - t0, "ops": records})
        primes = list(api.FieldMode.modular(seed).primes)
        # free this pass's objects before the next pass is timed
        del api, workspaces
        gc.collect()
        # stop when a next pass as long as this one would end too late
        if once or clock() - begin + passes[-1]["clock_s"] > seconds:
            return passes, setups, primes


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu}


def report(workload, run):
    """Human-readable lines; the JSON result line follows them."""
    print("workload %s  seed %d  primes %s  passes %d"
          % (workload, run["seed"], ",".join(map(str, run["primes"])),
             len(run["passes"])))
    env = run["environment"]
    print("environment: nproc %s, python %s, cpu %s"
          % (env["nproc"], env["python"], env["cpu"]))
    by_op = {}
    for p in run["passes"]:
        for r in p["ops"]:
            by_op.setdefault(r["op"], []).append(r)
    for name, rs in by_op.items():
        bad = [r for r in rs if not r["ok"]]
        print("  %-46s %9.4f s  %s" % (
            name, statistics.median(r["end_s"] - r["start_s"] for r in rs),
            "ok" if not bad else "FAILED %s" % bad[0].get(
                "error", "answer %r" % (bad[0]["answer"],))))
    for name, m in run["metrics"].items():
        print("%-28s %.6g %s" % (name, m["value"], m["unit"]))
    if "reference_clock" in run:
        wall = statistics.median(
            sum(r["end_s"] - r["start_s"] for r in p["ops"])
            for p in run["passes"] if "wall_s" in p)
        ref = run["reference_clock"]
        print("%-28s %.6g s (plain wall clock); reference work %.3g ms "
              "median over %d probes, %.3g ms nominal" % (
                  "wall_clock_s", wall, 1000 * ref["median_s"],
                  ref["probes"], 1000 * ref["reference_s"]))
    print("%-28s %.6g failed/attempted (%d of %d)" % (
        "failed_ratio", run["failed"] / run["attempted"], run["failed"],
        run["attempted"]))
    if "trace" in run:
        shares = run["trace"]["layer_share"]
        print("layer self-time shares of the traced pass: " + ", ".join(
            "%s %.1f%%" % (k, 100 * v) for k, v in shares.items())
            + ", outside traced calls %.1f%%"
            % (100 * run["trace"]["untraced_share"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        run = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                      args.trace)
    except PackageMissing as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    run["workload"] = args.workload
    run["environment"] = environment()
    report(args.workload, run)
    OUT.mkdir(exist_ok=True)
    path = OUT / ("%s-seed%d-trace%d.json"
                  % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(run, indent=1) + "\n")
    print(json.dumps({
        "correct": run["failed"] == 0, "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": run["metrics"]}))
    return 0 if run["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
