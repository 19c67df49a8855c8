"""Benchmark of the evidential library and CLI.

    python3 bench/run.py --workload {query,evidence,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the library is imported from ``src/``.
One client drives the library in a closed loop, one op at a time, in
whole rounds of ops until ``--seconds`` of op time has passed.  Every
result is checked against an independent reference after the timed phase.
The last line of stdout is one JSON object; with ``--trace 0`` it holds the
end-to-end metrics, with ``--trace 1`` the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from spans import NULL, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# Seconds that calibrate() takes at the reference speed: timings are scaled
# to it (see "Host speed" in README.md).
CALIBRATION_REF_S = 0.0035
# How far before and after a timed interval calibrate() samples count
# towards its speed factor.
SPEED_WINDOW_S = 0.3
SETUP_CALIBRATIONS = 3
TAIL_BEYOND = 10
PROBE_REPEATS = 5
# Modules with a line-count metric; the total counts every file.
MODULES = {"__init__": "package", "__main__": "main", "belief": "belief", "cli": "cli",
           "document": "document", "errors": "errors", "formula": "formula",
           "model": "model", "semantics": "semantics", "fixtures/__init__": "fixtures"}


class Failed:
    """An op that raised: what is kept in place of its result."""

    def __init__(self, text: str):
        self.text = text


def unit(metric: str) -> str:
    for suffix, name in ((".calls", "count"), (".pairs", "count"), ("mb_per_s", "MB/s"),
                         ("_ratio", "ratio"), ("src_lines", "lines"), ("_ops_s", "1/s"),
                         ("_ms", "ms"), ("_us", "us"), ("_ns", "ns"), ("_mb", "MB"), ("_s", "s")):
        if metric.endswith(suffix):
            return name
    raise ValueError(f"no unit for {metric}")


def calibrate() -> None:
    """One fixed piece of pure-Python work whose duration tracks the host's speed.

    The work is of the kinds the library does (Fraction sums, big-integer
    masks, dict and frozenset building) but calls none of it, so a change
    to the library leaves it alone while the host's speed moves it."""
    for _ in range(5):
        total, mask, table = Fraction(0), 0, {}
        for i in range(1, 150):
            total += Fraction(i % 7 + 1, i)
            mask ^= 1 << (i * 37 % 256)
            table[mask & 0xFFFF] = total
        frozenset(table)


class HostSpeed:
    """Timed calibrate() samples, taken between timed regions, and the speed
    factor by which a timing is scaled to the reference speed."""

    def __init__(self):
        self.at, self.took = [], []

    def sample(self, k: int) -> None:
        for _ in range(k):
            start = perf_counter()
            calibrate()
            end = perf_counter()
            self.at.append((start + end) / 2)
            self.took.append(end - start)

    def factor(self, start: float, end: float) -> float:
        """The host's speed from ``start`` to ``end`` over the reference speed,
        from the median sample within SPEED_WINDOW_S of that interval."""
        lo = bisect.bisect_left(self.at, start - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + SPEED_WINDOW_S)
        return CALIBRATION_REF_S / statistics.median(self.took[lo:hi])


def measure(wl, seconds: float, tracer, host: HostSpeed) -> dict:
    """Closed loop over whole rounds; with tracing, odd rounds are traced.

    Rounds run until ``seconds`` of op time at the reference speed has
    passed, so that how many ops a run makes does not depend on the host's
    speed.  Outside the timed regions, calibrate() runs twice before the
    first op of a round and twice after each op."""
    from workloads import summarize

    records, busy, count, r = [], [0.0, 0.0], [0, 0], 0
    spans, at_reference = [], 0.0
    while True:
        traced = tracer.enabled and r % 2 == 1
        tr = tracer if traced else NULL
        host.sample(2)
        round_start, round_busy = perf_counter(), 0.0
        for op in wl.round(r):
            start = perf_counter()
            try:
                with tr.span("op"):
                    result = wl.execute(op, tr)
            except Exception:
                result = Failed(traceback.format_exc())
            end = perf_counter()
            records.append((op, summarize(result), end - start, traced))
            busy[traced] += end - start
            round_busy += end - start
            count[traced] += 1
            if not traced:
                spans.append((start, end))
            host.sample(2)
        r += 1
        at_reference += round_busy * host.factor(round_start, perf_counter())
        if at_reference >= seconds and (not tracer.enabled or r % 2 == 0):
            speeds = [host.factor(start, end) for start, end in spans]
            return {"records": records, "busy": busy, "count": count, "rounds": r,
                    "speeds": speeds}


def passes(check, ref, op, kept) -> bool:
    if isinstance(kept, Failed):
        print(f"op failed: {op!r}\n{kept.text}", file=sys.stderr)
        return False
    try:
        ok = check(ref, op, kept)
    except Exception:
        print(f"reference check raised for {op!r}\n{traceback.format_exc()}", file=sys.stderr)
        return False
    if not ok:
        print(f"wrong result for {op!r}", file=sys.stderr)
    return ok


def timings(latencies: list, setup_times: list) -> dict:
    latencies = sorted(latencies)
    k = max(0, len(latencies) - TAIL_BEYOND - 1)
    return {
        "throughput_ops_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": latencies[k] * 1e3,
        "setup_s": statistics.median(setup_times),
    }


def end_to_end(wl, phase: dict, setups: list, rss_mb: float) -> dict:
    """Timings at the reference speed; the unscaled ones are printed beside them."""
    latencies = [lat for _, _, lat, traced in phase["records"] if not traced]
    n = len(latencies)
    k = max(0, n - TAIL_BEYOND - 1)
    print(f"latency_tail_ms is p{100 * (k + 1) / n:.1f} of {n} samples "
          f"({n - k - 1} beyond it); {phase['rounds']} rounds")
    raw = timings(latencies, [t for t, _ in setups])
    speeds = phase["speeds"] + [s for _, s in setups]
    print(f"unscaled: {json.dumps(raw)}; host speed / reference speed: "
          f"median {statistics.median(speeds):.3f}, range {min(speeds):.3f}-{max(speeds):.3f}")
    scaled = timings([lat * s for lat, s in zip(latencies, phase["speeds"])],
                     [t * s for t, s in setups])
    return dict(scaled, peak_rss_mb=rss_mb)


def peak_rss_mb(wl) -> float:
    """Peak resident set so far: of the CLI child processes for ``cli``, else of this process."""
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def _median_time(fn, repeats=PROBE_REPEATS, inner=1) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(inner):
            fn()
        times.append((perf_counter() - start) / inner)
    return statistics.median(times)


def probes(wl) -> dict:
    """Micro-probes of the model and measure layers at the workload's size,
    and interpreter start-up and import cost as CLI references."""
    from evidential import load_document

    document = wl.document or load_document(wl.doc_path)
    space = document.model.space
    a, b = space.subset(space.states[::2]), space.subset(space.states[::3])
    measure = next(iter(document.measures.values()))
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(code):
        return lambda: subprocess.run([sys.executable, "-c", code], env=env, check=True)

    startup = _median_time(spawn("pass"))
    return {
        "model.stateset_and_ns": _median_time(lambda: a & b, inner=2000) * 1e9,
        "model.stateset_le_ns": _median_time(lambda: a <= b, inner=2000) * 1e9,
        "model.stateset_hash_ns": _median_time(lambda: hash(a), inner=2000) * 1e9,
        "belief.measure.of_us": _median_time(lambda: measure.of(a)) * 1e6,
        "belief.measure.condition_us": _median_time(lambda: measure.condition(a)) * 1e6,
        "cli.startup_ms": startup * 1e3,
        "cli.import_ms": (_median_time(spawn("import evidential")) - startup) * 1e3,
    }


def src_lines() -> dict:
    lines = {f"{name}.src_lines": 0 for name in MODULES.values()}
    total = 0
    package = SRC / "evidential"
    for path in sorted(package.rglob("*.py")):
        count = len(path.read_text(encoding="utf-8").splitlines())
        total += count
        name = MODULES.get(path.relative_to(package).with_suffix("").as_posix())
        if name:
            lines[f"{name}.src_lines"] = count
    lines["total.src_lines"] = total
    return lines


def per_layer(wl, tracer, phase: dict, probed: dict) -> dict:
    times = tracer.self_times()
    metrics: dict = {}

    def calls(span, stats=("calls", "busy_ms", "mean_us")):
        n, seconds = times.get(span, (0, 0.0))
        values = {"calls": n, "busy_ms": seconds * 1e3, "mean_us": seconds / n * 1e6 if n else 0.0}
        metrics.update({f"{span}.{stat}": values[stat] for stat in stats})
        return n, seconds

    calls("formula.parse")
    calls("semantics.truth_set.plain")
    calls("semantics.truth_set.entails")
    calls("semantics.interpret", ("busy_ms",))
    for fn in ("bel", "mass_from_evidence", "degree_given"):
        calls(f"belief.{fn}")
    calls("belief.dempster_combine", ("calls", "busy_ms"))
    pairs = meets = 0
    for m1, m2 in tracer.kept.get("belief.dempster_combine", ()):
        focal1, focal2 = [e for e, _ in m1.items()], [e for e, _ in m2.items()]
        pairs += len(focal1) * len(focal2)
        meets += sum(bool(e1 & e2) for e1 in focal1 for e2 in focal2)
    metrics["belief.dempster_combine.pairs"] = pairs
    metrics["belief.dempster_combine.meet_ratio"] = meets / pairs if pairs else 0.0
    calls("belief.pointwise_combine", ("calls", "busy_ms"))
    calls("belief.pointwise_condition", ("calls", "busy_ms"))
    megabytes = len(wl.doc_text.encode("utf-8")) / 1e6
    for fn in ("load_document", "parse_document"):
        n, seconds = calls(f"document.{fn}", ("busy_ms",))
        metrics[f"document.{fn}.mb_per_s"] = n * megabytes / seconds if seconds else 0.0
    calls("cli.run", ("busy_ms",))
    render = 0.0
    for children in tracer.children("replay"):
        for _, _, name, start, end in children:
            render += (end - start) * (1 if name == "cli.run" else -1)
    metrics["cli.render_ms"] = render * 1e3
    metrics.update(probed)
    metrics.update(src_lines())
    busy, count = phase["busy"], phase["count"]
    metrics["trace.overhead_ratio"] = (count[0] / busy[0]) / (count[1] / busy[1]) - 1
    return metrics


def run_record() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "commit": commit, "src_lines": src_lines()}


def run(wl, seconds: float, trace: bool) -> dict:
    from workloads import OUT, check_cli, coinflip_reference, coinflip_tour, replay

    record = run_record()
    # One CPU for this process and the CLI children it starts, so that
    # calibrate() measures the speed of the CPU the ops run on.
    record["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {record["pinned_cpu"]})
    tracer = Tracer() if trace else NULL
    host = HostSpeed()
    intervals = []
    for _ in range(SETUP_REPEATS):
        host.sample(SETUP_CALIBRATIONS)
        start = perf_counter()
        wl.setup(tracer)
        intervals.append((start, perf_counter()))
        host.sample(SETUP_CALIBRATIONS)
    setups = [(end - start, host.factor(start, end)) for start, end in intervals]
    phase = measure(wl, seconds, tracer, host)
    rss_mb = peak_rss_mb(wl)

    records = [(op, kept) for op, kept, _, _ in phase["records"]]
    replayed = []
    if trace:
        # The CLI layers are timed in process, on the coinflip tour and, for
        # the cli workload, on the traced rounds' machine-format ops.
        ops = wl.replays(phase["records"]) + coinflip_tour()
        replayed = [(op, replay(op, tracer)) for op in ops]
        probed = probes(wl)

    ref = wl.reference()
    cli_refs = ref if wl.name == "cli" else {"coinflip": coinflip_reference()}
    failed = sum(not passes(wl.check, ref, op, kept) for op, kept in records)
    failed += sum(not passes(check_cli, cli_refs, op, out) for op, out in replayed)
    attempted = len(records) + len(replayed)
    print(f"error_rate={failed / attempted} ({failed} of {attempted} ops)")

    print("run record: " + json.dumps(record))
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-{wl.seed}-trace{int(trace)}"
    (OUT / f"record-{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if trace:
        tracer.write(OUT / f"spans-{stem}.jsonl")
        values = per_layer(wl, tracer, phase, probed)
    else:
        values = end_to_end(wl, phase, setups, rss_mb)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit(name)} for name, v in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("query", "evidence", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "evidential" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    result = run(WORKLOADS[args.workload](args.seed), args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
